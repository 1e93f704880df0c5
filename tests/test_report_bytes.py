"""Pinned report bytes: every subcommand's report, pinned by digest.

Each line of TABLE stores a command line's exit code, the sha256 of its
stdout with wall_time_s set to 0, and the sha256 of its stderr.  A change
that changes a report must update its lines here and say which lines
changed and why; there is no regeneration switch.  Fixtures are written
with `gen`, and no report names the path of its family.

Seeded families depend on numpy's Philox stream, and real bounds on
mpmath, so the digests hold for the versions in PINNED only.

Each line of HELP stores the digests of one parser's help and usage at
one terminal width; they hold for the Python version in PINNED_PYTHON.
"""

import argparse
import hashlib
import shlex
import sys

import mpmath
import numpy

from _cli import run, strip_wall_time, write_family
from sunflowers import cli

PINNED = "numpy 2.4.6, mpmath 1.3.0 (backend python)"
RUNNING = (f"numpy {numpy.__version__}, mpmath {mpmath.__version__} "
           f"(backend {mpmath.libmp.BACKEND})")
# help and usage are argparse's layout, which can change with the Python version
PINNED_PYTHON = "3.11"
RUNNING_PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"

# each fixture is the stdout of its `gen` command line, a text family file
FIXTURES = {
    "triangle": "gen all-subsets 3 2",
    "pairs": "gen all-subsets 5 2",
    "sunflower": "gen sunflower 1 2 8",
    "seven": "gen sunflower 0 2 7",
    "transversal": "gen transversal 3 2",
    "uniform": "gen random-uniform 12 3 9 --seed 4",
    "random_l": "gen random-l 10 3 --L 0,1 --count 12 --seed 7",
    "wide": "gen random-uniform 30 3 20 --seed 1",
}

EMPTY = hashlib.sha256(b"").hexdigest()

# (command line, exit code, stdout digest, stderr digest); `{name}` is the
# path of a fixture.  An argparse usage error pins no stderr (None): its
# usage text wraps with the terminal width and the Python version.
TABLE = [
    ("check {triangle} --L 1", 0,
     "e6cf12369071358055231a5a767c823d8415eaa27d41424132d224d967ef7e7a",
     EMPTY),
    ("check {triangle} --d 0", 1,
     "8e5ff6ee3094cedf1c56a26094e085b1723d81cffa020a3602bef9fdda657107",
     EMPTY),
    ("check {transversal} --L 0,1,2 --d 2 --uniform 3 --format text", 0,
     "eb20bf061ec436793f466da84c301ce373dcd121e41d09af4fde10dbf962ee81",
     EMPTY),
    ("check {uniform} --uniform 3 --d 1", 1,
     "fd83131e2a683deaf054454ff1ae857f6b7fb150f64db0d5f12358fe7d8e4dab",
     EMPTY),
    ("check {triangle} --d -1", 3,
     EMPTY,
     "dc5b401c130960f28063dee4495be8b8c4d6b4e0ff5eab6332a46eabc6ae1702"),
    ("find {sunflower} --r 3", 0,
     "fc5065947dc8c4f875101fe31218d12c66955ff3eed0751e61059454c72289a0",
     EMPTY),
    ("find {transversal} --r 3", 1,
     "a180cd4fddfa53f9335ed682d871fe23266d9ba2c65c1aaf695e3c7f1ed18366",
     EMPTY),
    ("find {seven} --r 3 --strategy recursive", 0,
     "93e6cb42e8f1cd6e749fd5bbe60da4fac825ebf546ce10eacde30f51bbd7d46d",
     EMPTY),
    ("find {triangle} --r 3 --strategy recursive", 2,
     "81215bd4cdeeff913534ed2a08e6cd4f68e5f5f41cbdc0a9d44a7d57a60ad769",
     EMPTY),
    ("find {transversal} --r 3 --strategy brute --budget 10", 2,
     "a4bcd89d6170a2ed76b97038b33f85eff3564ab9f1a3b196a6cfb8cf0d41dd3f",
     EMPTY),
    ("find {pairs} --r 3 --strategy brute --format text", 0,
     "20d482a3f0ab30ef128255e2327c48f2d51798335d7f37ca77856aea330cc1c0",
     EMPTY),
    ("find {random_l} --r 3", 0,
     "701740768b272f5d9c020fd1d7b96180b023e897f026509ed623eb4cc0db63d9",
     EMPTY),
    ("find {triangle} --r 1", 3,
     EMPTY,
     "fe8d70f992f9a3d397699b052625e0ae703c5e77b308e98870094b6f6e8042e4"),
    ("bounds --which erdos-rado -n 5 -r 3", 0,
     "fc8a9e11f9153f651bccee6442373deb387462cae377426f8ca51b4aebbaf7e8",
     EMPTY),
    ("bounds --which pigeonhole-limit -n 4 -r 3", 0,
     "16620acae351f90bf961e0a4e5f1e1d79c6538c2250fd3baab6d81dbdbc55de8",
     EMPTY),
    ("bounds --which l-intersecting -n 5 -s 2 -r 3", 0,
     "f67ca8b948459033f62074b99725749b2b6854584afedd1d3e549c2b32be97c1",
     EMPTY),
    ("bounds --which l-multinomial -n 6 --L 0,2,3 -r 3", 0,
     "992f6740ffe14f17de9c514716e1c57f641a5d4b999afbd9507f515b1c68dc15",
     EMPTY),
    ("bounds --which three-sunflower -n 10 -s 3 --digits 20", 0,
     "735ea1821af72d4de3e1d20d9a69487817e180e56be056d973bd38aa5b09cb16",
     EMPTY),
    ("bounds --which rlogn -n 50 -r 3 -C 3/2 --log-base 2", 0,
     "46c8dd9b676bdaeeee11bda3736398ca44c1e184ce5f8de51dd916b902ac515f",
     EMPTY),
    ("bounds --which d-intersecting -n 12 -d 3 -r 3 --format text", 0,
     "d33331f1f361aff3c1a78944c8e8915a8da37100c10827e083f7a0aac3f6e367",
     EMPTY),
    ("bounds --which falling-factorial -n 12 -d 3 -r 3", 0,
     "91c8e5d3aeeb8f0cedcc290e6fbe49a26fd791db9db841129e2501ab46eb73b5",
     EMPTY),
    ("bounds --which crossover -n 20 -r 3", 0,
     "a2198fe8288ffde58b8bc198a66f08311cc10a5bb9704f7446ab018e8eaac3e5",
     EMPTY),
    ("bounds --which all -n 6 -r 3 -s 2 -d 2 --L 0,1", 0,
     "1766c1985b0126f43a5c90d1c92eee96e87b3bf584cf2f35e97306ab0bff678c",
     EMPTY),
    ("bounds --which erdos-rado -n 5 -r 3 -d 2", 3,
     EMPTY,
     "64a2e43f8061fe91b22726592d964e2f85fc75f07737d089057c51dbfcdbc828"),
    ("bounds --which nope", 3,
     EMPTY,
     None),
    (f"bounds --which rlogn -n 5 -r 3 --digits {10**400}", 3,
     EMPTY,
     "6819e2c5ddfad432f91c311d12b0f4402b659ab37ac896a0edd19ea4537c0136"),
    (f"bounds --which rlogn -n {10**400} -r 3", 3,
     EMPTY,
     "c7b37745a5d1801e2ce1b4ca9fc9ac6b1dd574f19854809a81ad07b8e91065b1"),
    (f"bounds --which three-sunflower -n 5 -s {10**400}", 3,
     EMPTY,
     "1ec7bfc32bf98ba02751dc2d85d77d62441ece536da11fb6c3e14af07facd2a5"),
    (f"bounds --which d-intersecting -n 5 -d {10**400} -r 3", 3,
     EMPTY,
     "3771a1d0bc8a296fde45760bc93cb9d60a0efd7707c2f84ca5f4a8327f17e878"),
    (f"bounds --which rlogn -n {10**400} -r 1", 3,
     EMPTY,
     "a713488d535b6e0202eb50792200f7cf7bb2cea2bc8a3eeb31fb5307e2bebbc0"),
    ("spread {sunflower} --kappa 2", 1,
     "c9b7cc0a39918aca380c66c2215040e53e6a0ac4c1389b19e1c0c1792565790a",
     EMPTY),
    ("spread {transversal} --kappa 2 --d 1 --format text", 0,
     "4de28a6177f608749535286c6d83428ec99e86760703000d0df9f783d6f85bfc",
     EMPTY),
    ("spread {triangle} --alpha 1/3", 0,
     "15a260eebe849ea3ebf84753e5c680496a72211b783e4b5bba3f88f581216c40",
     EMPTY),
    ("spread {wide} --alpha 1/3 --trials 2000 --seed 5", 0,
     "1b0c8bb2b180c354fecb323682abe5c42ea5923a4377e78ac6a6f8569161e924",
     EMPTY),
    ("spread {pairs} --r 3", 0,
     "6a67f533b18e5291eb165b0ebc3e7e447e08c00f412602a3b0d80db508f9cf28",
     EMPTY),
    ("spread {wide} --r 2 --trials 500 --seed 3", 0,
     "2c631877baf83fb0b1b5b51360969b347a1ec4a25b2c951a0ec07917437288f6",
     EMPTY),
    ("spread {triangle} --seed 1", 3,
     EMPTY,
     "f51b5f2070b6acac1886db50785205f9d54cb7b3da273e0ad8b09b61ec566a57"),
    (f"spread {{wide}} --alpha {10**400} --trials 64 --seed 1", 3,
     EMPTY,
     "acbe9d32c98562dfd2261aa702eb2d3615bdf31231462bd1eb1275b3b7b6f0fd"),
    (f"spread {{wide}} --alpha 1/3 --trials {10**400} --seed 1", 3,
     EMPTY,
     "27e9c9312e28ff85715c4bd31c5373d396d84e3f62001b249c5e7fcde77dd18e"),
    ("experiment {triangle} --alpha-grid 0.2:0.8:0.3 --trials 1000 --seed 2", 0,
     "378789c00a1f62c22a7ef90dda7b48e0c4a4515c434f28914b776b84b6448a77",
     EMPTY),
    ("experiment {triangle} --alpha-grid 0.2:0.8:0.3 --trials 1000", 3,
     EMPTY,
     "d573b0d7ed5bc602d9fb4cde0352d8d21bd09c796926636d4e68bb13e59dd927"),
    ("experiment {wide} --alpha-grid 0.1:0.2:0.1 --trials 100000000 --seed 1", 3,
     EMPTY,
     "7e10778ec16e64bf97cf6433aaa97f8a1fa43fa99298052d13d675e9e599c391"),
    ("experiment {wide} --alpha-grid 0.01:0.99:0.01 --trials 30000000 --seed 1", 3,
     EMPTY,
     "e25043269590eb7378b773e6647d27cfbf58f130e378af4bc0fbb9212abdfc43"),
    ("encode-audit {seven} --px 3 --d 1 --delta 1/2", 0,
     "0da41ab0de936819ced3dd2d50edb7a92b51a5021b93b3605a2d936d0f1e934f",
     EMPTY),
    ("encode-audit {pairs} --px 2 --d 1 --format text", 0,
     "9fb513e5f971dfb1471cf67508632f145c3cb3841564400846c185e5d14ea97a",
     EMPTY),
    ("encode-audit {pairs} --px 2 --d 1 --delta 0", 3,
     EMPTY,
     "f1d1ab8f0615d5cf63e6ca5ba9e7d891a53efa7a5b313c5d4c5ec606b5f8a86a"),
    ("gen sunflower 1 2 3", 0,
     "8d4cf97dd7029e6c0e00662c372c3ddd17121898d6fb9027becc9676aa0f651d",
     EMPTY),
    ("gen transversal 2 3 --format json", 0,
     "8d0c178efeceeae915af976c547dbeac7e819b28a37d243c1c10e4f1f114d463",
     EMPTY),
    ("gen all-subsets 5 3", 0,
     "8442bfcd5f86e3b633ec47b45cac94cea4f346bd35b7d90df2af7bfd3131a739",
     EMPTY),
    ("gen random-uniform 12 3 9 --seed 4", 0,
     "30768fa457efbf4b7e61d7ecbda9a622e30f1477af75ab8970d39ae0fd814c67",
     EMPTY),
    ("gen random-l 10 3 --L 0,1 --count 12 --seed 7", 0,
     "50fe230eea31125eb2647bee7668919089e47dd2099fb6ef8b0eb83c6e546d52",
     "5528d4d3cf6a404bdc68dcee20777be01cad3699be529ed4fb9b221cde3e869e"),
    ("gen random-l 10 3 --L 0,1 --count 12", 3,
     EMPTY,
     "3152601c76fffd96f2bcccc605505d35b97386c2f5568f2c2206f5228cd030b7"),
    ("gen random-uniform 4 2 7 --seed 0", 3,
     EMPTY,
     "d2ea5f7d76de25f3d51a90a3920316c775c314206ed8b94d84bb63ebbfc0b27a"),
    ("check {triangle} --threads 4", 3,
     EMPTY,
     None),
]

# (COLUMNS, parser, sha256 of its format_help(), sha256 of its
# format_usage()) for every parser of `build_parser()`, in the order added
HELP = [
    (40, "sunflowers",
     "a0aee3bd49ebe37c0fa64a75d095267f908038438739891cd719961b324f2e3d",
     "d468f3653f441854283cc50829f07d3b33b6fa9386e6ed9f2940d99ca79514e2"),
    (40, "sunflowers check",
     "0dfe7cd7fa27e44a6dfd7a57f39702b7c317e8d5bd8c8063e5e6bc947968fa66",
     "357419261b4d125497a4242a64f84ae5bf8d4effd717d3fa7468be39990badb3"),
    (40, "sunflowers find",
     "46fc46e529735f1d14041a4ad4ee868ceea3a8c5ed944681acf8ad1f1e8206fd",
     "f1f6ed94c65d23d6a8ff800f9abaeb38a838d2ce092359f741ea9b7c6f0e3bb7"),
    (40, "sunflowers bounds",
     "7e67d25b2119f6151286680a554e879cccb62e199158ad1f105ab242a8c558d4",
     "ee299c1809db1ecc2c5ee2372761d8ed2d4ba6aa6e86381eee1dd9677bf39f95"),
    (40, "sunflowers spread",
     "e11af353a2e1e8c83bd203269d8c1fd161f0c492c5c5d04ec28bcdbace3dcecc",
     "4bc3a68f34d0c892cf2343f268762a66d388ba0c19344a68a7fd5066353d7260"),
    (40, "sunflowers experiment",
     "ad785b09fb05c5cbbfa5bbdb6b35a936cceac7c02b2e4f81cc640c535f3d5b56",
     "124fa98e80fb053d4dd86982599a5daf75ce536cb5ccc8580f8572871e8fa390"),
    (40, "sunflowers encode-audit",
     "fa66341dcf9a84e70cfe342fa013e93d5b9a34246e17da5faa7c4e5b92af2104",
     "60f5afc4d4628d81bfb9d14b1015b6b340107ed9527b5d4e80e48126266e28c8"),
    (40, "sunflowers gen",
     "11a150e27239d3e3ae76a2241b76dcde8e4677a5cf2970435b41084616a2280d",
     "e22ed73d810db6befe524b7ba7837ea9390113a60f7db9a244ee9038535cb167"),
    (40, "sunflowers gen sunflower",
     "a424f1ccd282cb2d464b9735addc1fd491ff7060f8f3944770a60c45184c20ba",
     "1d657db8f6017cac10d384a99e28dcbb4aef317f04f8525698c4d292238adaea"),
    (40, "sunflowers gen transversal",
     "f704a65929d4342dc4bda0b6b3b043c77729869d3d886722d7b637d5841b9c0a",
     "a124c8e7029de4fbf47b429a281bad159bada4be0fd66c6698f23eefb1557715"),
    (40, "sunflowers gen all-subsets",
     "a03c9224e5684d4075b4f68b596a01c12fbf7dadb83a2756474c7ab9828f01fc",
     "554547dc3371f0350e1f20f41e070bf362e101719863ecf5471d245c1fcf8488"),
    (40, "sunflowers gen random-uniform",
     "dea3f03bd7626d4ded7aff574422ce16aa538634e86081acc17d08e2c57cd787",
     "fcc553f846f825a3490cfb0cd5f356ffa66203558c7229ffab3eaad3e53196f7"),
    (40, "sunflowers gen random-l",
     "fc8f8f4f45b42b9484ffeb72ac3fb8d1feeaddd5a33a4341f14472b674b60fd1",
     "717b81f91ceaadf529c93b2a625cdd256e2db25b96ac7415fd31784aa51c90ea"),
    (200, "sunflowers",
     "1defbf50c6c9a8d746f64f59227219b35928aafac5d5461acc007f7a1843cc7f",
     "198b7549699977ae66b4ad2ee6aace5efe8978b954fd0dc709e021fdbe754e4e"),
    (200, "sunflowers check",
     "841282857bcb8baf37b68a140d568062421bf068135d13fad95cdb3e47dca80e",
     "fbee31a27448eec1fbe123d99a231e7e839aaffdbc61a1b06a16c1ccd5e09f31"),
    (200, "sunflowers find",
     "ea79f4a656b5fd4049fbfc189617d952a80233630e0c56a476c22eebe96ad78e",
     "5037b70c02bc11d9e5ca0c6ad9f34e61be22af1c60e356867d343dac27e4d701"),
    (200, "sunflowers bounds",
     "eb964b0a7e14b5a9defeddff4450c3b948bd905d3fd65f70dcb2400b9be3e7aa",
     "cfb894a7c95fe7b09352d1df0cb8dd4f41a4d75bf1b0fb40a016c6ffb2cd7b3b"),
    (200, "sunflowers spread",
     "9e427a6176dd0c718c97a15cf1b5082a4da096a9dff2ce81959b0d767205d36b",
     "6e2a913acbf9313b5293ae6ce1c0f6ba9fe5afaa771f15b9be9a98e69553ebee"),
    (200, "sunflowers experiment",
     "6a8446c8a8d4e8fdedb0e002535dad7c5a0ef9f2eff88de878a1b5d09e1b3d5a",
     "9f7349296ff565f97092b50b50b8a9bd7c930e5f20dc27d2524541e2c6d08686"),
    (200, "sunflowers encode-audit",
     "29e61db1a69aaa70a4bd3ff46bbc978fbd6cfbd535a438133459c2359213e3b8",
     "4523b25c034481653f857f86bc20bc55c33a978c694ad348e2ac9581fd175536"),
    (200, "sunflowers gen",
     "9bb3ea4cb8447ffc0929be00ac52eb110fa0c6c7af69c3d0a31f49d5da3dccb4",
     "2d60ef5fe9d22233536d7e33fdb694ca6cb4841802a27083d22ba09a1cf1cd79"),
    (200, "sunflowers gen sunflower",
     "903f4cbe082341b5f58c1565a5e9cb96a6d3ad50efa7a9693715cff01e783a48",
     "b331bc4b2891339d8bb27773d9917586b65c22f5ec26143ec9c9334ebd2112e0"),
    (200, "sunflowers gen transversal",
     "7fda6e5f5746889ca5f7b7caaed0250eed820240edf460d5c3fd8c18f945f4ab",
     "4791234c285f6bbb7a95f9e43bf554ecadbd847fc28b7e4a467001605fc4926d"),
    (200, "sunflowers gen all-subsets",
     "37e1facbc053edbb4891db40da88e2d4584b8bdfdd0ca753687f0e573c0fa5e1",
     "e1978bd2d2a9588c1a3d6fee323c8e8b938db0e0b8fbc6967d6ca3d4bd59295f"),
    (200, "sunflowers gen random-uniform",
     "2023aa9defacf3fdaf2968e7a630d21790a4b50cfe37b5130337622e6b9ac5a8",
     "68e11d81881969a8aace531f3d22521001d1c7a9db204ca209f4d7ba79a09848"),
    (200, "sunflowers gen random-l",
     "53f87906efbffdce01734d5620355b3233476571c727ae687440d94b5cfb2217",
     "31e13efba707980b7b65f0b34dc394d8a732a0c8f855bd5e7dcc593a9a8e2ca8"),
]


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_reports_are_the_pinned_bytes(capsys, tmp_path):
    assert RUNNING == PINNED, f"digests pinned with {PINNED}; running {RUNNING}"
    paths = {}
    for name, line in FIXTURES.items():
        code, out, _ = run(capsys, *shlex.split(line))
        assert code == 0, line
        paths[name] = write_family(tmp_path, f"{name}.txt", out)
    changed = []
    for line, *pinned in TABLE:
        try:
            code, out, err = run(capsys, *(a.format(**paths) for a in shlex.split(line)))
        except SystemExit as exc:  # argparse refused the command line
            code, (out, err) = exc.code, capsys.readouterr()
        got = [code, _digest(strip_wall_time(out)), None if pinned[2] is None else _digest(err)]
        if got != pinned:
            changed.append(f"{line}\n  pinned {pinned}\n  got    {got}")
    assert not changed, "\n".join(changed)


def _parsers(parser):
    """`parser` and every parser below it, in the order they were added."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_help_and_usage_are_the_pinned_bytes(monkeypatch):
    assert RUNNING_PYTHON == PINNED_PYTHON, (
        f"help pinned with Python {PINNED_PYTHON}; running Python {RUNNING_PYTHON}")
    got = []
    for columns in (40, 200):
        monkeypatch.setenv("COLUMNS", str(columns))
        monkeypatch.setattr(cli._HelpFormatter, "width", None)  # read once per process
        got += [(columns, p.prog, _digest(p.format_help()), _digest(p.format_usage()))
                for p in _parsers(cli.build_parser())]
    assert len(got) == 2 * 13
    assert [pin[:2] for pin in HELP] == [entry[:2] for entry in got]
    changed = [f"{pin}\n  got {entry[2:]}" for pin, entry in zip(HELP, got) if pin != entry]
    assert not changed, "\n".join(changed)
