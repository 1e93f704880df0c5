"""Pinned report bytes: every subcommand's report, pinned by digest.

Each line of TABLE stores a command line's exit code, the sha256 of its
stdout with wall_time_s set to 0, and the sha256 of its stderr.  A change
that changes a report must update its lines here and say which lines
changed and why; there is no regeneration switch.  Fixtures are written
with `gen`, and no report names the path of its family.

Seeded families depend on numpy's Philox stream, and real bounds on
mpmath, so the digests hold for the versions in PINNED only.
"""

import hashlib
import shlex

import mpmath
import numpy

from _cli import run, strip_wall_time, write_family

PINNED = "numpy 2.4.6, mpmath 1.3.0 (backend python)"
RUNNING = (f"numpy {numpy.__version__}, mpmath {mpmath.__version__} "
           f"(backend {mpmath.libmp.BACKEND})")

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
