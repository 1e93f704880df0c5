"""Command-line entry point.

Every subcommand emits a machine-readable report on stdout (JSON by
default; the text format is rendered from the same report dict, never
computed separately), with diagnostics on stderr.  Randomized subcommands
require an explicit --seed: there is no implicit entropy anywhere, so any
report rerun with identical inputs, parameters, and seeds is byte-
identical apart from the wall_time_s field.

Exit codes: 0 success/true, 1 definitive-false, 2 unknown/budget
exceeded, 3 usage or input errors (a ValueError, which every refusal
raises, or an OSError), 4 internal errors: any other exception.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from .families import (
    DEFAULT_SIZE_BUDGET,
    _BITS_LIMIT,
    ElementSet,
    FamilyError,
    SetFamily,
    Sunflower,
    _positive_fraction,
    intersection_profile,
    is_d_intersecting,
    is_L_intersecting,
)
from .finders import DEFAULT_BUDGET, STRATEGIES, find_any
from .formats import _family_object, dump_family_json, dump_family_text, load_family

# The package calls no BLAS routine, yet numpy's OpenBLAS starts a thread
# per core on import, about half of numpy's import time on a 2-core host.
# No module imports numpy at module level, so this is set before numpy
# loads in a CLI process; a value the user set is kept, and code that
# imports only the library keeps its own BLAS threads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3
EXIT_INTERNAL = 4


class _HelpFormatter(argparse.RawDescriptionHelpFormatter):
    """argparse's formatter, with the width read once per process, not per argument added."""
    width = None  # the terminal's columns - 2, as argparse computes it

    def __init__(self, prog):
        if _HelpFormatter.width is None:
            _HelpFormatter.width = shutil.get_terminal_size().columns - 2
        super().__init__(prog, width=_HelpFormatter.width)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(formatter_class=_HelpFormatter, **kwargs)

    def error(self, message):  # usage errors belong to the error band, not "unknown"
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def jsonable(obj):
    """Recursively convert report objects to JSON-native values."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, ElementSet):
        return list(obj.elements)
    if isinstance(obj, Sunflower):
        return {
            "core": list(obj.core.elements),
            "sets": [list(s.elements) for s in obj.petal_sets],
        }
    if isinstance(obj, SetFamily):
        return _family_object(obj)
    if hasattr(obj, "_fields"):  # a report record: its fields in declared order
        return {name: jsonable(v) for name, v in zip(obj._fields, obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _render_text(value, indent=""):
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{indent}{k}:")
                lines.extend(_render_text(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {_scalar(v)}".rstrip())
    elif isinstance(value, list):
        if value and all(isinstance(row, dict) for row in value):
            keys = list(value[0].keys())
            if all(list(row.keys()) == keys for row in value):
                table = [keys] + [[_scalar(row[k]) for k in keys] for row in value]
                widths = [max(len(str(r[i])) for r in table) for i in range(len(keys))]
                for row in table:
                    lines.append(
                        indent + "  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
                    )
                return lines
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{indent}-")
                lines.extend(_render_text(item, indent + "  "))
            else:
                lines.append(f"{indent}- {_scalar(item)}")
    return lines


def _scalar(v):
    """A leaf of the report as its JSON report has it; strings unquoted."""
    return v if isinstance(v, str) else json.dumps(v, sort_keys=True)


def _write(text: str) -> None:
    """Write to stdout.  A reader that has gone away is not an error: the
    rest of the output goes to the null device, so the subcommand still
    returns its own exit code and nothing is printed about the pipe."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(args, parameters: dict, outputs: dict, started: float, digest=None, seeds=None) -> None:
    """Write the report of the subcommand `args` ran: its envelope around
    `outputs`, as JSON or as text rendered from the same JSON."""
    payload = jsonable({
        "subcommand": args.subcommand,
        "input_digest": digest,
        "parameters": parameters,
        "seeds": seeds,
        "outputs": outputs,
        "wall_time_s": round(time.perf_counter() - started, 6),
    })
    if args.format == "json":
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _write("\n".join(_render_text(payload)) + "\n")


def _load(path: str) -> tuple[SetFamily, str]:
    """The family in `path` and the digest of the bytes it was parsed from.

    The file is read once, so a pipe or FIFO is digested and parsed from
    the same bytes.  They are decoded as `Path.read_text` decodes them:
    locale encoding, universal newlines.
    """
    data = Path(path).read_bytes()
    family = load_family(io.TextIOWrapper(io.BytesIO(data), encoding="locale").read())
    return family, "sha256:" + hashlib.sha256(data).hexdigest()


def _int_list(text: str) -> list[int]:
    """The one parser of integer-list flags: argparse names the flag."""
    try:
        return sorted({int(tok) for tok in text.replace(",", " ").split()})
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}") from None


def _rational(text: str) -> Fraction:
    """The one parser of rational flags: argparse names the flag."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational like 2, 1/3, or 0.25, got {text!r}") from None


def _alpha_grid(text: str) -> tuple[Fraction, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {text!r}")
    return tuple(map(_rational, parts))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    started = time.perf_counter()
    _require(args.uniform is None or args.uniform >= 0, "--uniform: uniformity must be >= 0")
    family, digest = _load(args.family)
    L = None if args.L is None else ",".join(map(str, args.L))  # echoed as it is used
    params = {"L": L, "d": args.d, "uniform": args.uniform}
    d_verdict = None if args.d is None else is_d_intersecting(family, args.d)  # refuses d < 0 first
    profile = intersection_profile(family)  # kept on the family: the verdicts read it again
    verdicts = {}
    if args.L is not None:
        verdicts["L_intersecting"] = is_L_intersecting(family, args.L)
    if args.d is not None:
        verdicts["d_intersecting"] = d_verdict
    if args.uniform is not None:
        verdicts["uniform"] = family.uniformity == args.uniform
    outputs = {
        "ground_size": family.ground_size,
        "members": len(family),
        "uniformity": family.uniformity,
        "intersection_profile": sorted(profile),
        "verdicts": verdicts,
    }
    _emit(args, params, outputs, started, digest=digest)
    return EXIT_TRUE if all(verdicts.values()) else EXIT_FALSE


def cmd_find(args) -> int:
    started = time.perf_counter()
    _require(args.budget is None or args.strategy != "recursive",
             "--strategy recursive does not read --budget")
    budget = DEFAULT_BUDGET if args.budget is None else args.budget  # echoed when not given
    family, digest = _load(args.family)
    outcome = find_any(family, args.r, strategy=args.strategy, budget=budget)
    params = {"r": args.r, "strategy": args.strategy, "budget": budget}
    outputs = {
        "status": outcome.status,
        "method": outcome.method,
        "note": outcome.note,
        "sunflower": outcome.sunflower,
        "trace": outcome.trace,
    }
    _emit(args, params, outputs, started, digest=digest)
    return {"found": EXIT_TRUE, "absent": EXIT_FALSE, "unknown": EXIT_UNKNOWN}[outcome.status]


# Each bound parameter: its flag, type, the default a report echoes when it is not
# given, and its help ({}: that default).  `bounds.PARAMETERS_READ` says which a bound reads.
_BOUND_FLAGS = {
    "n": ("-n", int, None, None),
    "r": ("-r", int, None, None),
    "s": ("-s", int, None, None),
    "L": ("--L", _int_list, None, "comma-separated intersection sizes"),
    "d": ("-d", int, None, None),
    "C": ("-C", _rational, bounds_mod.DEFAULT_C, "free constant (rational, default {})"),
    "digits": ("--digits", int, bounds_mod.DEFAULT_DIGITS, "significant digits (default {})"),
    "log_base": ("--log-base", lambda text: text if text == "e" else _rational(text),
                 bounds_mod.DEFAULT_LOG_BASE, "logarithm base: e or a rational like 2 (default {})"),
}


def cmd_bounds(args) -> int:
    started = time.perf_counter()
    given = {p: getattr(args, p) for p in _BOUND_FLAGS}
    if args.which != "all":
        reads = bounds_mod.PARAMETERS_READ[args.which]
        if "s" in reads and args.s is None:
            reads += ("L",)  # s is then the number of distinct sizes in --L
        unread = [_BOUND_FLAGS[p][0] for p, v in given.items() if v is not None and p not in reads]
        _require(not unread, f"--which {args.which} does not read {', '.join(unread)}")
    # the parameters echo the library's defaults for the flags not given
    common = {p: default if given[p] is None else given[p]
              for p, (_, _, default, _) in _BOUND_FLAGS.items()}
    params = {"which": args.which, **common}
    if args.which in bounds_mod.BOUND_NAMES:
        outputs = {"bound": bounds_mod.bound_report(args.which, **common)}
    else:
        _require(args.n is not None and args.r is not None, f"--which {args.which} needs -n and -r")
        outputs = {}
        if args.which == "all":
            outputs["bounds"] = []
            for name in bounds_mod.BOUND_NAMES:
                try:
                    outputs["bounds"].append(bounds_mod.bound_report(name, **common))
                except bounds_mod.MissingParameterError:
                    continue  # a parameter the bound reads was not given
        outputs["crossover"] = bounds_mod.crossover_report(
            args.n, args.r, common["C"], common["digits"], common["log_base"])
    _emit(args, params, outputs, started)
    return EXIT_TRUE


def cmd_spread(args) -> int:
    from . import spread as spread_mod

    started = time.perf_counter()
    if args.alpha is None and args.r is None:
        _require(args.trials is None and args.seed is None,
                 "--trials and --seed need --alpha or --r")
    _require(args.trials is not None or args.seed is None, "--seed needs --trials")
    _require(args.kappa is not None or args.d is None, "--d needs --kappa")
    family, digest = _load(args.family)
    exact = spread_mod.exact_fits(family)
    _require(args.alpha is not None or args.trials is None or not exact,
             f"--trials needs --alpha at ground size {family.ground_size}, "
             f"where --r is evaluated exactly")
    _require(args.alpha is None or args.trials is not None or exact,
             f"--alpha needs --trials at ground size {family.ground_size}, "
             f"where the satisfying probability is sampled")
    params = {"kappa": args.kappa, "d": args.d, "alpha": args.alpha,
              "trials": args.trials, "r": args.r}
    try:
        outputs: dict = {"spread_kappa": spread_mod.spread_kappa(family)}
    except FamilyError:  # empty or not uniform: the other reports still apply
        outputs = {"spread_kappa": None}
    seeds = {"seed": args.seed} if args.seed is not None else None
    verdict_ok = True
    if args.kappa is not None:
        verdict = spread_mod.is_kappa_spread(family, args.kappa)
        outputs["is_kappa_spread"] = verdict
        verdict_ok = verdict
        d = args.d if args.d is not None else family.uniformity
        outputs["spread_link"] = spread_mod.find_spread_link(family, args.kappa, d)
    if args.alpha is not None:
        if exact:
            outputs["exact_satisfying"] = spread_mod.exact_satisfying(family, args.alpha)
        if args.trials is not None:
            outputs["sampled_satisfying"] = spread_mod.sample_satisfying(
                family, args.alpha, args.trials, _seed(args, "sampling")
            )
    if args.r is not None:
        outputs["disjointness"] = spread_mod.check_satisfying_disjoint(
            family, args.r, trials=args.trials, seed=args.seed
        )
    _emit(args, params, outputs, started, digest=digest, seeds=seeds)
    return EXIT_TRUE if verdict_ok else EXIT_FALSE


def cmd_experiment(args) -> int:
    from . import spread as spread_mod

    family, _ = _load(args.family)
    seed = _seed(args, "sampling")
    lo, hi, step = args.alpha_grid
    _require(step > 0 and 0 < lo <= hi < 1, "need 0 < start <= stop < 1 and step > 0")
    count = (hi - lo) // step + 1
    _require(count <= DEFAULT_SIZE_BUDGET,
             f"--alpha-grid: {count} rows exceed budget {DEFAULT_SIZE_BUDGET}")
    bits = args.trials * family.ground_size  # a row over the limit is refused by the row
    _require(bits > _BITS_LIMIT or count * bits <= _BITS_LIMIT,
             f"--alpha-grid: {count} rows of {args.trials} trials over {family.ground_size} "
             f"elements exceed {_BITS_LIMIT} sampled bits")
    rows = []  # all made before the header is written, so a refusal writes nothing
    for i in range(count):
        alpha = lo + i * step
        est = spread_mod.sample_satisfying(family, alpha, args.trials, seed + i)
        exact = spread_mod.exact_satisfying(family, alpha) if spread_mod.exact_fits(family) else ""
        rows.append(f"{est.alpha!r},{est.estimate!r},{est.stderr!r},{exact}\n")
    _write("alpha,estimate,stderr,exact\n" + "".join(rows))
    return EXIT_TRUE


def cmd_encode_audit(args) -> int:
    from . import encoding as encoding_mod

    started = time.perf_counter()
    family, digest = _load(args.family)
    params = {"px": args.px, "d": args.d, "delta": args.delta}
    delta = None if args.delta is None else _positive_fraction(args.delta, "delta")  # before the pass
    audit = encoding_mod.audit_encoding_bound(family, args.px, args.d)
    outputs: dict = {"encoding": audit}
    ok = audit.passed
    if delta is not None:
        markov = encoding_mod.audit_markov_step(family, args.px, delta, args.d)
        outputs["markov"] = markov
        ok = ok and markov.holds
    _emit(args, params, outputs, started, digest=digest)
    return EXIT_TRUE if ok else EXIT_FALSE


def cmd_gen(args) -> int:
    from . import generators as gen_mod

    family = args.make(gen_mod, args)  # each kind's parser carries its call
    _write(dump_family_json(family) if args.format == "json" else dump_family_text(family))
    return EXIT_TRUE


def _seed(args, use: str = "random generation") -> int:
    _require(args.seed is not None, f"{use} requires an explicit --seed")
    return args.seed


def _gen_random_l(gen_mod, args) -> SetFamily:
    stops: list[str] = []
    family = gen_mod.gen_random_L_intersecting(
        args.x, args.n, args.L, args.count, _seed(args), args.budget,
        on_stop=stops.append)
    print(f"note: reached {len(family)} of {args.count} sets; stopped: {stops[0]}",
          file=sys.stderr)
    return family


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_format(p, default):
    p.add_argument("--format", choices=("json", "text"), default=default,
                   help="report rendering (text is rendered from the same JSON)")


def _check_options(p):
    p.add_argument("--L", type=_int_list, help="comma-separated allowed intersection sizes")
    p.add_argument("--d", type=int, help="check intersections of size at most d")
    p.add_argument("--uniform", type=int, help="check n-uniformity")


def _find_options(p):
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default=STRATEGIES[0])
    p.add_argument("--budget", type=int,
                   help="cap on C(|F|, r), the most r-subsets the exact search "
                        f"(method \"brute-force\") can examine, default {DEFAULT_BUDGET}; above it "
                        "the status is unknown (not read by --strategy recursive)")


def _bounds_options(p):
    p.add_argument("--which", required=True,
                   choices=bounds_mod.BOUND_NAMES + ("crossover", "all"))
    for flag, parse, default, help_text in _BOUND_FLAGS.values():
        p.add_argument(flag, type=parse, help=help_text and help_text.format(default))


def _spread_options(p):
    p.add_argument("--kappa", type=_rational, help="exact rational spread parameter")
    p.add_argument("--d", type=int, help="max link set size for the spread link search")
    p.add_argument("--alpha", type=_rational, help="density for satisfying probability")
    p.add_argument("--trials", type=int, help="Monte Carlo trials (needs --seed)")
    p.add_argument("--seed", type=int)
    p.add_argument("--r", type=int, help="run the r-disjointness consistency report")


def _experiment_options(p):
    p.add_argument("--alpha-grid", required=True, type=_alpha_grid,
                   help="start:stop:step, e.g. 0.1:0.9:0.1")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int)


def _encode_audit_options(p):
    p.add_argument("--px", type=int, required=True, help="|W|, the exact size of the W sets")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", type=_rational,
                   help="also audit the Markov tail at this rational delta")


def _random_l_options(g):
    from . import generators as gen_mod

    g.add_argument("--L", type=_int_list, required=True)
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--seed", type=int)
    g.add_argument("--budget", type=int, default=gen_mod.DEFAULT_DRAW_BUDGET,
                   help="most draws (default %(default)s)")


_GEN = "gen"

# Each subcommand: its help, positional arguments, the function that adds its options
# after them, its --format default (None: no --format) and command (`gen`'s kinds run).
_SUBCOMMANDS = {
    "check": ("family predicates: uniformity, intersection profile", ("family",),
              _check_options, "json", cmd_check),
    "find": ("search for an r-sunflower", ("family",), _find_options, "json", cmd_find),
    "bounds": ("evaluate named sunflower bounds", (), _bounds_options, "json", cmd_bounds),
    "spread": ("spreadness and satisfying probability", ("family",),
               _spread_options, "json", cmd_spread),
    "experiment": ("alpha-grid satisfying sweep (CSV)", ("family",),
                   _experiment_options, None, cmd_experiment),
    "encode-audit": ("bad-pair encoding and Markov audits", ("family",),
                     _encode_audit_options, "json", cmd_encode_audit),
    _GEN: ("generate fixture families", (), None, None, None),
}

# Each `gen` kind: its integer arguments, the function that adds its options
# after them (or None), and its call, given `generators` and the arguments.
_KINDS = {
    "sunflower": (("core", "petal", "r"), None,
                  lambda gen_mod, a: gen_mod.gen_sunflower(a.core, a.petal, a.r)),
    "transversal": (("blocks", "block_size"), None,
                    lambda gen_mod, a: gen_mod.gen_transversal(a.blocks, a.block_size)),
    "all-subsets": (("x", "k"), None, lambda gen_mod, a: gen_mod.gen_all_k_subsets(a.x, a.k)),
    "random-uniform": (("x", "n", "count"), lambda g: g.add_argument("--seed", type=int),
                       lambda gen_mod, a: gen_mod.gen_random_uniform(a.x, a.n, a.count, _seed(a))),
    "random-l": (("x", "n"), _random_l_options, _gen_random_l),
}


def build_parser(argv=None) -> _Parser:
    """The parser of the command line `argv`; every parser when it is None.

    argparse runs only the subcommand and the `gen` kind named exactly, so
    a line that names another subcommand builds no kind, and one that
    names a kind builds only the top level, `gen` and that kind.  A parser
    left out is registered by name only (None in `choices`): the usage of
    the parser above it, all of its text such a line can print, reads only
    the names.
    """
    command, kind = [*(argv or ()), None, None][:2]
    command = command if command in _SUBCOMMANDS else None
    kind = kind if command == _GEN and kind in _KINDS else None
    parser = _Parser(prog="sunflowers", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, positionals, add_options, report_format, run) in _SUBCOMMANDS.items():
        if kind is not None and name != _GEN:
            sub.choices[name] = None
            continue
        p = sub.add_parser(name, help=help_text)
        for arg in positionals:
            p.add_argument(arg)
        if add_options is not None:
            add_options(p)
        if report_format is not None:
            _add_format(p, report_format)
        if run is not None:
            p.set_defaults(func=run)
    kinds = sub.choices[_GEN].add_subparsers(dest="kind", required=True)
    for name, (ints, add_options, make) in _KINDS.items():
        if command not in (None, _GEN) or kind not in (None, name):
            kinds.choices[name] = None
            continue
        g = kinds.add_parser(name)
        for arg in ints:
            g.add_argument(arg, type=int)
        if add_options is not None:
            add_options(g)
        _add_format(g, "text")
        g.set_defaults(func=cmd_gen, make=make)
    return parser


def main(argv=None) -> int:
    # No reference to the parser outlives parsing: its reference cycles are
    # then collected young instead of piling up in the oldest generation.
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # the whole input band: refusals and unreadable files
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a defect, an ArithmeticError included
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
