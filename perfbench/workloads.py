"""The four workloads: seeded job lists and the fixtures they read.

`plan(name, seed, fixture_dir)` is pure: it returns one pass of jobs and
the fixtures to write, and the same seed always gives the same plan.  The
program under test sees only the generated argv and fixture files.

Job costs within a workload are spread over a continuum (budgets, trial
counts and family sizes follow a fixed low-discrepancy sequence, not the
seed), so that the seed changes what is computed but not the cost mix, and
the median and 90th-percentile latencies do not sit on a gap between
clusters of job costs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from itertools import product

from jobs import Job

WORKLOADS = ("corpus", "exact", "sampling", "cli-cold")
COLD = {"cli-cold"}

OK = frozenset({0})
TRUE_OR_FALSE = frozenset({0, 1})  # found/absent, or a predicate's verdict

GOLDEN = 0.6180339887498949


def spread_over(i: int, lo: int, hi: int) -> int:
    """The i-th point of a golden-ratio sequence on [lo, hi]: evenly
    covering the range for any prefix, and the same for every seed."""
    return lo + round((hi - lo) * ((i + 1) * GOLDEN % 1.0))


@dataclass
class Plan:
    jobs: list  # one pass, in order
    setup_jobs: list = field(default_factory=list)  # CLI calls that write fixtures
    files: dict = field(default_factory=dict)  # fixtures the benchmark writes itself
    warmup: list = field(default_factory=list)  # untimed calls before the first timed job


def plan(name: str, seed: int, fixture_dir: str) -> Plan:
    rng = random.Random(f"{name}:{seed}")
    return {"corpus": _corpus, "exact": _exact, "sampling": _sampling,
            "cli-cold": _cli_cold}[name](rng, fixture_dir)


def _key(i: int, argv, fixture_dir: str) -> str:
    return f"{i:03d} " + " ".join(argv).replace(fixture_dir + "/", "")


def _numbered(jobs, fixture_dir):
    return [replace(j, key=_key(i, j.argv, fixture_dir)) for i, j in enumerate(jobs)]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _family_text(x: int, sets) -> str:
    return f"x={x}\n" + "".join(" ".join(map(str, sorted(s))) + "\n" for s in sorted(sets, key=sorted))


def _gen_l(path, x, n, L, count, seed, budget):
    argv = ("gen", "random-l", str(x), str(n), "--L", _csv(L), "--count", str(count),
            "--seed", str(seed), "--budget", str(budget))
    return Job("", argv, OK, "gen-l", {"x": x, "n": n, "L": list(L), "count": count}, path)


def _gen_uniform(path, x, n, count, seed):
    argv = ("gen", "random-uniform", str(x), str(n), str(count), "--seed", str(seed))
    return Job("", argv, OK, "gen-uniform", {"x": x, "n": n, "count": count}, path)


def _find(path, r, expect=None, extra=(), oracle=False):
    exits = {"found": OK, "absent": frozenset({1}), "unknown": frozenset({2})}.get(expect, TRUE_OR_FALSE)
    return Job("", ("find", path, "--r", str(r)) + tuple(extra), exits, "find",
               {"family": path, "r": r, "expect": expect, "oracle": oracle})


# ---------------------------------------------------------------------------
# corpus: gen -> check -> find per spec; generator-bound
# ---------------------------------------------------------------------------

# Regimes from acceptance criteria 03/04.  "sat" specs ask for more sets
# than the greedy generator can place, so it burns its whole draw budget;
# "reach" specs hit their target within a few draws; "uniform" bypasses the
# greedy generator.
CORPUS_CYCLE = ("sat-12-2-01", "reach-30-3", "sat-10-3-01", "uniform", "sat-12-2-1",
                "reach-40-4", "sat-12-2-01", "uniform", "sat-10-3-01", "reach-30-3")
CORPUS_SPECS = 100


def _corpus(rng, fd):
    jobs = []
    used = {regime: 0 for regime in CORPUS_CYCLE}
    for i in range(CORPUS_SPECS):
        regime = CORPUS_CYCLE[i % len(CORPUS_CYCLE)]
        j = used[regime]
        used[regime] += 1
        path = f"{fd}/c{i:03d}.txt"
        gseed = rng.randrange(1_000_000)
        if regime == "sat-12-2-01":  # all 66 pairs fit; asking for more saturates
            gen = _gen_l(path, 12, 2, (0, 1), rng.randint(67, 72), gseed, spread_over(j, 4000, 50000))
        elif regime == "sat-10-3-01":
            gen = _gen_l(path, 10, 3, (0, 1), rng.randint(20, 30), gseed, spread_over(j, 4000, 50000))
        elif regime == "sat-12-2-1":  # stars reach their count, triangles stall
            gen = _gen_l(path, 12, 2, (1,), rng.randint(4, 11), gseed, 4000)
        elif regime.startswith("reach"):
            x, n = (30, 3) if regime == "reach-30-3" else (40, 4)
            gen = _gen_l(path, x, n, (0, 1), rng.randint(20, 40), gseed, 50000)
        else:
            x, n = rng.randint(10, 20), rng.randint(2, 4)
            gen = _gen_uniform(path, x, n, min(math.comb(x, n), rng.randint(15, 40)), gseed)
        L = gen.params.get("L", list(range(gen.params["n"])))
        jobs += [gen,
                 Job("", ("check", path, "--L", _csv(L)), OK, "check", {"family": path, "L": L}),
                 _find(path, 3, oracle=True)]
    jobs = _numbered(jobs, fd)
    return Plan(jobs=jobs, warmup=jobs[:3])


# ---------------------------------------------------------------------------
# exact: exhaustive search and encoding audits on fixtures written at setup
# ---------------------------------------------------------------------------

EXACT_ROUNDS = 10


def _transversal(rng, blocks, size):
    """All transversals of `blocks` disjoint blocks of `size`, relabelled by
    a seeded permutation of the ground set: sunflower-free for r = size+1."""
    x = blocks * size
    perm = list(range(x))
    rng.shuffle(perm)
    ranges = [range(b * size, (b + 1) * size) for b in range(blocks)]
    return x, [{perm[e] for e in choice} for choice in product(*ranges)]


def _exact(rng, fd):
    files, setup, jobs = {}, [], []
    for i in range(EXACT_ROUNDS):
        # three full C(64, 3) scans and one C(27, 4) scan, all ending absent
        for t in range(3):
            path = f"{fd}/t6-{i:02d}-{t}.txt"
            files[path] = _family_text(*_transversal(rng, 6, 2))
            jobs.append(_find(path, 3, "absent"))
        path = f"{fd}/t3-{i:02d}.txt"
        files[path] = _family_text(*_transversal(rng, 3, 3))
        jobs.append(_find(path, 4, "absent"))
        # more than 48 = 3! 2^3 sets of size 3: a sunflower exists, brute force finds it
        path = f"{fd}/b-{i:02d}.txt"
        setup.append(_gen_uniform(path, 14, 3, spread_over(i, 49, 60), rng.randrange(1_000_000)))
        jobs.append(_find(path, 3, "found", ("--strategy", "brute")))
        # above the multinomial bound 18 for (n=2, L={0,1}, r=3): the recursive extractor succeeds
        path = f"{fd}/m-{i:02d}.txt"
        setup.append(_gen_l(path, rng.randint(12, 16), 2, (0, 1), spread_over(i, 19, 30),
                            rng.randrange(1_000_000), 20000))
        jobs.append(_find(path, 3, "found"))
        # encoding and Markov audits on 1-intersecting 3-uniform fixtures
        for e in range(4):
            k = 4 * i + e
            x = 12 + k % 2
            path = f"{fd}/e-{i:02d}-{e}.txt"
            setup.append(_gen_l(path, x, 3, (0, 1), spread_over(k, 10, 15),
                                rng.randrange(1_000_000), 20000))
            jobs.append(Job("", ("encode-audit", path, "--px", "4", "--d", "1", "--delta", "1/2"),
                            OK, "encode", {"family": path, "w": 4}))
    # one search whose budget is too small: unknown, never absent
    path = f"{fd}/t4.txt"
    files[path] = _family_text(*_transversal(rng, 4, 3))
    jobs.insert(len(jobs) // 2, _find(path, 4, "unknown", ("--budget", "1000")))
    jobs = _numbered(jobs, fd)
    return Plan(jobs=jobs, setup_jobs=_numbered(setup, fd), files=files,
                warmup=[jobs[0], jobs[4], jobs[6]])


# ---------------------------------------------------------------------------
# sampling: Monte Carlo, exact lattice, link counts, crossover
# ---------------------------------------------------------------------------

SAMPLING_ROUNDS = 10
ALPHAS = ("1/3", "2/5", "1/2")


def _sampling(rng, fd):
    setup, jobs = [], []

    def fixture(tag, x, n, count):
        path = f"{fd}/{tag}.txt"
        setup.append(_gen_uniform(path, x, n, count, rng.randrange(1_000_000)))
        return path

    def mc(path, alpha, trials):
        argv = ("spread", path, "--alpha", alpha, "--trials", str(trials),
                "--seed", str(rng.randrange(1_000_000)))
        return Job("", argv, OK, "spread-mc", {"family": path, "alpha": alpha, "trials": trials})

    for i in range(SAMPLING_ROUNDS):
        a = ALPHAS[i % len(ALPHAS)]
        f16 = fixture(f"n16-{i}", 16, 3, spread_over(i, 30, 50))
        f20 = fixture(f"n20-{i}", 20, 3, spread_over(i, 40, 60))
        f40 = fixture(f"n40-{i}", 40, 3, spread_over(i, 80, 120))
        wide = [fixture(f"w100-{i}-{k}", 100, 4, spread_over(2 * i + k, 150, 200)) for k in range(2)]
        jobs += [
            mc(f16, a, spread_over(i, 15000, 30000)),
            mc(f20, a, spread_over(i, 8000, 15000)),
            Job("", ("spread", f20, "--alpha", a), OK, "spread-exact", {"family": f20, "alpha": a}),
            mc(f40, "1/2", spread_over(i, 10000, 20000)),
            mc(wide[0], "1/2", spread_over(2 * i, 2000, 4000)),
            Job("", ("spread", f40, "--kappa", "2", "--d", "2"), TRUE_OR_FALSE, "spread-kappa",
                {"family": f40, "kappa": "2", "d": 2}),
            mc(wide[1], "1/2", spread_over(2 * i + 1, 2000, 4000)),
            Job("", ("spread", f16, "--r", "3"), OK, "spread-disjoint", {"family": f16, "r": 3}),
            # above x=24 a sweep has no exact column, which keeps the number of
            # 4-standard-error tests (each failing by chance with p ~ 6e-5) small
            Job("", ("experiment", f40, "--alpha-grid", "0.1:0.3:0.05", "--trials", "5000",
                     "--seed", str(rng.randrange(1_000_000))), OK, "experiment",
                {"family": f40, "rows": 5}),
            Job("", ("bounds", "--which", "crossover", "-n", str(200 if i % 2 else 400), "-r", "3"),
                OK, "crossover", {"n": 200 if i % 2 else 400, "r": 3}),
        ]
    jobs = _numbered(jobs, fd)
    return Plan(jobs=jobs, setup_jobs=_numbered(setup, fd), warmup=jobs[:2])


# ---------------------------------------------------------------------------
# cli-cold: a fresh interpreter per call, as in a shell loop
# ---------------------------------------------------------------------------

COLD_VARIANTS = 3


def _cli_cold(rng, fd):
    setup, jobs = [], []
    for v in range(COLD_VARIANTS):
        fam = f"{fd}/u-{v}.txt"
        setup.append(_gen_uniform(fam, 12, 3, 20, rng.randrange(1_000_000)))
        tiny = f"{fd}/tiny-{v}.txt"
        setup.append(_gen_uniform(tiny, 8, 2, 10, rng.randrange(1_000_000)))
        n, r = rng.randint(3, 8), rng.randint(3, 5)
        c, p, rr = rng.randint(0, 3), rng.randint(1, 3), rng.randint(3, 6)
        b, s = rng.randint(2, 4), rng.randint(2, 3)
        gseed = rng.randrange(1_000_000)
        jobs += [
            Job("", ("check", fam, "--L", "0,1,2"), OK, "check", {"family": fam, "L": [0, 1, 2]}),
            Job("", ("bounds", "--which", "erdos-rado", "-n", str(n), "-r", str(r)), OK,
                "bounds-exact", {"which": "erdos-rado", "n": n, "r": r}),
            Job("", ("bounds", "--which", "pigeonhole-limit", "-n", str(n), "-r", str(r)), OK,
                "bounds-exact", {"which": "pigeonhole-limit", "n": n, "r": r}),
            Job("", ("bounds", "--which", "crossover", "-n", "20", "-r", "3"), OK, "crossover",
                {"n": 20, "r": 3}),
            Job("", ("gen", "sunflower", str(c), str(p), str(rr)), OK, "gen-sunflower",
                {"core": c, "petal": p, "r": rr}),
            Job("", ("gen", "transversal", str(b), str(s)), OK, "gen-transversal",
                {"blocks": b, "size": s}),
            Job("", ("gen", "random-uniform", "30", "3", "60", "--seed", str(gseed)), OK,
                "gen-uniform", {"x": 30, "n": 3, "count": 60}),
            _find(tiny, 3, oracle=True),
        ]
    jobs = _numbered(jobs, fd)
    return Plan(jobs=jobs, setup_jobs=_numbered(setup, fd), warmup=jobs[:1])
