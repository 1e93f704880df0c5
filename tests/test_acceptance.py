"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is
deferred to later calibration.
"""

import functools
import json
import math
from fractions import Fraction
from itertools import combinations

import pytest

from sunflowers import (
    ElementSet,
    SetFamily,
    brute_force_sunflower,
    check_satisfying_disjoint,
    crossover_report,
    erdos_rado_bound,
    exact_satisfying,
    falling_factorial_bound,
    find_spread_link,
    intersection_profile,
    is_kappa_spread,
    is_sunflower,
    l_intersecting_bound,
    l_intersecting_find,
    l_multinomial_bound,
    pigeonhole_limit,
    sample_satisfying,
    spread_kappa,
)
from sunflowers.encoding import audit_encoding_bound, audit_markov_step
from sunflowers.generators import (
    gen_all_k_subsets,
    gen_random_L_intersecting,
    gen_random_uniform,
    gen_sunflower,
    gen_transversal,
)

from _cli import run, strip_wall_time, write_family

TRIANGLE = SetFamily(3, [[0, 1], [1, 2], [0, 2]])


def criterion(num, summary):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} FAIL: {summary}")
                raise
            print(f"ACCEPTANCE {num:02d} PASS: {summary}" + (f" ({detail})" if detail else ""))

        return run

    return wrap


# ---------------------------------------------------------------------------
# 1. bound arithmetic
# ---------------------------------------------------------------------------

@criterion(1, "exact bound arithmetic and power-form dominance for n <= 8")
def test_criterion_01_bound_arithmetic():
    assert erdos_rado_bound(3, 3) == 48
    assert pigeonhole_limit(3, 3) == 7
    assert l_intersecting_bound(3, 1, 3) == 56
    assert l_multinomial_bound(2, [0], 3) == 6
    assert falling_factorial_bound(3, 1, 3) == 12
    checked = 0
    for n in range(1, 9):
        for bits in range(1, 1 << n):
            L = [i for i in range(n) if bits >> i & 1]
            for r in (3, 4, 5):
                assert l_multinomial_bound(n, L, r) <= l_intersecting_bound(n, len(L), r)
                checked += 1
    return f"{checked} (n, L, r) dominance checks"


# ---------------------------------------------------------------------------
# 2. Deza exhaustive check at n = 2
# ---------------------------------------------------------------------------

def _check_all_single_intersection_pair_families(x, t):
    """DFS over every {t}-intersecting family of 2-sets on x points; every
    family of size >= 4 must be a sunflower.  Returns (#families checked,
    #families of size >= 4)."""
    edges = [(1 << a) | (1 << b) for a, b in combinations(range(x), 2)]
    visited = 0
    large = 0

    def is_sunflower_masks(masks):
        core = masks[0]
        for m in masks[1:]:
            core &= m
        return all(a & b == core for a, b in combinations(masks, 2))

    def extend(start, chosen):
        nonlocal visited, large
        visited += 1
        if len(chosen) >= 4:
            large += 1
            assert is_sunflower_masks(chosen), [bin(c) for c in chosen]
        for i in range(start, len(edges)):
            e = edges[i]
            if all((e & c).bit_count() == t for c in chosen):
                chosen.append(e)
                extend(i + 1, chosen)
                chosen.pop()

    extend(0, [])
    return visited, large


@criterion(2, "every {t}-intersecting 2-uniform family of size >= 4 on x <= 8 is a sunflower")
def test_criterion_02_deza_exhaustive_n2():
    total_large = 0
    for t in (0, 1):
        visited, large = _check_all_single_intersection_pair_families(8, t)
        assert large > 0, "enumeration must actually reach size-4 families"
        total_large += large
    # sharpness at the threshold: the size-3 triangle is not a sunflower
    assert intersection_profile(TRIANGLE) == {1}
    assert is_sunflower(TRIANGLE.members) is None
    return f"{total_large} families of size >= 4 verified, triangle witnesses sharpness"


# ---------------------------------------------------------------------------
# 3. constructive finder vs oracle on 1000 seeded families
# ---------------------------------------------------------------------------

def _corpus_family(seed):
    kind = seed % 5
    if kind == 0:
        x = 6 + (seed // 5) % 7
        n = 2 + (seed // 7) % 2
        count = min(math.comb(x, n), 5 + (seed // 11) % 26)
        return gen_random_uniform(x, n, count, seed)
    if kind == 1:
        return gen_random_L_intersecting(12, 2, [0], 6, seed, 20_000)
    if kind == 2:
        # single-size families become maximal once a triangle forms; the
        # generator then proves it and stops well inside the budget
        return gen_random_L_intersecting(12, 2, [1], 4 + seed % 8, seed, 4_000)
    if kind == 3:
        return gen_random_L_intersecting(12, 2, [0, 1], 19 + seed % 12, seed, 50_000)
    return gen_random_L_intersecting(10, 3, [0, 1], 10 + seed % 21, seed, 50_000)


@criterion(3, "recursive finder vs exhaustive oracle on 1000 seeded families")
def test_criterion_03_finder_vs_oracle():
    above_bound = 0
    found = 0
    for seed in range(1000):
        fam = _corpus_family(seed)
        if len(fam) < 2:
            continue
        assert len(fam) <= 30
        L = sorted(intersection_profile(fam))
        bound = l_multinomial_bound(fam.uniformity, L, 3)
        flower, trace = l_intersecting_find(fam, L, 3)
        brute = brute_force_sunflower(fam, 3)
        if len(fam) > bound:
            above_bound += 1
            assert flower is not None, (seed, len(fam), bound)
            assert brute is not None, (seed, "oracle must agree above the bound")
        if flower is not None:
            found += 1
            member_masks = set(fam.masks)
            assert all(s.mask in member_masks for s in flower.petal_sets)
            assert is_sunflower(flower.petal_sets) == flower.core
            assert brute is not None, (seed, "definitive verdicts must agree")
    assert above_bound >= 100, "corpus must exercise the guarantee regime"
    return f"{above_bound} families above the bound, {found} sunflowers found, 0 failures"


# ---------------------------------------------------------------------------
# 4. encoding audit corpus
# ---------------------------------------------------------------------------

@criterion(4, "bad-pair encoding audits on 200 seeded families, exact rationals")
def test_criterion_04_encoding_audit():
    grid = [
        (x, n, d)
        for x in (4, 5, 6, 7, 8)
        for n in (1, 2, 3)
        for d in (0, 1, 2)
        if n <= x
    ]
    audits = 0
    families = 0
    seed = 0
    while families < 200:
        x, n, d = grid[seed % len(grid)]
        L = range(min(d, n - 1) + 1)
        fam = gen_random_L_intersecting(x, n, L, 3 + seed % 6, seed, 20_000)
        seed += 1
        if len(fam) == 0:
            continue
        families += 1
        for w_size in range(1, x // 2 + 1):
            audit = audit_encoding_bound(fam, w_size, d)
            assert audit.p <= Fraction(1, 2)
            assert audit.injective, (x, n, d, w_size, seed)
            assert audit.roundtrip_ok, (x, n, d, w_size, seed)
            assert audit.union_sizes_ok
            assert audit.bound_ok and audit.series_ok and audit.passed
            for delta in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
                markov = audit_markov_step(fam, w_size, delta, d)
                assert markov.holds, (x, n, d, w_size, str(delta), seed)
            audits += 1
    return f"{families} families, {audits} (family, |W|) audits, 0 violations"


# ---------------------------------------------------------------------------
# 5. satisfying-probability oracle agreement
# ---------------------------------------------------------------------------

def _sampling_fixtures():
    fx = []
    fx.append((SetFamily(8, [[0, 1]]), Fraction(7, 10)))
    fx.append((SetFamily(10, [[2, 4, 6]]), Fraction(7, 10)))
    fx.append((SetFamily(12, [[0, 3, 6, 9]]), Fraction(4, 5)))
    fx.append((SetFamily(8, [[e] for e in range(8)]), Fraction(1, 5)))
    fx.append((SetFamily(16, [[e] for e in range(16)]), Fraction(1, 10)))
    fx.append((gen_all_k_subsets(8, 2), Fraction(3, 10)))
    fx.append((gen_all_k_subsets(10, 2), Fraction(1, 4)))
    fx.append((gen_all_k_subsets(9, 3), Fraction(2, 5)))
    fx.append((SetFamily(8, [[2 * i, 2 * i + 1] for i in range(4)]), Fraction(1, 2)))
    fx.append((SetFamily(12, [[2 * i, 2 * i + 1] for i in range(6)]), Fraction(2, 5)))
    fx.append((gen_sunflower(2, 1, 5), Fraction(3, 5)))
    fx.append((gen_sunflower(1, 2, 4), Fraction(3, 5)))
    fx.append((gen_transversal(2, 3), Fraction(1, 2)))
    fx.append((gen_transversal(3, 2), Fraction(3, 5)))
    fx.append((TRIANGLE, Fraction(1, 2)))
    fx.append((gen_random_uniform(12, 3, 20, 101), Fraction(7, 20)))
    fx.append((gen_random_uniform(14, 4, 25, 102), Fraction(9, 20)))
    fx.append((gen_random_uniform(16, 3, 30, 103), Fraction(1, 4)))
    fx.append((gen_random_L_intersecting(12, 3, [0, 1], 15, 104, 50_000), Fraction(2, 5)))
    fx.append((gen_all_k_subsets(10, 4), Fraction(9, 20)))
    return fx


@criterion(5, "exact oracle matches closed forms; sampling within 4 sigma in >= 99% of 200 runs")
def test_criterion_05_satisfying_oracle():
    # closed forms, exact rational equality
    for n in (2, 3, 4):
        single = SetFamily(10, [list(range(n))])
        assert exact_satisfying(single, Fraction(7, 10)) == Fraction(7, 10) ** n
    for x in (8, 16):
        singles = SetFamily(x, [[e] for e in range(x)])
        a = Fraction(1, 5)
        assert exact_satisfying(singles, a) == 1 - (1 - a) ** x

    fixtures = _sampling_fixtures()
    assert len(fixtures) == 20
    failures = 0
    runs = 0
    for fam, alpha in fixtures:
        assert fam.ground_size <= 16
        truth = exact_satisfying(fam, alpha)
        assert Fraction(1, 50) < truth < Fraction(49, 50), "fixture keeps P moderate"
        for seed in range(10):
            est = sample_satisfying(fam, float(alpha), 100_000, seed=seed)
            runs += 1
            if abs(est.estimate - float(truth)) > 4 * est.stderr:
                failures += 1
    assert runs == 200
    assert failures <= 2, f"{failures} of {runs} runs outside 4 sigma"
    return f"{runs} runs, {failures} outside 4 sigma"


# ---------------------------------------------------------------------------
# 6. disjointness contrapositive
# ---------------------------------------------------------------------------

@criterion(6, "families without r disjoint members satisfy P <= 1 - 1/r at alpha = 1/r")
def test_criterion_06_disjointness_contrapositive():
    non_vacuous = 0
    for seed in range(500):
        r = 2 + seed % 2
        kind = seed % 4
        if kind == 0:
            fam = gen_sunflower(1, 1, 3 + seed % 6)
        elif kind == 1:
            x = 5 + seed % 5
            fam = gen_all_k_subsets(x, x // 2 + 1)
        elif kind == 2:
            fam = gen_random_L_intersecting(12, 2, [1], 3 + seed % 5, seed, 20_000)
            if len(fam) == 0:
                continue
        else:
            fam = gen_random_uniform(9 + seed % 4, 3, 10, seed)
        rep = check_satisfying_disjoint(fam, r)
        assert rep.method == "exact"
        assert rep.contrapositive_ok, (seed, r, rep.probability)
        if not rep.has_r_disjoint:
            non_vacuous += 1
            assert rep.probability <= rep.threshold
    assert non_vacuous >= 100
    return f"500 fixtures, {non_vacuous} without the disjoint witness, 0 violations"


# ---------------------------------------------------------------------------
# 7. spread consistency
# ---------------------------------------------------------------------------

@criterion(7, "transversal spreadness threshold is exact; spread links are maximal")
def test_criterion_07_spread_consistency():
    for b in (1, 2, 3):
        for q in (1, 2, 3):
            fam = gen_transversal(b, q)
            assert spread_kappa(fam) == pytest.approx(q, abs=1e-12)
            assert is_kappa_spread(fam, q)
            bumped = Fraction(q) * Fraction(10**6 + 1, 10**6)
            assert not is_kappa_spread(fam, bumped)

    spread_family = gen_all_k_subsets(6, 2)
    res = find_spread_link(spread_family, 2, 2)
    assert res.t_set.elements == () and res.residual_spread_ok

    checked = 0
    nonempty = 0
    for seed in range(20):
        fam = gen_random_L_intersecting(10, 3, [0, 1, 2], 12, seed, 30_000)
        if len(fam) < 2:
            continue
        for kappa in (Fraction(2), Fraction(3)):
            for d in (1, 2, 3):
                res = find_spread_link(fam, kappa, d)
                a, b_ = kappa.numerator, kappa.denominator
                size = len(fam)

                def count_supersets(t_elems):
                    tm = 0
                    for e in t_elems:
                        tm |= 1 << e
                    return sum(1 for m in fam.masks if tm & ~m == 0)

                best = 0
                for t_len in range(1, d + 1):
                    for t in combinations(range(10), t_len):
                        if count_supersets(t) * a**t_len >= size * b_**t_len:
                            best = max(best, t_len)
                assert len(res.t_set) == best, (seed, str(kappa), d)
                if best:
                    nonempty += 1
                checked += 1
    assert checked >= 60 and nonempty >= 10
    return f"{checked} exhaustive link-maximality checks ({nonempty} with nonempty T)"


# ---------------------------------------------------------------------------
# 8. sunflower-free lower-bound fixture
# ---------------------------------------------------------------------------

@criterion(8, "binary transversal families contain no 3-sunflower")
def test_criterion_08_sunflower_free_fixture():
    for blocks in (2, 3):
        fam = gen_transversal(blocks, 2)
        assert brute_force_sunflower(fam, 3) is None
    return "b = 2, 3 exhaustively verified"


# ---------------------------------------------------------------------------
# 9. crossover report at (100, 3, 1)
# ---------------------------------------------------------------------------

@criterion(9, "crossover report (n=100, r=3, C=1): certified rows, reproducible")
def test_criterion_09_crossover():
    rep1 = crossover_report(100, 3, 1)
    rep2 = crossover_report(100, 3, 1)
    assert len(rep1.rows) == 100
    for row in rep1.rows:
        assert row.smaller in ("d-intersecting", "falling-factorial")
        assert int(row.falling_factorial) == falling_factorial_bound(100, row.d, 3)
    assert rep1 == rep2
    as_json = lambda rep: json.dumps(
        [[r.d, r.d_intersecting, r.falling_factorial, r.smaller] for r in rep.rows]
    )
    assert as_json(rep1) == as_json(rep2)
    return f"first improvement at d = {rep1.first_improvement}"


# ---------------------------------------------------------------------------
# 10. reproducibility of seeded subcommands
# ---------------------------------------------------------------------------

@pytest.fixture
def cli_fixture_files(tmp_path):
    return (write_family(tmp_path, "seven.txt",
                         "x=14\n" + "".join(f"{2*i} {2*i+1}\n" for i in range(7))),
            write_family(tmp_path, "matching.txt", "x=6\n0 1\n2 3\n4 5\n"),
            write_family(tmp_path, "triangle.txt", "x=3\n0 1\n0 2\n1 2\n"))


def test_criterion_10_reproducibility(capsys, cli_fixture_files):
    @criterion(10, "seeded subcommands are byte-identical apart from wall time")
    def inner():
        seven, matching, triangle = cli_fixture_files
        corpus = [
            ["gen", "random-uniform", "12", "3", "9", "--seed", "4"],
            ["gen", "random-l", "10", "3", "--L", "0,1", "--count", "12", "--seed", "7"],
            ["gen", "transversal", "3", "2"],
            ["experiment", triangle, "--alpha-grid", "0.2:0.8:0.2",
             "--trials", "20000", "--seed", "2"],
            ["spread", matching, "--kappa", "2", "--alpha", "1/3",
             "--trials", "20000", "--seed", "5"],
            ["find", seven, "--r", "3"],
            ["check", seven, "--d", "0"],
            ["bounds", "--which", "all", "-n", "6", "-r", "3", "-s", "2", "-d", "2"],
            ["bounds", "--which", "crossover", "-n", "20", "-r", "3"],
            ["encode-audit", matching, "--px", "3", "--d", "1", "--delta", "1/2"],
        ]
        for argv in corpus:
            code1, out1, _ = run(capsys, *argv)
            code2, out2, _ = run(capsys, *argv)
            assert code1 == code2
            assert strip_wall_time(out1) == strip_wall_time(out2), argv
        return f"{len(corpus)} subcommands replayed"

    inner()
