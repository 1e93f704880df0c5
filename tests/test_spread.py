import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

import sunflowers

from sunflowers import (
    ElementSet,
    FamilyError,
    SetFamily,
    check_satisfying_disjoint,
    exact_satisfying,
    find_spread_link,
    is_kappa_spread,
    sample_satisfying,
    spread_kappa,
)
from sunflowers.generators import (
    gen_all_k_subsets,
    gen_random_L_intersecting,
    gen_random_uniform,
    gen_sunflower,
    gen_transversal,
)

from _oracles import (
    link_count_by_scan,
    satisfying_by_subset_loop,
    satisfying_successes_by_replay,
)

TRIANGLE = SetFamily(3, [[0, 1], [1, 2], [0, 2]])


# -- kappa spreadness ----------------------------------------------------------

def test_all_pairs_of_six_spread_threshold():
    fam = gen_all_k_subsets(6, 2)  # 15 members, singleton links hit 5
    assert is_kappa_spread(fam, 3)
    assert is_kappa_spread(fam, 2)
    assert is_kappa_spread(fam, Fraction(5, 2))
    assert not is_kappa_spread(fam, Fraction(301, 100))
    assert not is_kappa_spread(fam, 4)


def test_single_set_family_spread_at_one():
    fam = SetFamily(4, [[0, 1, 2]])
    assert is_kappa_spread(fam, 1)
    assert not is_kappa_spread(fam, 2)  # 2^3 > 1 member


def test_kappa_exceeding_size_clause():
    fam = gen_all_k_subsets(5, 2)  # 10 members
    assert not is_kappa_spread(fam, 4)  # 4^2 = 16 > 10


def test_kappa_rejects_floats():
    with pytest.raises(TypeError):
        is_kappa_spread(gen_all_k_subsets(4, 2), 1.5)


@given(st.integers(min_value=1, max_value=60))
def test_kappa_spread_antitone(numer):
    fam = gen_all_k_subsets(6, 2)
    kappa = Fraction(numer, 10)
    if is_kappa_spread(fam, kappa) and kappa > Fraction(1, 10):
        assert is_kappa_spread(fam, kappa - Fraction(1, 10))


def test_spread_kappa_all_pairs():
    assert spread_kappa(gen_all_k_subsets(6, 2)) == pytest.approx(3.0, abs=1e-12)


def test_spread_kappa_sunflower_core_forces_one():
    fam = gen_sunflower(2, 1, 5)  # core in every member: |F_T| = |F| at T = core
    assert spread_kappa(fam) <= 1.0 + 1e-12


def test_spread_kappa_transversal_closed_form():
    for b in (2, 3):
        for q in (2, 3):
            fam = gen_transversal(b, q)
            got = spread_kappa(fam)
            assert got == pytest.approx(q, abs=1e-12)
            # independent enumeration of every candidate T
            size = len(fam)
            sets = [s.elements for s in fam.members]
            best = size ** (1 / b)
            for t_len in range(1, b + 1):
                for t in combinations(range(fam.ground_size), t_len):
                    cnt = link_count_by_scan(sets, t)
                    if cnt:
                        best = min(best, (size / cnt) ** (1 / t_len))
            assert got == pytest.approx(best, abs=1e-12)


def test_spread_kappa_equals_minimum_over_every_link():
    # one power per size |T| must give the float of the minimum over every T
    for x, n, m in ((8, 2, 12), (12, 3, 40), (40, 3, 100), (100, 4, 180), (9, 5, 60)):
        for seed in range(4):
            fam = gen_random_uniform(x, n, m, seed=seed)
            links = Counter(t for s in fam.members for k in range(1, n + 1)
                            for t in combinations(s.elements, k))
            size = len(fam)
            reference = min([size ** (1.0 / n)]
                            + [(size / c) ** (1.0 / len(t)) for t, c in links.items()])
            assert spread_kappa(fam) == reference, (x, n, m, seed)


def test_spread_kappa_consistent_with_predicate():
    for fam in (gen_all_k_subsets(6, 2), gen_transversal(3, 2), gen_all_k_subsets(7, 3)):
        star = spread_kappa(fam)
        below = Fraction(math.floor(star * (1 - 1e-9) * 10**9), 10**9)
        above = Fraction(math.ceil(star * (1 + 1e-9) * 10**9), 10**9)
        assert is_kappa_spread(fam, below)
        assert not is_kappa_spread(fam, above)


def test_spread_kappa_empty_errors():
    with pytest.raises(FamilyError):
        spread_kappa(SetFamily(4, []))


# -- spread link --------------------------------------------------------------------

def test_spread_link_empty_when_already_spread():
    fam = gen_all_k_subsets(6, 2)  # spreadness threshold 3
    res = find_spread_link(fam, 2, 2)
    assert res.t_set.elements == ()
    assert res.link_family == fam
    assert res.residual_spread_ok


def test_spread_link_finds_sunflower_core():
    fam = gen_sunflower(2, 1, 4)
    res = find_spread_link(fam, 1, 3)
    assert set(res.t_set.elements) >= {0, 1}  # contains the core
    assert len(res.link_family) == len(fam)


def test_spread_link_maximality_by_exhaustive_scan():
    for seed in range(12):
        fam = gen_random_L_intersecting(10, 3, [0, 1, 2], 14, seed=seed)
        if len(fam) < 2:
            continue
        kappa = Fraction(3)
        d = 2
        res = find_spread_link(fam, kappa, d)
        size = len(fam)
        sets = [s.elements for s in fam.members]
        a, b = kappa.numerator, kappa.denominator

        def qualifies(t):
            cnt = link_count_by_scan(sets, t)
            return cnt * a ** len(t) >= size * b ** len(t)

        best = 0
        for t_len in range(1, d + 1):
            for t in combinations(range(fam.ground_size), t_len):
                if qualifies(t):
                    best = max(best, t_len)
        assert len(res.t_set) == best
        if len(res.t_set) > 0:
            assert qualifies(res.t_set.elements)


def test_spread_link_reports_clauses():
    fam = gen_transversal(2, 3)  # 9 members, 3-spread
    res = find_spread_link(fam, 3, 1)
    # equality |F_T| = |F|/3 qualifies at every singleton, so T is nonempty
    assert len(res.t_set) == 1
    assert res.size_clause_ok  # link has 3 members >= 3^(2-1)


def test_a_spread_link_that_is_not_maximal_is_an_internal_error(monkeypatch, tmp_path, capsys):
    # the star's best T is {0}; a link that returns the whole family still holds it at |T| = 1
    from sunflowers import spread
    from sunflowers.cli import main
    from sunflowers.families import InvariantError

    monkeypatch.setattr(spread, "link", lambda family, t: family)
    star = SetFamily(4, [[0, 1], [0, 2], [0, 3]])
    with pytest.raises(InvariantError, match="spread link is not maximal"):
        find_spread_link(star, 1, 2)
    path = tmp_path / "star.txt"
    path.write_text("x=4\n0 1\n0 2\n0 3\n")
    assert main(["spread", str(path), "--kappa", "1", "--d", "2"]) == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "internal error: InvariantError('spread link is not maximal')\n")


# -- satisfying probability -----------------------------------------------------------

def test_exact_single_set_closed_form():
    for n in (1, 2, 3):
        fam = SetFamily(6, [list(range(n))])
        for alpha in (Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)):
            assert exact_satisfying(fam, alpha) == alpha**n


def test_exact_singletons_closed_form():
    for x in (1, 3, 6):
        fam = SetFamily(x, [[e] for e in range(x)])
        for alpha in (Fraction(1, 4), Fraction(2, 3)):
            assert exact_satisfying(fam, alpha) == 1 - (1 - alpha) ** x


def test_exact_two_singletons_inclusion_exclusion():
    fam = SetFamily(2, [[0], [1]])
    a = Fraction(1, 3)
    assert exact_satisfying(fam, a) == 2 * a - a**2


def test_exact_triangle_half():
    assert exact_satisfying(TRIANGLE, Fraction(1, 2)) == Fraction(1, 2)


def test_exact_matches_subset_loop_oracle():
    for seed in range(6):
        fam = gen_random_uniform(7, 3, 9, seed=seed)
        sets = [s.elements for s in fam.members]
        for alpha in (Fraction(1, 3), Fraction(4, 7)):
            assert exact_satisfying(fam, alpha) == satisfying_by_subset_loop(7, sets, alpha)


def test_exact_edge_cases():
    assert exact_satisfying(SetFamily(4, []), Fraction(1, 2)) == 0
    assert exact_satisfying(SetFamily(4, [[]]), Fraction(1, 2)) == 1
    with pytest.raises(ValueError):
        exact_satisfying(SetFamily(30, [[0]]), Fraction(1, 2))
    with pytest.raises(TypeError):
        exact_satisfying(TRIANGLE, 0.5)


@st.composite
def small_families(draw, max_x):
    """(x, sets) with 0 <= x <= max_x and at most 12 distinct members of
    mixed sizes; the empty set may be a member."""
    x = draw(st.integers(0, max_x))
    members = st.frozensets(st.integers(0, x - 1), max_size=min(x, 6)) if x else st.just(frozenset())
    return x, [sorted(s) for s in draw(st.sets(members, max_size=12))]


@given(small_families(12), st.fractions(min_value=0, max_value=1, max_denominator=12))
@example((0, []), Fraction(1, 2))
@example((0, [[]]), Fraction(1, 3))
@example((7, [[]]), Fraction(1, 3))
@example((6, [[0, 5], [1, 2, 3]]), Fraction(2, 5))
@example((12, [[0], [5, 6], [6, 7, 11], [1, 2, 3, 4, 8]]), Fraction(3, 4))
def test_exact_matches_subset_loop_oracle_across_word_boundary(case, alpha):
    # x crosses 6, where the lattice grows from one partial word to many
    x, sets = case
    assert exact_satisfying(SetFamily(x, sets), alpha) == satisfying_by_subset_loop(x, sets, alpha)


EXACT_AT_24_RSS = """
import resource
from fractions import Fraction
from sunflowers import SetFamily, exact_satisfying
fam = SetFamily(24, [[0, 7, 23], [1, 2], [3, 9, 12, 20], [5], [6, 10, 11, 17]])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
value = exact_satisfying(fam, Fraction(1, 3))
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(value, after - before)
"""


def test_exact_lattice_memory_at_ground_24():
    # the lattice is a bit array, 2 MiB at x = 24; a byte per subset would be 16 MiB
    src = os.path.dirname(os.path.dirname(sunflowers.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", EXACT_AT_24_RSS],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    value, grown_kib = proc.stdout.split()
    a = Fraction(1, 3)
    miss = (1 - a**3) * (1 - a**2) * (1 - a**4) * (1 - a) * (1 - a**4)  # disjoint members
    assert Fraction(value) == 1 - miss
    assert int(grown_kib) < 32 * 1024


def test_first_exact_sum_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on first use, about 10 ms in a cold process
    src = os.path.dirname(os.path.dirname(sunflowers.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys\nfrom sunflowers import SetFamily, exact_satisfying\n"
            "print(exact_satisfying(SetFamily(8, [[0, 1], [1, 7], [2, 3, 4]]), '1/2'))\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        str(satisfying_by_subset_loop(8, [[0, 1], [1, 7], [2, 3, 4]], Fraction(1, 2))), "False"]


def test_exact_memory_at_ground_24_within_three_and_a_quarter_lattices():
    # the lattice, its size-sorted copy and one size's counts; two sizes'
    # counts must never be alive at once
    import tracemalloc

    fam = SetFamily(24, PAIRS_OF_24)
    exact_satisfying(SetFamily(8, [[0, 1]]), Fraction(1, 3))  # first-use allocations
    lattice_bytes = (1 << 24) // 8
    tracemalloc.start()
    try:
        exact_satisfying(fam, Fraction(1, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13 * lattice_bytes // 4, peak


def test_exact_monotone_in_alpha_and_members():
    fam = gen_random_uniform(8, 3, 6, seed=2)
    grid = [Fraction(k, 8) for k in range(1, 8)]
    vals = [exact_satisfying(fam, a) for a in grid]
    assert all(u <= v for u, v in zip(vals, vals[1:]))
    bigger = gen_random_uniform(8, 3, 12, seed=2)
    if set(fam.masks) <= set(bigger.masks):
        for a in grid:
            assert exact_satisfying(fam, a) <= exact_satisfying(bigger, a)


@given(st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10)))
def test_exact_monotone_under_member_addition(alpha):
    small = SetFamily(5, [[0, 1], [2, 3]])
    large = SetFamily(5, [[0, 1], [2, 3], [1, 4]])
    assert exact_satisfying(small, alpha) <= exact_satisfying(large, alpha)


def test_sample_deterministic_and_close_to_exact():
    fam = SetFamily(6, [[0, 1]])
    est1 = sample_satisfying(fam, 0.7, 100_000, seed=11)
    est2 = sample_satisfying(fam, 0.7, 100_000, seed=11)
    assert est1 == est2
    truth = 0.49
    assert abs(est1.estimate - truth) <= 3 * max(est1.stderr, 1e-6)
    assert est1.estimate == est1.successes / est1.trials
    assert est1.stderr == pytest.approx(
        math.sqrt(est1.estimate * (1 - est1.estimate) / est1.trials)
    )


def test_sample_singletons_closed_form():
    x = 12
    fam = SetFamily(x, [[e] for e in range(x)])
    alpha = 0.15
    truth = 1 - (1 - alpha) ** x
    est = sample_satisfying(fam, alpha, 100_000, seed=3)
    assert abs(est.estimate - truth) <= 3 * max(est.stderr, 1e-6)


def test_sample_alpha_near_one_smoke():
    fam = SetFamily(8, [[0, 1, 2]])
    est = sample_satisfying(fam, 0.999, 20_000, seed=4)
    assert est.estimate > 0.95


def test_sample_validation():
    with pytest.raises(ValueError):
        sample_satisfying(TRIANGLE, 0.0, 10, seed=0)
    with pytest.raises(ValueError):
        sample_satisfying(TRIANGLE, 0.5, 0, seed=0)


def test_sample_reads_alpha_in_any_rational_form():
    fam = SetFamily(30, [[0, 1], [2, 3, 4], [5]])
    want = sample_satisfying(fam, 1 / 3, 500, seed=2)
    for alpha in ("1/3", Fraction(1, 3), 1 / 3):
        assert sample_satisfying(fam, alpha, 500, seed=2) == want
    assert sample_satisfying(fam, "0.25", 500, seed=2) == sample_satisfying(fam, 0.25, 500, seed=2)
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
        sample_satisfying(fam, "1", 10, seed=0)


@pytest.mark.parametrize("alpha, shown", [
    (10**400, str(10**400)),  # too large for a float: refused before the conversion
    (Fraction(1, 10**400), "0.0"),  # in (0, 1), but its float is not
    (Fraction(10**20 - 1, 10**20), "1.0"),
], ids=["past-float", "float-0", "float-1"])
def test_sample_refuses_an_alpha_whose_float_is_not_in_the_interval(alpha, shown):
    fam = SetFamily(30, [[0, 1], [2, 3, 4], [5]])
    with pytest.raises(ValueError, match=rf"^alpha must be in \(0, 1\), got {shown}$"):
        sample_satisfying(fam, alpha, 64, seed=1)


def test_sample_refuses_trials_over_the_bit_limit_before_the_generator(monkeypatch):
    import numpy

    from sunflowers import spread

    fam = SetFamily(30, [[0, 1], [2, 3, 4], [5]])
    monkeypatch.setattr(spread, "_BITS_LIMIT", 30 * 64)
    assert sample_satisfying(fam, "1/2", 64, seed=1).trials == 64  # at the limit
    monkeypatch.setattr(numpy.random, "Philox", lambda *a, **k: pytest.fail("drew"))
    with pytest.raises(ValueError, match=r"^65 trials over 30 elements exceed 1920 sampled bits$"):
        sample_satisfying(fam, "1/2", 65, seed=1)


@st.composite
def sampling_cases(draw):
    """(x, sets, trials) for x in [0, 130] and up to 80 members.  For
    x >= 13 the trials may straddle the rows of one draw block,
    64 * max(1, min(65536 // x, 64 * 65536 // |F|) // 64), a multiple of
    64 trials, or the rows 65536 // x that bound it."""
    x = draw(st.one_of(st.sampled_from([0, 1, 13, 16, 20, 24, 63, 64, 65, 128, 129, 130]),
                       st.integers(0, 130)))
    members = st.frozensets(st.integers(0, x - 1), max_size=min(x, 5)) if x else st.just(frozenset())
    max_sets = draw(st.sampled_from([10, 80]))
    sets = [sorted(s) for s in draw(st.sets(members, max_size=max_sets))]
    trials = st.integers(1, 60)
    if x >= 13:
        edges = []
        sliced = 64 * max(1, min(65536 // x, 64 * 65536 // max(len(sets), 1)) // 64)
        for block in (65536 // x, sliced):
            edges += [block - 1, block, block + 1, 2 * block + 1]
        trials = st.one_of(trials, st.sampled_from([t for t in edges if 1 <= t <= 12_000]))
    return x, sets, draw(trials)


PAIRS_OF_12 = [list(p) for p in combinations(range(12), 2)]  # 66 members, one word
PAIRS_OF_20 = [list(p) for p in combinations(range(20), 2)]  # 190 members
PAIRS_OF_24 = [list(p) for p in combinations(range(24), 2)]  # 276 members


@given(sampling_cases(), st.floats(min_value=0.05, max_value=0.95),
       st.integers(0, 2**32))
@example((0, [[]], 5), 0.5, 0)
@example((64, [[]], 7), 0.5, 1)
@example((65, [[0, 64], [63]], 1009), 0.9, 2)
@example((129, [[], [128]], 509), 0.3, 3)
@example((20, [], 3277), 0.5, 4)
@example((24, PAIRS_OF_12, 65536 // 66 + 1), 0.5, 5)
@example((100, PAIRS_OF_12[:60], 65536 // 120 * 2 + 1), 0.7, 6)
@example((16, PAIRS_OF_12, 65536 // 16 + 1), 0.3, 7)
@example((16, [[0, 1], [2], [3, 4, 15]], 65536 // 16 + 1), 0.3, 8)
@example((16, PAIRS_OF_12[:64], 255), 0.2, 9)
@example((16, PAIRS_OF_12[:64], 256), 0.2, 9)
@example((20, PAIRS_OF_20, 1724), 0.1, 10)
@example((20, PAIRS_OF_20, 1725), 0.1, 10)
@example((24, PAIRS_OF_24, 22795), 0.1, 11)
@example((24, PAIRS_OF_24, 22796), 0.1, 11)
@example((100, [[], [99]], 130), 0.5, 12)
@example((65, [[0], [3, 64], [1, 2, 63, 64]], 961), 0.6, 13)
@example((16, PAIRS_OF_12[:64], 256), math.nextafter(1, 0), 14)
@example((16, PAIRS_OF_12[:64], 256), 5e-324, 14)
@example((16, PAIRS_OF_12[:64], 256), 0.5, 14)
@example((16, PAIRS_OF_12[:64], 256), 0.25, 14)
@example((65, [[0, 64], [63], [1, 2, 3]], 1009), math.nextafter(1, 0), 15)
@example((65, [[0, 64], [63], [1, 2, 3]], 1009), 5e-324, 15)
@example((65, [[0, 64], [63], [1, 2, 3]], 1009), 0.5, 15)
@example((65, [[0, 64], [63], [1, 2, 3]], 1009), 0.25, 15)
def test_sample_successes_match_replay_oracle(case, alpha, seed):
    # alpha*2^53 is an integer at 0.5 and 0.25, where the strict `<` of the
    # raw threshold decides; nextafter(1, 0) and 5e-324 are its extremes
    x, sets, trials = case
    est = sample_satisfying(SetFamily(x, sets), alpha, trials, seed)
    assert est.successes == satisfying_successes_by_replay(x, sets, alpha, trials, seed)


# the sliced block at x = 65 and x = 100 with few members: 64 * (65536 // x // 64)
SLICED_BLOCKS = {65: 960, 100: 640}


@pytest.mark.parametrize("x, trials", [(x, t) for x, block in SLICED_BLOCKS.items()
                                       for t in (63, 64, 65, block - 1, block, block + 1)])
def test_sample_sliced_word_edges_match_replay_oracle(x, trials):
    sets = [[0], [1, x - 1], [2, 63, 64], [5, 6, 7, x - 2]]
    est = sample_satisfying(SetFamily(x, sets), 0.55, trials, seed=x)
    assert est.successes == satisfying_successes_by_replay(x, sets, 0.55, trials, x)


@pytest.mark.parametrize("x, sets", [(16, PAIRS_OF_12), (100, [[0, 99], [5], [64, 65, 70]]),
                                     (24, [[0, 23], [5], [6, 7, 8]]),
                                     (65, [[0], [3, 64], [1, 2, 63, 64]])])
def test_sample_successes_do_not_depend_on_block_size(monkeypatch, x, sets):
    # the block rounds up to 64 trials under the three small budgets
    from sunflowers import spread

    fam = SetFamily(x, sets)
    expected = sample_satisfying(fam, 0.4, 3001, seed=8)
    for budget in (1, 7, 200, 20_000):
        monkeypatch.setattr(spread, "_SAMPLE_BLOCK", budget)
        assert sample_satisfying(fam, 0.4, 3001, seed=8) == expected


def test_sample_memory_at_ground_24_within_one_block():
    import tracemalloc

    from sunflowers import spread

    fam = SetFamily(24, PAIRS_OF_24)
    sample_satisfying(SetFamily(16, PAIRS_OF_12), 0.3, 300, seed=0)  # first-use allocations
    block_bytes = 2 * 8 * spread._SAMPLE_BLOCK  # a block's raw words and its bitsets
    for trials in (500, 20_000, 200_000):
        tracemalloc.start()
        try:
            sample_satisfying(fam, 0.3, trials, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= block_bytes, (trials, peak)


@pytest.mark.parametrize("x, n, trials", [(64, 2, 5000), (30, 3, 3000)])
def test_sample_memory_of_a_sliced_call_within_one_block(x, n, trials):
    # a block's raw words and its members' gathered bitsets.  All 2016 pairs
    # of 64 take blocks of 65536 // 64 = 1024 trials; all 4060 triples of
    # 30 take 1024 too, where the |F| rule binds (65536 // 30 would be 2184)
    import tracemalloc

    from sunflowers import spread

    fam = SetFamily(x, [list(p) for p in combinations(range(x), n)])
    sample_satisfying(SetFamily(100, [[0, 99], [5]]), 0.3, 300, seed=0)  # first-use allocations
    rows = 64 * (min(spread._SAMPLE_BLOCK // x, 64 * spread._SAMPLE_BLOCK // len(fam)) // 64)
    raw_bytes = 8 * rows * x
    gathered_bytes = len(fam) * n * rows // 8
    tracemalloc.start()
    try:
        sample_satisfying(fam, 0.3, trials, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= raw_bytes + gathered_bytes, (rows, peak)


def test_sample_converges_across_seeds():
    fam = TRIANGLE
    truth = float(exact_satisfying(fam, Fraction(1, 2)))
    bad = 0
    for seed in range(50):
        est = sample_satisfying(fam, 0.5, 20_000, seed=seed)
        if abs(est.estimate - truth) > 4 * est.stderr:
            bad += 1
    assert bad <= 1


# -- disjointness consistency ---------------------------------------------------------

def test_triangle_contrapositive():
    rep = check_satisfying_disjoint(TRIANGLE, 2)
    assert not rep.has_r_disjoint
    assert rep.probability == Fraction(1, 2) <= rep.threshold
    assert not rep.satisfying
    assert rep.contrapositive_ok


def test_disjoint_singletons_consistent():
    fam = SetFamily(3, [[0], [1], [2]])
    rep = check_satisfying_disjoint(fam, 3)
    assert rep.has_r_disjoint
    assert rep.contrapositive_ok


def test_empty_member_rejected():
    with pytest.raises(FamilyError):
        check_satisfying_disjoint(SetFamily(3, [[]]), 2)


def test_family_of_the_empty_set_has_kappa_one():
    assert spread_kappa(SetFamily(3, [[]])) == 1.0


def test_find_spread_link_refuses_an_empty_family():
    with pytest.raises(FamilyError, match="nonempty n-uniform"):
        find_spread_link(SetFamily(3, [], uniform=2), 1, 1)


def test_contrapositive_random_corpus():
    for seed in range(100):
        r = 2 + seed % 2
        fam = gen_random_uniform(9, 2 + seed % 3, 8, seed=seed)
        rep = check_satisfying_disjoint(fam, r)
        assert rep.contrapositive_ok, (seed, rep)


def test_disjointness_above_the_exact_limit_is_sampled():
    fam = gen_random_uniform(30, 3, 40, seed=5)
    rep = check_satisfying_disjoint(fam, 3, trials=2000, seed=1)
    assert rep.method == "sampled"
    assert rep.probability == sample_satisfying(fam, Fraction(1, 3), 2000, 1).estimate
    assert rep.satisfying == (rep.probability > 2 / 3)
    for trials, seed in ((None, 1), (2000, None), (None, None)):
        with pytest.raises(ValueError, match="trials and seed are required"):
            check_satisfying_disjoint(fam, 3, trials=trials, seed=seed)


def test_sampled_star_has_no_disjoint_pair_and_is_consistent():
    star = SetFamily(30, [[0, e] for e in range(1, 30)])
    rep = check_satisfying_disjoint(star, 3, trials=2000, seed=1)
    assert rep.method == "sampled"
    assert not rep.has_r_disjoint and rep.witness is None
    assert rep.contrapositive_ok


# -- fixed-constant spread-to-satisfying regression -----------------------------------

def test_spread_families_satisfy_at_fixed_constant():
    # kappa = 5*log(n/beta)/alpha spread families should be (alpha, beta)-
    # satisfying; feasible desk-scale instances force n in {1, 2}
    C = 5.0
    cases = []
    singles = SetFamily(24, [[e] for e in range(24)])
    cases.append((singles, 0.49, 0.12, True))
    pairs = gen_all_k_subsets(30, 2)
    cases.append((pairs, 0.49, 0.49, False))
    tv = gen_transversal(2, 15)
    cases.append((tv, 0.49, 0.49, False))
    for fam, alpha, beta, exact in cases:
        n = fam.uniformity
        kappa = C * math.log(n / beta) / alpha
        assert spread_kappa(fam) >= kappa, "fixture must actually be spread"
        if exact:
            prob = float(exact_satisfying(fam, Fraction(49, 100)))
        else:
            prob = sample_satisfying(fam, alpha, 50_000, seed=1).estimate
        assert prob > 1 - beta
