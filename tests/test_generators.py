import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from sunflowers import generators
from sunflowers import (
    SetFamily,
    brute_force_sunflower,
    intersection_profile,
    is_L_intersecting,
    is_sunflower,
)
from sunflowers.generators import (
    GeneratorError,
    gen_all_k_subsets,
    gen_random_L_intersecting,
    gen_random_uniform,
    gen_sunflower,
    gen_transversal,
)
from sunflowers.spread import spread_kappa

from _oracles import greedy_L_masks_by_full_budget


# -- explicit constructions -----------------------------------------------------

def test_gen_sunflower_disjoint():
    fam = gen_sunflower(0, 2, 3)
    assert [s.elements for s in fam.members] == [(0, 1), (2, 3), (4, 5)]
    assert is_sunflower(fam.members).elements == ()


def test_gen_sunflower_with_core():
    fam = gen_sunflower(2, 1, 4)
    assert [s.elements for s in fam.members] == [
        (0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5)
    ]
    assert is_sunflower(fam.members).elements == (0, 1)


def test_gen_sunflower_rejects_degenerate():
    with pytest.raises(GeneratorError):
        gen_sunflower(2, 0, 3)
    with pytest.raises(GeneratorError):
        gen_sunflower(2, 1, 1)


def test_gen_transversal_2x2():
    fam = gen_transversal(2, 2)
    assert [s.elements for s in fam.members] == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert fam.uniformity == 2 and len(fam) == 4


def test_gen_transversal_single_block_size():
    fam = gen_transversal(3, 1)
    assert len(fam) == 1 and fam.members[0].elements == (0, 1, 2)


def test_gen_transversal_profile_and_spread():
    for b in (2, 3):
        for q in (2, 3):
            fam = gen_transversal(b, q)
            assert len(fam) == q**b
            assert intersection_profile(fam) <= frozenset(range(b))
            assert spread_kappa(fam) == pytest.approx(q, abs=1e-12)


def test_gen_transversal_sunflower_free():
    for b in (2, 3):
        assert brute_force_sunflower(gen_transversal(b, 2), 3) is None


def test_gen_transversal_budget():
    with pytest.raises(GeneratorError, match="budget"):
        gen_transversal(30, 3)


def test_gen_all_k_subsets():
    assert len(gen_all_k_subsets(4, 2)) == 6
    empty_set_family = gen_all_k_subsets(5, 0)
    assert len(empty_set_family) == 1 and empty_set_family.members[0].elements == ()
    fam = gen_all_k_subsets(6, 3)
    assert len(fam) == 20
    assert intersection_profile(fam) == {0, 1, 2}
    with pytest.raises(GeneratorError):
        gen_all_k_subsets(40, 20)
    with pytest.raises(GeneratorError):
        gen_all_k_subsets(3, 4)


# -- seeded constructions -----------------------------------------------------------

def test_gen_random_uniform_forced_full_enumeration():
    fam = gen_random_uniform(6, 2, 15, seed=0)
    assert fam == gen_all_k_subsets(6, 2)


def test_gen_random_uniform_deterministic():
    a = gen_random_uniform(30, 3, 60, seed=1)
    b = gen_random_uniform(30, 3, 60, seed=1)
    c = gen_random_uniform(30, 3, 60, seed=2)
    assert a.masks == b.masks
    assert a.masks != c.masks
    assert len(a) == 60 and a.uniformity == 3


def test_gen_random_uniform_budget(monkeypatch, capsys):
    from sunflowers.cli import main

    def no_draw(*args):
        raise AssertionError("sampling started")

    monkeypatch.setattr(generators, "_rng", no_draw)
    monkeypatch.setattr(generators, "_subset_masks", no_draw)
    with pytest.raises(GeneratorError, match="40000000 subsets exceed budget 1000000"):
        gen_random_uniform(30, 15, 40_000_000, seed=1)
    code = main(["gen", "random-uniform", "30", "15", "40000000", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and "exceed budget" in captured.err
    monkeypatch.undo()
    monkeypatch.setattr(generators, "DEFAULT_SIZE_BUDGET", 5)
    assert len(gen_random_uniform(10, 3, 5, seed=1)) == 5
    with pytest.raises(GeneratorError, match="6 subsets exceed budget 5"):
        gen_random_uniform(10, 3, 6, seed=1)


_OVER_BITS = 2**30 // 2048 + 1  # members over 2048 elements: just over 2^30 mask bits


@pytest.mark.parametrize("argv, patched, message", [
    (["sunflower", "0", "1", "1000001"], "SetFamily", "1000001 sets exceed budget 1000000"),
    (["sunflower", "0", "1", "32769"], "SetFamily",
     f"32769 sets over 32769 elements exceed {2**30} mask bits"),
    (["transversal", "1", "1000001"], "SetFamily", "1000001 transversals exceed budget"),
    (["transversal", "1", "32769"], "SetFamily", "32769 transversals over 32769 elements exceed"),
    (["all-subsets", "1000001", "1"], "_subset_masks", "1000001 subsets exceed budget"),
    (["all-subsets", "32769", "1"], "_subset_masks", "32769 subsets over 32769 elements exceed"),
    (["random-uniform", "1000001", "1", "1000001", "--seed", "1"], "_rng",
     "1000001 subsets exceed budget"),
    (["random-uniform", "2048", "2", str(_OVER_BITS), "--seed", "1"], "_rng",
     f"{_OVER_BITS} subsets over 2048 elements exceed"),
    (["random-uniform", "32769", "1", "1", "--seed", "1"], "_rng",
     f"512 draws over 32769 elements exceed {2**30} bits"),
    (["random-l", "10", "2", "--L", "0,1", "--count", "1000001", "--budget", "1000001",
      "--seed", "1"], "_rng", "1000001 sets exceed budget"),
    (["random-l", "2048", "2", "--L", "0,1", "--count", str(_OVER_BITS), "--budget",
      str(_OVER_BITS), "--seed", "1"], "_rng", f"{_OVER_BITS} sets over 2048 elements exceed"),
    (["random-l", "32769", "1", "--L", "0", "--count", "1", "--seed", "1"], "_rng",
     "512 draws over 32769 elements exceed"),
    (["random-uniform", "2000", "2", "499750", "--seed", "1"], "_rng",
     "1999000 listed subsets exceed budget 1000000"),
])
def test_gen_refuses_just_over_each_size_limit(monkeypatch, capsys, argv, patched, message):
    from sunflowers.cli import main

    def no_family(*args):
        raise AssertionError("a set was made")

    monkeypatch.setattr(generators, patched, no_family)
    assert main(["gen", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("argv, patched, wrong, message", [
    (["sunflower", "1", "1", "3"], "is_sunflower", lambda sets: None,
     "sunflower self-check failed"),
    (["transversal", "2", "2"], "product", lambda *blocks: iter([(0, 2)]),
     "transversal self-check failed"),
    (["random-l", "6", "2", "--L", "0", "--count", "2", "--seed", "1"], "_greedy_L_masks",
     lambda *args: ([0b011, 0b110], "target"), "L-intersecting self-check failed"),
], ids=["sunflower", "transversal", "random-l"])
def test_a_failed_self_check_is_an_internal_error(monkeypatch, capsys, argv, patched, wrong,
                                                  message):
    from sunflowers.cli import main

    monkeypatch.setattr(generators, patched, wrong)
    assert main(["gen", *argv]) == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"internal error: InvariantError('{message}')\n")


def test_the_rejection_cap_is_a_stated_limit(monkeypatch, capsys):
    # C(60, 5) > 4 x 3, so the draws are rejection-sampled; one repeated mask never gives 3
    from sunflowers.cli import main

    monkeypatch.setattr(generators, "_n_subset_masks",
                        lambda rng, x, n, cap: iter([0b11111] * cap))
    with pytest.raises(GeneratorError, match="rejection sampling exceeded 1600 attempts"):
        gen_random_uniform(60, 5, 3, seed=1)
    assert main(["gen", "random-uniform", "60", "5", "3", "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rejection sampling exceeded 1600 attempts\n"


def test_gen_wide_fixtures_below_the_bit_budget(capsys):
    from sunflowers.cli import main

    for argv in (["sunflower", "0", "1", "20000"], ["transversal", "1", "20000"]):
        assert main(["gen", *argv]) == 0
        assert capsys.readouterr().out.count("\n") == 20001


def test_gen_random_uniform_edges():
    assert len(gen_random_uniform(8, 3, 0, seed=5)) == 0
    with pytest.raises(GeneratorError):
        gen_random_uniform(4, 2, 7, seed=0)  # only C(4,2)=6 exist
    with pytest.raises(GeneratorError):
        gen_random_uniform(8, 3, 2, seed=-1)


def test_gen_random_uniform_of_no_sets_on_the_rejection_path(monkeypatch):
    # C(60, 5) is far over 4096, so count 0 takes the rejection path
    fam = gen_random_uniform(60, 5, 0, seed=1)
    assert len(fam) == 0 and fam.ground_size == 60
    with pytest.raises(GeneratorError, match="seed must be >= 0, got -1"):
        gen_random_uniform(60, 5, 0, seed=-1)

    def no_draw(*args):
        raise AssertionError("a mask was drawn")
        yield

    monkeypatch.setattr(generators, "_n_subset_masks", no_draw)
    assert gen_random_uniform(60, 5, 0, seed=1) == fam


def test_gen_sunflower_has_one_intersection_size():
    fam = gen_sunflower(1, 1, 4)
    assert [s.elements for s in fam.members] == [(0, 1), (0, 2), (0, 3), (0, 4)]
    assert intersection_profile(fam) == {1}
    disjoint = gen_sunflower(0, 2, 4)
    assert intersection_profile(disjoint) == {0}
    eight = gen_sunflower(1, 2, 8)
    assert len(eight) == 8 and eight.uniformity == 3 and intersection_profile(eight) == {1}
    with pytest.raises(GeneratorError):
        gen_sunflower(3, 0, 4)  # t = n leaves petals of size 0


def test_gen_random_l_intersecting_verified():
    fam = gen_random_L_intersecting(8, 3, [0, 1], 10, seed=7, budget=100_000)
    assert is_L_intersecting(fam, [0, 1])
    assert fam.uniformity == 3 or len(fam) <= 1


def test_gen_random_l_full_range_reduces_to_distinct_uniform():
    fam = gen_random_L_intersecting(10, 3, range(3), 15, seed=3)
    assert len(fam) == 15 and fam.uniformity == 3
    assert len(set(fam.masks)) == 15


def test_gen_random_l_disjoint_feasible():
    fam = gen_random_L_intersecting(18, 2, [0], 3, seed=11, budget=100_000)
    assert len(fam) == 3 and intersection_profile(fam) == {0}


def test_gen_random_l_short_result_is_not_an_error():
    # a triangle-free target impossible to reach: {1}-intersecting 2-uniform
    # families cap at the star size, so a huge target just falls short
    fam = gen_random_L_intersecting(5, 2, [1], 50, seed=0, budget=2000)
    assert len(fam) < 50
    assert is_L_intersecting(fam, [1])


def test_gen_random_l_deterministic():
    a = gen_random_L_intersecting(12, 3, [0, 1], 20, seed=9)
    b = gen_random_L_intersecting(12, 3, [0, 1], 20, seed=9)
    assert a.masks == b.masks


@st.composite
def greedy_case(draw):
    n = draw(st.integers(0, 5))
    x = draw(st.integers(max(n, 1), 14))
    L = draw(st.sets(st.integers(0, n - 1))) if n else set()
    return (x, n, L, draw(st.integers(0, 80)), draw(st.integers(0, 2**32)),
            draw(st.integers(0, 5000)))


@given(greedy_case())
@example((12, 2, {0, 1}, 68, 0, 5000))  # saturates: only 66 pairs, so duplicates are drawn
def test_gen_random_l_equals_full_budget_greedy(case):
    x, n, L, target, seed, budget = case
    fam = gen_random_L_intersecting(x, n, L, target, seed, budget)
    expected = greedy_L_masks_by_full_budget(x, n, L, target, seed, budget)
    assert fam.masks == SetFamily.from_masks(x, expected).masks


def test_gen_random_l_stops_long_before_a_huge_budget(monkeypatch):
    real = generators._n_subset_masks
    draws = []

    def counted(*args):
        for mask in real(*args):
            draws.append(mask)
            yield mask

    monkeypatch.setattr(generators, "_n_subset_masks", counted)
    stops = []
    # only 66 pairs exist, so 70 {0,1}-intersecting pairs cannot be reached
    huge = gen_random_L_intersecting(12, 2, [0, 1], 70, seed=3, budget=10_000_000,
                                     on_stop=stops.append)
    assert stops == ["proved-maximal"] and len(huge) == 66
    assert len(draws) < 5_000
    assert huge == gen_random_L_intersecting(12, 2, [0, 1], 70, seed=3, budget=50_000)


@pytest.mark.parametrize("target, budget, count, stop", [
    (3, 0, 0, "budget"), (3, 1, 1, "proved-maximal"), (1, 1, 1, "target"), (0, 0, 0, "target"),
])
def test_gen_random_l_of_empty_sets_keeps_one_only_if_a_draw_is_allowed(target, budget, count,
                                                                        stop):
    stops = []
    fam = gen_random_L_intersecting(4, 0, [], target, seed=1, budget=budget, on_stop=stops.append)
    assert fam.masks == (0,) * count and stops == [stop]


def test_gen_random_l_validates_L():
    for L in ([3], [-1, 0]):
        with pytest.raises(GeneratorError, match=re.escape(f"L must be a subset of {{0..2}}, got {L}")):
            gen_random_L_intersecting(8, 3, L, 5, seed=1)


def test_gen_random_l_builds_nothing_the_size_of_n():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(GeneratorError, match="need n <= x"):
            gen_random_L_intersecting(10, 10**6, [0], 1, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_gen_random_l_rejects_negative_budget():
    with pytest.raises(GeneratorError, match="budget"):
        gen_random_L_intersecting(8, 3, [0, 1], 5, seed=1, budget=-1)


# -- the draw loop -------------------------------------------------------------------

def masks_row_at_a_time(seed, x, n, max_draws):
    """The masks of `_n_subset_masks`, one row of uniforms per draw, and
    the generator that drew them."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=seed))
    masks = []
    for _ in range(max_draws):
        row = rng.random((1, x))[0]
        masks.append(sum(1 << int(e) for e in np.argsort(row)[:n]))
    return masks, rng


@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 40), spare=st.integers(0, 30),
       max_draws=st.one_of(st.integers(0, 63), st.integers(64, 960), st.integers(961, 1100)))
@settings(max_examples=25)
@example(seed=0, n=4, spare=5, max_draws=64)
@example(seed=1, n=6, spare=6, max_draws=192)
@example(seed=2, n=1, spare=39, max_draws=960)
@example(seed=3, n=33, spare=32, max_draws=961)
def test_n_subset_masks_are_the_rows_drawn_one_at_a_time(seed, n, spare, max_draws):
    # blocks of 64, 128, 256, then 512 rows end at 64, 192, 448, 960, 1472, ...
    rng = generators._rng(seed)
    got = list(generators._n_subset_masks(rng, n + spare, n, max_draws))
    expected, reference = masks_row_at_a_time(seed, n + spare, n, max_draws)
    assert got == expected
    # no row past max_draws was drawn: both streams go on alike
    assert rng.random(3).tolist() == reference.random(3).tolist()


def test_the_first_draw_over_a_wide_ground_set_stays_small():
    # one 512-row block of 32000 uniforms, with its argpartition indices, took 250 MiB
    import tracemalloc

    draws = generators._n_subset_masks(generators._rng(1), 32000, 2, 10**6)
    tracemalloc.start()
    try:
        first = next(draws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first.bit_count() == 2 and peak < 40 * 2**20
