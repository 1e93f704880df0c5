from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from sunflowers import (
    ElementSet,
    FamilyError,
    InvariantError,
    SetFamily,
    Sunflower,
    audit_markov_step,
    crossover_report,
    d_intersecting_bound,
    find_r_disjoint,
    find_spread_link,
    intersection_profile,
    is_L_intersecting,
    is_d_intersecting,
    is_kappa_spread,
    is_sunflower,
    link,
    rlogn_bound,
)
from sunflowers import families
from sunflowers.generators import gen_all_k_subsets, gen_random_uniform

from _oracles import profile_by_double_loop, sunflower_core_by_petals

TRIANGLE = SetFamily(3, [[0, 1], [1, 2], [0, 2]])


# -- ElementSet ------------------------------------------------------------

def test_element_set_basics():
    s = ElementSet([3, 1, 1, 0])
    assert s.elements == (0, 1, 3)
    assert len(s) == 3


def test_element_set_canonical_order_is_lexicographic_not_mask_order():
    # [0, 2] precedes [1] lexicographically even though its mask is larger
    assert [s.elements for s in SetFamily(3, [[1], [0, 2]]).members] == [(0, 2), (1,)]


def test_element_set_rejects_negative():
    with pytest.raises(FamilyError):
        ElementSet([-1])


def test_negative_bitmask_refused():
    with pytest.raises(FamilyError, match="negative bitmask"):
        ElementSet.from_mask(-1)
    with pytest.raises(FamilyError, match="negative bitmask"):
        SetFamily.from_masks(3, [-1])


def test_element_set_hashes_by_mask():
    assert hash(ElementSet([0, 2])) == hash(0b101)
    assert ElementSet.from_mask(0b101) == ElementSet([2, 0])
    assert len({ElementSet([0, 2]), ElementSet.from_mask(0b101), ElementSet()}) == 2


@pytest.mark.parametrize("value", [ElementSet([0]), SetFamily(2, [[0]])],
                         ids=["ElementSet", "SetFamily"])
def test_values_are_immutable(value):
    with pytest.raises(AttributeError, match="immutable"):
        value.extra = 1


# -- SetFamily -------------------------------------------------------------

def test_family_sorts_members_canonically():
    fam = SetFamily(4, [[2, 3], [0, 1], [1, 2]])
    assert [s.elements for s in fam.members] == [(0, 1), (1, 2), (2, 3)]


def test_family_rejects_duplicates_deterministically():
    for _ in range(3):
        with pytest.raises(FamilyError, match="duplicate member"):
            SetFamily(4, [[0, 1], [1, 0]])


def test_family_rejects_out_of_range():
    with pytest.raises(FamilyError, match="out of range"):
        SetFamily(3, [[0, 3]])


def test_family_uniformity_detection_and_declaration():
    assert SetFamily(4, [[0, 1], [2, 3]]).uniformity == 2
    assert SetFamily(4, [[0], [1, 2]]).uniformity is None
    assert SetFamily(4, [], uniform=2).uniformity == 2
    assert SetFamily(4, []).uniformity is None
    with pytest.raises(FamilyError, match="declared uniformity"):
        SetFamily(4, [[0, 1], [2]], uniform=2)


def test_family_refuses_a_negative_uniformity():
    with pytest.raises(FamilyError, match="uniformity must be >= 0"):
        SetFamily(4, [], uniform=-1)


# -- intersection profile and predicates ------------------------------------

def test_profile_pairwise_disjoint():
    assert intersection_profile(SetFamily(6, [[0, 1], [2, 3], [4, 5]])) == {0}


def test_profile_triangle():
    assert intersection_profile(TRIANGLE) == {1}


def test_profile_matches_double_loop_on_random_family():
    fam = gen_random_uniform(8, 3, 12, seed=1)
    expected = profile_by_double_loop([s.elements for s in fam.members])
    assert intersection_profile(fam) == expected


def test_profile_empty_for_small_families():
    assert intersection_profile(SetFamily(3, [])) == frozenset()
    assert intersection_profile(SetFamily(3, [[0, 1]])) == frozenset()


def test_is_l_intersecting():
    assert is_L_intersecting(TRIANGLE, {1})
    assert not is_L_intersecting(TRIANGLE, {0})
    fam = gen_all_k_subsets(6, 3)
    assert is_L_intersecting(fam, range(3))


def test_is_d_intersecting():
    assert is_d_intersecting(SetFamily(6, [[0, 1], [2, 3], [4, 5]]), 0)
    assert not is_d_intersecting(TRIANGLE, 0)
    core2 = SetFamily(5, [[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    assert not is_d_intersecting(core2, 1)
    assert is_d_intersecting(core2, 2)


def test_is_d_intersecting_builds_nothing_the_size_of_d():
    import tracemalloc

    intersection_profile(TRIANGLE)  # made and kept before the trace
    tracemalloc.start()
    try:
        assert is_d_intersecting(TRIANGLE, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# -- link --------------------------------------------------------------------

def test_link_basic():
    fam = SetFamily(5, [[0, 1, 2], [0, 1, 3], [2, 3, 4]])
    lk = link(fam, ElementSet([0, 1]))
    assert [s.elements for s in lk.members] == [(2,), (3,)]
    assert lk.uniformity == 1


def test_link_at_empty_set_is_identity():
    fam = gen_all_k_subsets(5, 2)
    assert link(fam, ElementSet()) == fam


def test_link_all_3_subsets_at_singleton():
    fam = gen_all_k_subsets(6, 3)
    lk = link(fam, ElementSet([0]))
    expected = sorted(combinations(range(1, 6), 2))
    assert len(lk) == 10
    assert [s.elements for s in lk.members] == expected


def test_link_outside_ground_set():
    with pytest.raises(FamilyError):
        link(SetFamily(3, [[0, 1]]), ElementSet([5]))


# -- is_sunflower ------------------------------------------------------------

def test_sunflower_disjoint_sets():
    sets = [ElementSet(s) for s in ([0, 1], [2, 3], [4, 5])]
    assert is_sunflower(sets) == ElementSet()


def test_sunflower_shared_core():
    sets = [ElementSet(s) for s in ([0, 1, 2], [0, 1, 3], [0, 1, 4])]
    assert is_sunflower(sets) == ElementSet([0, 1])


def test_sunflower_triangle_is_not():
    assert is_sunflower(TRIANGLE.members) is None


def test_sunflower_degenerate_inputs_rejected():
    with pytest.raises(FamilyError):
        is_sunflower([ElementSet([0, 1])])
    with pytest.raises(FamilyError):
        is_sunflower([ElementSet([0, 1]), ElementSet([0, 1])])


def test_sunflower_of_many_petals_with_one_late_overlap():
    # 300 sets on the core {0, 1}, each with two fresh petal elements
    sets = [[0, 1, 2 + 2 * i, 3 + 2 * i] for i in range(300)]
    assert is_sunflower([ElementSet(s) for s in sets]) == ElementSet([0, 1])
    assert sunflower_core_by_petals(sets) == {0, 1}
    sets[-1] = [0, 1, sets[-2][3], 602]  # only the last two petals overlap
    assert is_sunflower([ElementSet(s) for s in sets]) is None
    assert sunflower_core_by_petals(sets) is None


def test_sunflower_type_validates_certificate():
    petals = (ElementSet([0, 1]), ElementSet([0, 2]))
    Sunflower(petals, ElementSet([0]))
    with pytest.raises(FamilyError):
        Sunflower(petals, ElementSet([]))
    with pytest.raises(FamilyError):
        Sunflower((ElementSet([0, 1]),), ElementSet([0, 1]))
    with pytest.raises(FamilyError):
        Sunflower((ElementSet([0, 1]), ElementSet([0, 1])), ElementSet([0, 1]))
    for core_mask in range(1 << 3):  # no core at all makes the triangle a sunflower
        with pytest.raises(FamilyError):
            Sunflower(TRIANGLE.members, ElementSet.from_mask(core_mask))


@pytest.mark.parametrize("call", [
    lambda: rlogn_bound(4, 3, C=0.5),
    lambda: d_intersecting_bound(3, 1, 3, log_base=2.0),
    lambda: audit_markov_step(SetFamily(6, [[0, 1], [2, 3], [4, 5]]), 3, 0.5, 1),
    lambda: is_kappa_spread(gen_all_k_subsets(4, 2), 1.5),
    lambda: find_spread_link(gen_all_k_subsets(4, 2), 1.5, 1),
], ids=["rlogn-C", "d-intersecting-log-base", "markov-delta", "kappa", "spread-link-kappa"])
def test_floats_rejected_at_every_rational_entry_point(call):
    with pytest.raises(TypeError, match="not float"):
        call()


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("call", [
    lambda v: rlogn_bound(4, 3, C=v),
    lambda v: d_intersecting_bound(3, 1, 3, C=v),
    lambda v: crossover_report(4, 3, C=v),
    lambda v: is_kappa_spread(gen_all_k_subsets(4, 2), v),
    lambda v: find_spread_link(gen_all_k_subsets(4, 2), v, 1),
    lambda v: audit_markov_step(SetFamily(6, [[0, 1], [2, 3], [4, 5]]), 3, v, 1),
], ids=["rlogn-C", "d-intersecting-C", "crossover-C", "kappa", "spread-link-kappa",
        "markov-delta"])
def test_nonpositive_rejected_at_every_positive_rational_entry_point(call, value):
    with pytest.raises(ValueError, match="must be positive"):
        call(value)


# -- find_r_disjoint -----------------------------------------------------------

def test_find_r_disjoint_trivial():
    fam = SetFamily(6, [[0, 1], [2, 3], [4, 5]])
    found = find_r_disjoint(fam, 3)
    assert [s.elements for s in found] == [(0, 1), (2, 3), (4, 5)]


def test_find_r_disjoint_triangle_absent():
    assert find_r_disjoint(TRIANGLE, 2) is None


def test_find_r_disjoint_perfect_matching_witness():
    fam = gen_all_k_subsets(6, 2)
    found = find_r_disjoint(fam, 3)
    assert [s.elements for s in found] == [(0, 1), (2, 3), (4, 5)]


def test_find_r_disjoint_r1():
    fam = SetFamily(3, [[0, 1]])
    assert [s.elements for s in find_r_disjoint(fam, 1)] == [(0, 1)]


def test_find_r_disjoint_refuses_r0():
    with pytest.raises(FamilyError, match="r must be >= 1, got 0"):
        find_r_disjoint(SetFamily(3, [[0, 1]]), 0)


def test_find_r_disjoint_past_the_recursion_limit():
    # the petal search keeps its chosen positions on a stack, not the call stack
    fam = SetFamily(1200, [[e] for e in range(1200)])
    assert [s.elements for s in find_r_disjoint(fam, 1100)] == [(e,) for e in range(1100)]


@pytest.mark.parametrize("positions", [[0, 1], [3, 0, 1]], ids=["pair", "last-two-meet"])
def test_find_r_disjoint_refuses_a_forged_overlapping_witness(monkeypatch, positions):
    fam = SetFamily(6, [[0, 1], [1, 2], [2, 3], [4, 5]])
    monkeypatch.setattr(families, "_petal_positions", lambda *args: positions)
    with pytest.raises(InvariantError, match="intersecting members"):
        find_r_disjoint(fam, len(positions))


# -- properties ---------------------------------------------------------------

small_set = st.sets(st.integers(min_value=0, max_value=7), max_size=5)


@st.composite
def small_family(draw, min_members=0):
    sets = draw(
        st.lists(small_set, min_size=min_members, max_size=8, unique_by=frozenset)
    )
    return SetFamily(8, sets)


@given(small_family(), small_set, small_set)
def test_link_composes_over_disjoint_sets(fam, t1, t2):
    t2 = t2 - t1
    a = link(link(fam, ElementSet(t1)), ElementSet(t2))
    b = link(fam, ElementSet(t1 | t2))
    assert a.masks == b.masks


@given(st.lists(small_set, min_size=2, max_size=6, unique_by=frozenset))
def test_sunflower_formulations_agree(sets):
    ours = is_sunflower([ElementSet(s) for s in sets])
    oracle = sunflower_core_by_petals(sets)
    if oracle is None:
        assert ours is None
    else:
        assert ours is not None and set(ours.elements) == oracle


@given(st.integers(min_value=2, max_value=5))
def test_disjoint_sets_always_sunflower_with_empty_core(r):
    sets = [ElementSet([2 * i, 2 * i + 1]) for i in range(r)]
    assert is_sunflower(sets) == ElementSet()


@given(small_family(min_members=2))
def test_uniform_profile_below_n(fam):
    if fam.uniformity is not None and fam.uniformity > 0:
        assert max(intersection_profile(fam)) <= fam.uniformity - 1


@given(small_family(min_members=2))
def test_any_uniform_family_is_L_intersecting_for_full_range(fam):
    if fam.uniformity is not None and fam.uniformity > 0:
        assert is_L_intersecting(fam, range(fam.uniformity))
