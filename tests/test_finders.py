import math
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import example, given, settings, strategies as st

import sunflowers

from sunflowers import (
    ElementSet,
    SetFamily,
    Sunflower,
    brute_force_sunflower,
    deza_extract,
    find_any,
    find_r_disjoint,
    intersection_profile,
    is_sunflower,
    l_intersecting_find,
    l_multinomial_bound,
    link,
)
from sunflowers import families, finders
from sunflowers.cli import main
from sunflowers.formats import dump_family_text
from sunflowers.finders import FinderError, LemmaViolationError
from sunflowers.generators import (
    gen_all_k_subsets,
    gen_random_L_intersecting,
    gen_random_uniform,
    gen_sunflower,
    gen_transversal,
)

from _oracles import (
    first_sunflower_by_full_scan,
    has_sunflower_by_full_scan,
    sunflower_core_by_petals,
)

TRIANGLE = SetFamily(3, [[0, 1], [1, 2], [0, 2]])


# -- brute force ------------------------------------------------------------

def test_brute_force_disjoint_family():
    fam = SetFamily(8, [[0, 1], [2, 3], [4, 5], [6, 7]])
    flower = brute_force_sunflower(fam, 3)
    assert flower.core.elements == ()
    assert [s.elements for s in flower.petal_sets] == [(0, 1), (2, 3), (4, 5)]


def test_brute_force_past_the_recursion_limit():
    fam = SetFamily(1200, [[e] for e in range(1200)])
    flower = brute_force_sunflower(fam, 1100)
    assert flower.core.elements == ()
    assert [s.elements for s in flower.petal_sets] == [(e,) for e in range(1100)]


def test_brute_force_triangle_absent():
    assert brute_force_sunflower(TRIANGLE, 3) is None


def test_brute_force_transversal_2x2_absent():
    fam = gen_transversal(2, 2)
    assert [s.elements for s in fam.members] == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert brute_force_sunflower(fam, 3) is None
    assert not has_sunflower_by_full_scan([s.elements for s in fam.members], 3)


def test_brute_force_agrees_with_oracle_on_random_families():
    for seed in range(25):
        fam = gen_random_uniform(9, 3, 14, seed=seed)
        ours = brute_force_sunflower(fam, 3)
        oracle = has_sunflower_by_full_scan([s.elements for s in fam.members], 3)
        assert (ours is not None) == oracle
        if ours is not None:
            assert is_sunflower(ours.petal_sets) == ours.core


@st.composite
def small_families(draw, max_members=14):
    """(x, member element tuples): uniform or not, the empty set allowed."""
    x = draw(st.integers(1, 10))
    if draw(st.booleans()):
        n = draw(st.integers(0, min(x, 4)))
        member = st.frozensets(st.integers(0, x - 1), min_size=n, max_size=n)
    else:
        member = st.frozensets(st.integers(0, x - 1), max_size=x)
    sets = draw(st.lists(member, unique=True, max_size=max_members))
    return x, [sorted(s) for s in sets]


@settings(max_examples=200)
@given(small_families(), st.integers(2, 5))
@example((3, []), 2)
@example((3, [[0], [1]]), 3)
@example((4, [[], [0, 1], [2], [3]]), 4)
@example((4, [[0, 1], [0, 2], [3]]), 3)  # the third set avoids both petals but not the core
# transversals, both absent: at r = 3 every first member is skipped, at r = 4
# only the last two are, and the others search large groups
@example((12, [list(s.elements) for s in gen_transversal(6, 2).members]), 3)
@example((9, [list(s.elements) for s in gen_transversal(3, 3).members]), 4)
# the first member's meets are all distinct; the second heads a disjoint sunflower
@example((6, [[0, 1, 2], [0, 3], [1, 4], [2, 5]]), 3)
def test_brute_force_returns_the_first_witness_of_a_full_scan(fam, r):
    x, sets = fam
    family = SetFamily(x, sets)
    members = [s.elements for s in family.members]
    expected = first_sunflower_by_full_scan(members, r)
    flower = brute_force_sunflower(family, r)
    if expected is None:
        assert flower is None
    else:
        assert [s.elements for s in flower.petal_sets] == [members[i] for i in expected]
        assert flower.core.elements == tuple(sorted(frozenset.intersection(
            *(frozenset(members[i]) for i in expected))))


@settings(max_examples=200)
@given(small_families(), st.integers(1, 5))
@example((3, []), 1)
@example((3, [[0]]), 2)
@example((4, [[], [0, 1], [2], [3]]), 4)
def test_find_r_disjoint_returns_the_first_witness_of_a_full_scan(fam, r):
    x, sets = fam
    family = SetFamily(x, sets)
    members = [s.elements for s in family.members]
    expected = first_sunflower_by_full_scan(members, r, core=frozenset())
    found = find_r_disjoint(family, r)
    if expected is None:
        assert found is None
    else:
        assert [s.elements for s in found] == [members[i] for i in expected]


# -- the grouped search: members grouped by their meet with the first -----------

# (x, sets in canonical order, r, first witness, the witness of the group
# created first).  From the first member, the group of the second member
# (by its meet with the first) is created first and yields a witness, but a
# group created after it yields one with a smaller second index.
COMPETING_GROUPS = [
    (5, [[0, 4], [1, 2], [1, 2, 4], [1, 3], [2], [2, 3, 4], [3, 4]], 3,
     (0, 2, 6), (0, 3, 4)),
    (7, [[0, 5], [1, 2, 5, 6], [1, 3], [1, 3, 5], [1, 3, 6], [2, 4], [2, 5], [3, 6],
         [5, 6], [6]], 4,
     (0, 2, 5, 9), (0, 3, 6, 8)),
]


@pytest.mark.parametrize("x, sets, r, witness, rival", COMPETING_GROUPS)
def test_grouped_search_takes_the_smallest_witness_over_groups(x, sets, r, witness, rival):
    family = SetFamily(x, sets)
    members = [s.elements for s in family.members]
    assert members == [tuple(s) for s in sets]
    meet = [frozenset(sets[0]) & frozenset(s) for s in sets]
    # the rival is a sunflower from the group created first, a different group
    assert sunflower_core_by_petals([sets[i] for i in rival]) is not None
    assert meet[rival[1]] == meet[1] != meet[witness[1]]
    assert witness < rival
    assert first_sunflower_by_full_scan(members, r) == witness
    flower = brute_force_sunflower(family, r)
    assert [s.elements for s in flower.petal_sets] == [members[i] for i in witness]


@settings(max_examples=60, deadline=None)
@given(small_families(max_members=30), st.integers(3, 5))
@example((9, [s.elements for s in gen_transversal(3, 3).members]), 4)
@example((8, [s.elements for s in gen_transversal(4, 2).members]), 3)
def test_grouped_search_matches_a_full_scan_up_to_30_members(fam, r):
    x, sets = fam
    family = SetFamily(x, sets)
    members = [s.elements for s in family.members]
    expected = first_sunflower_by_full_scan(members, r)
    flower = brute_force_sunflower(family, r)
    if expected is None:
        assert flower is None
    else:
        assert [s.elements for s in flower.petal_sets] == [members[i] for i in expected]


@pytest.mark.parametrize("indices", [[0, 1, 2], [0, 1]], ids=["not-a-sunflower", "too-few"])
def test_failed_search_certificate_is_an_internal_error(monkeypatch, tmp_path, capsys, indices):
    monkeypatch.setattr(finders, "_sunflower_indices", lambda masks, r: indices)
    with pytest.raises(LemmaViolationError, match="certificate"):
        brute_force_sunflower(TRIANGLE, 3)
    path = tmp_path / "triangle.txt"
    path.write_text("x=3\n0 1\n0 2\n1 2\n")
    code = main(["find", str(path), "--r", "3", "--strategy", "brute"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == "" and "certificate" in captured.err


def test_brute_force_checks_each_witness_once(monkeypatch):
    calls = []
    real = families.is_sunflower
    monkeypatch.setattr(families, "is_sunflower", lambda sets: calls.append(1) or real(sets))
    for fam, r, found in [(SetFamily(8, [[0, 1], [2, 3], [4, 5], [6, 7]]), 3, True),
                          (gen_sunflower(1, 2, 8), 5, True), (TRIANGLE, 3, False)]:
        calls.clear()
        assert (brute_force_sunflower(fam, r) is not None) == found
        assert len(calls) == found


def test_brute_force_refuses_r1():
    with pytest.raises(FinderError, match="need r >= 2, got 1"):
        brute_force_sunflower(TRIANGLE, 1)


def test_no_sunflower_above_erdos_rado_is_an_internal_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(finders, "_sunflower_indices", lambda masks, r: None)
    singletons = SetFamily(2, [[0], [1]])  # 2 sets > 1!(2-1)^1
    with pytest.raises(LemmaViolationError, match="Erdős–Rado"):
        brute_force_sunflower(singletons, 2)
    assert brute_force_sunflower(TRIANGLE, 3) is None  # 3 sets <= 2!(3-1)^2
    assert brute_force_sunflower(SetFamily(2, [[0], [0, 1]]), 2) is None  # not uniform
    path = tmp_path / "singletons.txt"
    path.write_text("x=2\n0\n1\n")
    code = main(["find", str(path), "--r", "2", "--strategy", "brute"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == "" and "Erdős–Rado" in captured.err


def test_no_sunflower_above_the_multinomial_bound_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(finders, "_search", lambda *args: None)
    singletons = SetFamily(2, [[0], [1]])
    assert len(singletons) > l_multinomial_bound(1, [0], 2)
    with pytest.raises(LemmaViolationError, match="multinomial"):
        l_intersecting_find(singletons, [0], 2)
    with pytest.raises(LemmaViolationError, match="multinomial"):
        find_any(singletons, 2)
    assert len(TRIANGLE) == l_multinomial_bound(2, [1], 3)
    flower, trace = l_intersecting_find(TRIANGLE, [1], 3)
    assert flower is None and not trace.found


# -- Deza extraction ------------------------------------------------------------

def test_deza_at_threshold_disjoint():
    # n = 2, t = 0: four disjoint 2-sets sit exactly at the n^2-n+2 = 4 threshold
    fam = SetFamily(8, [[0, 1], [2, 3], [4, 5], [6, 7]])
    flower = deza_extract(fam, 3)
    assert flower.core.elements == () and flower.r == 3


def test_deza_star():
    fam = SetFamily(5, [[0, 1], [0, 2], [0, 3], [0, 4]])
    flower = deza_extract(fam, 4)
    assert flower.core.elements == (0,) and flower.r == 4


def test_deza_triangle_below_threshold():
    # size 3 = n^2-n+1: one below the threshold, and indeed not a sunflower
    with pytest.raises(FinderError, match=r"family size 3 is below max\(r, n\^2-n\+2\) = 4"):
        deza_extract(TRIANGLE, 3)
    assert brute_force_sunflower(TRIANGLE, 3) is None


def test_deza_threshold_cannot_drop_at_n2():
    # the triangle witnesses sharpness: a singleton-profile family of size
    # n^2-n+1 that is not a sunflower
    assert intersection_profile(TRIANGLE) == {1}
    assert is_sunflower(TRIANGLE.members) is None


def test_deza_error_codes_distinct():
    mixed = SetFamily(6, [[0, 1], [0, 2], [3, 4], [0, 5]])  # profile {0, 1}
    with pytest.raises(FinderError, match=r"intersection profile \[0, 1\] is not a single size"):
        deza_extract(mixed, 2)
    with pytest.raises(FinderError, match="family must be n-uniform with n >= 1"):
        deza_extract(SetFamily(4, [[0], [1, 2], [2, 3], [0, 3]]), 2)
    with pytest.raises(FinderError, match="need r >= 2, got 1"):
        deza_extract(TRIANGLE, 1)


def test_deza_single_intersection_fixture_meets_threshold():
    fam = gen_sunflower(1, 2, 8)  # n^2-n+2 = 8
    flower = deza_extract(fam, 3)
    assert len(flower.core) == 1


def test_failed_deza_certificate_is_an_internal_error(monkeypatch, tmp_path, capsys):
    # a profile forged to one size sends a family that is no sunflower to
    # the extraction, whose certificate then fails
    monkeypatch.setattr(finders, "intersection_profile", lambda family: frozenset({0}))
    fam = SetFamily(4, [[0, 1], [0, 2], [0, 3], [1, 2]])
    with pytest.raises(LemmaViolationError, match="certificate verification failed"):
        deza_extract(fam, 4)
    path = tmp_path / "fam.txt"
    path.write_text(dump_family_text(fam))
    code = main(["find", str(path), "--r", "4", "--strategy", "recursive"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == "" and "certificate verification failed" in captured.err


# -- recursive extractor ----------------------------------------------------------

def test_base_case_seven_disjoint_pairs():
    fam = SetFamily(14, [[2 * i, 2 * i + 1] for i in range(7)])
    assert len(fam) == 7 > l_multinomial_bound(2, [0], 3) == 6
    flower, trace = l_intersecting_find(fam, [0], 3)
    assert flower is not None and flower.core.elements == ()
    assert trace.found and trace.levels[-1].outcome == "base-extracted"


def test_two_sizes_star():
    fam = SetFamily(4, [[0, 1], [0, 2], [0, 3]])
    flower, trace = l_intersecting_find(fam, [0, 1], 3)
    assert flower is not None and flower.core.elements == (0,)
    assert [lvl.outcome for lvl in trace.levels] == ["recursed", "base-extracted"]
    top = trace.levels[0]
    assert top.pivot == (0, 1) and top.pivot_link == (0,)
    assert top.filtered_size == 3 and top.link_size == 3


def test_too_few_sets_is_structured_not_error():
    fam = SetFamily(4, [[0, 1], [2, 3]])
    flower, trace = l_intersecting_find(fam, [0], 3)
    assert flower is None and not trace.found
    assert trace.levels[0].outcome == "too-few-sets"


def test_preconditions():
    with pytest.raises(FinderError):
        l_intersecting_find(TRIANGLE, [], 3)
    with pytest.raises(FinderError):
        l_intersecting_find(TRIANGLE, [2], 3)  # sizes must stay below n
    with pytest.raises(FinderError):
        l_intersecting_find(TRIANGLE, [0], 3)  # family is {1}-intersecting
    with pytest.raises(FinderError, match="family must be n-uniform with n >= 1"):
        l_intersecting_find(SetFamily(4, [[0], [1, 2]]), [0], 2)
    with pytest.raises(FinderError):
        l_intersecting_find(TRIANGLE, [1], 1)


FORGED_CERTIFICATE = textwrap.dedent("""
    import sys
    from sunflowers import ElementSet, SetFamily, Sunflower, finders

    # a valid sunflower whose sets are not members of the family
    forged = Sunflower((ElementSet([0, 4]), ElementSet([1, 4])), ElementSet([4]))
    finders._search = lambda *args: forged
    try:
        finders.l_intersecting_find(SetFamily(6, [[0, 1], [2, 3]]), [0], 2)
    except finders.LemmaViolationError as exc:
        print(sys.flags.optimize, exc)
    else:
        print(sys.flags.optimize, "accepted")
""")


def test_certificate_check_survives_python_O():
    src = os.path.dirname(os.path.dirname(sunflowers.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-O", "-c", FORGED_CERTIFICATE],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 certificate uses sets outside the family\n"


def test_failed_lift_certificate_is_an_internal_error(monkeypatch, tmp_path, capsys):
    # the child sunflower {{}, {e}} with e in the pivot link lifts to two equal sets
    linked = []
    real_link, real_search = finders.link, finders._search

    def recording_link(family, t):
        linked.append(t)
        return real_link(family, t)

    def forged_below_the_top(family, sizes, r, m, depth, levels):
        if depth == 0:
            return real_search(family, sizes, r, m, depth, levels)
        return Sunflower((ElementSet(), ElementSet(linked[-1].elements[:1])), ElementSet())

    monkeypatch.setattr(finders, "link", recording_link)
    monkeypatch.setattr(finders, "_search", forged_below_the_top)
    fam = gen_all_k_subsets(5, 2)
    with pytest.raises(LemmaViolationError, match="certificate verification failed"):
        l_intersecting_find(fam, [0, 1], 3)
    path = tmp_path / "pairs5.txt"
    path.write_text(dump_family_text(fam))
    code = main(["find", str(path), "--r", "3", "--strategy", "recursive"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == "" and "certificate verification failed" in captured.err


FORGED = Sunflower((ElementSet([0, 4]), ElementSet([1, 4])), ElementSet([4]))  # not members


@pytest.mark.parametrize("fam, r, patched, wrong, message", [
    # a profile forged to {1} on disjoint pairs sends them to the extraction
    (SetFamily(8, [[0, 1], [2, 3], [4, 5], [6, 7]]), 3, "intersection_profile",
     lambda family: frozenset({1}), "common intersection has size 0, pairwise size is 1"),
    # a profile forged to {1, 2} on 8 disjoint triples: the pivot meets only itself
    (SetFamily(24, [[3 * i, 3 * i + 1, 3 * i + 2] for i in range(8)]), 3,
     "intersection_profile", lambda family: frozenset({1, 2}),
     "pigeonhole guarantee for the pivot failed"),
    # a pivot subset that no member holds
    (gen_all_k_subsets(5, 2), 3, "_subset_masks", lambda elements, k: iter([1 << 63]),
     "pigeonhole guarantee for the pivot link failed"),
    (SetFamily(6, [[0, 1], [2, 3]]), 2, "_search", lambda *args: FORGED,
     "certificate uses sets outside the family"),
], ids=["deza-core", "pivot", "pivot-link", "members"])
def test_a_broken_extraction_step_is_an_internal_error(monkeypatch, tmp_path, capsys, fam, r,
                                                       patched, wrong, message):
    monkeypatch.setattr(finders, patched, wrong)
    with pytest.raises(LemmaViolationError, match=message):
        find_any(fam, r, strategy="recursive")
    path = tmp_path / "fam.txt"
    path.write_text(dump_family_text(fam))
    code = main(["find", str(path), "--r", str(r), "--strategy", "recursive"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == f"internal error: LemmaViolationError('{message}')\n"


GUARANTEE_CASES = [
    # (family, L): families strictly above the multinomial threshold
    (SetFamily(14, [[2 * i, 2 * i + 1] for i in range(7)]), [0]),
    (gen_all_k_subsets(7, 2), [0, 1]),  # 21 > 18
    (gen_sunflower(1, 1, 5), [1]),  # 5 > 3
    (gen_sunflower(2, 1, 8), [2]),  # 8 > 7
    (gen_sunflower(1, 2, 22), [1]),  # 22 > 21
    (SetFamily(66, [[3 * i, 3 * i + 1, 3 * i + 2] for i in range(22)]), [0]),  # 22 > 21
]


@pytest.mark.parametrize("fam,L", GUARANTEE_CASES)
def test_guarantee_above_threshold(fam, L):
    n = fam.uniformity
    assert len(fam) > l_multinomial_bound(n, L, 3)
    flower, trace = l_intersecting_find(fam, L, 3)
    assert flower is not None and trace.found
    member_masks = set(fam.masks)
    assert all(s.mask in member_masks for s in flower.petal_sets)
    assert is_sunflower(flower.petal_sets) == flower.core
    assert brute_force_sunflower(fam, 3) is not None


def test_trace_pigeonhole_arithmetic():
    corpus = [
        (gen_all_k_subsets(7, 2), [0, 1]),
        (gen_all_k_subsets(6, 3), [0, 1, 2]),
        (gen_random_L_intersecting(10, 3, [0, 1], 12, seed=5), [0, 1]),
    ]
    for fam, L in corpus:
        flower, trace = l_intersecting_find(fam, L, 3)
        assert len(trace.levels) <= len(L)
        for lvl in trace.levels:
            if lvl.outcome in ("recursed",):
                l1 = lvl.L[0]
                assert lvl.filtered_size * lvl.m >= lvl.family_size
                assert lvl.link_size * math.comb(lvl.n, l1 + 1) >= lvl.filtered_size
                assert len(lvl.subfamily) <= lvl.m


def test_recursed_level_links_the_whole_family():
    # every member holding the pivot link is in the filtered family, so the
    # link the extractor recurses on is the family's own link
    for x, n, L, seed in [(12, 3, [0, 1], s) for s in range(20)] + [(10, 4, [0, 1, 2], 3)]:
        fam = gen_random_L_intersecting(x, n, L, 20, seed=seed)
        _, trace = l_intersecting_find(fam, L, 3)
        top = trace.levels[0]
        assert top.outcome == "recursed", (x, n, L, seed)
        linked = link(fam, ElementSet(top.pivot_link))
        assert top.link_size == len(linked) == trace.levels[1].family_size
        assert linked.uniformity == n - L[0] - 1


def test_soundness_on_random_corpus():
    for seed in range(40):
        fam = gen_random_uniform(10, 3, 16, seed=seed)
        L = sorted(intersection_profile(fam))
        if not L:
            continue
        flower, _ = l_intersecting_find(fam, L, 3)
        if flower is not None:
            member_masks = set(fam.masks)
            assert all(s.mask in member_masks for s in flower.petal_sets)
            assert is_sunflower(flower.petal_sets) == flower.core
            assert brute_force_sunflower(fam, 3) is not None


# -- dispatcher ---------------------------------------------------------------------

def test_find_any_on_sunflower_family():
    fam = gen_sunflower(2, 1, 4)
    outcome = find_any(fam, 3)
    assert outcome.status == "found"
    assert is_sunflower(outcome.sunflower.petal_sets) == outcome.sunflower.core


def test_find_any_triangle_definitive_absent():
    outcome = find_any(TRIANGLE, 3)
    assert outcome.status == "absent" and outcome.method == "brute-force"


def test_find_any_budget_exceeded_is_unknown():
    fam = gen_all_k_subsets(10, 5)  # 252 members
    outcome = find_any(fam, 3, strategy="brute", budget=10)
    assert outcome.status == "unknown" and "budget" in outcome.note


@pytest.mark.parametrize("strategy", ["auto", "brute"])
def test_find_any_budget_caps_the_subset_count(strategy):
    fam = gen_transversal(3, 2)  # 8 sets, no 3-sunflower
    total = math.comb(len(fam), 3)
    short = find_any(fam, 3, strategy=strategy, budget=total - 1)
    assert short.status == "unknown" and short.method == "brute-force"
    assert short.note == f"{total} r-subsets exceed budget {total - 1}"
    exact = find_any(fam, 3, strategy=strategy, budget=total)
    assert exact.status == "absent" and exact.method == "brute-force" and exact.note == ""


def test_find_any_refuses_a_negative_budget(tmp_path, capsys):
    with pytest.raises(FinderError, match="budget must be >= 0"):
        find_any(TRIANGLE, 3, budget=-1)
    path = tmp_path / "triangle.txt"
    path.write_text("x=3\n0 1\n0 2\n1 2\n")
    assert main(["find", str(path), "--r", "3", "--budget", "-1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "budget must be >= 0" in captured.err


def test_find_any_recursive_only_never_claims_absent():
    outcome = find_any(TRIANGLE, 3, strategy="recursive")
    assert outcome.status == "unknown"


def test_find_any_agrees_with_brute_on_random_family():
    fam = gen_random_uniform(30, 3, 60, seed=1)
    outcome = find_any(fam, 3)
    brute = brute_force_sunflower(fam, 3)
    assert (outcome.status == "found") == (brute is not None)


@pytest.mark.parametrize("fam,method", [(gen_sunflower(1, 1, 5), "recursive"),
                                        (TRIANGLE, "brute-force")])
def test_find_any_reaches_the_extractor_through_l_intersecting_find(monkeypatch, fam, method):
    calls = []
    real = finders.l_intersecting_find

    def counted(family, L, r):
        calls.append((family, sorted(L), r))
        return real(family, L, r)

    monkeypatch.setattr(finders, "l_intersecting_find", counted)
    assert find_any(fam, 3).method == method
    assert calls == [(fam, sorted(intersection_profile(fam)), 3)]


def test_find_any_validates():
    with pytest.raises(FinderError):
        find_any(TRIANGLE, 1)
    with pytest.raises(FinderError):
        find_any(TRIANGLE, 3, strategy="magic")
