import gc
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

from sunflowers import (
    FamilyError,
    SetFamily,
    audit_encoding_bound,
    audit_markov_step,
)
from sunflowers import encoding
from sunflowers.cli import main
from sunflowers.families import _subset_masks, elements_of, mask_of
from sunflowers.generators import gen_random_L_intersecting

from _oracles import bad_members_by_witness_table, others_inside_unions

MATCHING = SetFamily(6, [[0, 1], [2, 3], [4, 5]])


def seeded_d_intersecting(x, n, d, size, seed):
    L = range(min(d, n - 1) + 1) if n > 0 else [0]
    return gen_random_L_intersecting(x, n, L, size, seed=seed, budget=50_000)


def bad_pairs_of_the_pass(fam, w_size, d):
    """The (W, S) mask pairs, over every W of w_size elements, that the
    bitset pass finds bad at threshold d."""
    bad, _, _ = encoding._bad_members_by_w(fam, w_size, d)
    x = fam.ground_size
    return {(encoding._w_mask(x, w_size, i), s)
            for s, bits in zip(fam.masks, bad) for i in elements_of(bits)}


# -- goodness --------------------------------------------------------------------

def test_threshold_n_always_good_with_self_witness():
    fam = SetFamily(6, [[0, 1, 2], [1, 3, 4]])
    for w_size in range(7):
        assert bad_pairs_of_the_pass(fam, w_size, 3) == set()


def test_threshold_zero_good_iff_member_inside_w():
    for seed in range(4):
        fam = seeded_d_intersecting(7, 2, 1, 6, seed)
        if len(fam) == 0:
            continue
        for w_size in range(8):
            bad = bad_pairs_of_the_pass(fam, w_size, 0)
            for w in _subset_masks(range(7), w_size):
                member_inside = any(s & ~w == 0 for s in fam.masks)
                for s in fam.masks:
                    assert ((w, s) not in bad) == member_inside


def test_explicit_good_pair():
    fam = SetFamily(6, [[0, 1, 2], [3, 4, 5]])
    bad = bad_pairs_of_the_pass(fam, 2, 1)
    assert (mask_of([0, 1]), mask_of([0, 1, 2])) not in bad
    assert (mask_of([0, 1]), mask_of([3, 4, 5])) in bad


def test_member_contained_in_w_is_always_good():
    fam = SetFamily(5, [[0, 1], [2, 3]])
    bad = bad_pairs_of_the_pass(fam, 3, 0)
    assert not any(w == mask_of([0, 1, 4]) for w, _ in bad)
    assert (mask_of([0, 2, 4]), mask_of([0, 1])) in bad


def test_badness_monotone_in_threshold():
    for seed in range(6):
        fam = seeded_d_intersecting(8, 3, 2, 8, seed)
        for w_size in range(9):
            for d in range(3):
                assert bad_pairs_of_the_pass(fam, w_size, d + 1) <= \
                    bad_pairs_of_the_pass(fam, w_size, d)


def test_bad_pair_implies_large_outside_part():
    for seed in range(4):
        fam = seeded_d_intersecting(8, 3, 1, 8, seed)
        for w_size in range(9):
            for w, s in bad_pairs_of_the_pass(fam, w_size, 1):
                assert (s & ~w).bit_count() > 1  # self-witness exclusion


# -- encoding and decoding ----------------------------------------------------------

def test_encode_examples():
    # (W, S) is keyed by (W u S, W n S), so two pairs share a key iff both parts agree
    masks = (mask_of([0, 1]), mask_of([1, 2, 3]))
    a = (mask_of([0, 1]), mask_of([1, 2, 3]))
    same_key = (mask_of([1, 2, 3]), mask_of([0, 1]))  # ({0, 1, 2, 3}, {1}) again
    other_meet = (mask_of([0, 2, 3]), mask_of([1, 2, 3]))  # ({0, 1, 2, 3}, {2, 3})
    assert encoding._check_bad_pairs(masks, 2, 3, [a, same_key])[0] is False
    assert encoding._check_bad_pairs(masks, 2, 3, [a, other_meet])[0] is True


def test_decode_failure_on_ambiguous_union():
    masks = SetFamily(4, [[0, 1], [2, 3]]).masks
    # the union {0, 1, 2, 3} holds 2 members, the union {0} holds 0 members
    assert encoding._decode_masks(masks, mask_of([0, 1, 2, 3]), 0) is None
    assert encoding._decode_masks(masks, mask_of([0]), 0) is None
    # with one member inside, the key decodes
    assert encoding._decode_masks(masks, mask_of([0, 1, 2]), mask_of([1])) == (
        mask_of([1, 2]), mask_of([0, 1]))


def test_roundtrip_exhaustive_small():
    checked = 0
    for seed in range(8):
        for d in (0, 1, 2):
            fam = seeded_d_intersecting(6, 2, d, 6, seed)
            if len(fam) == 0:
                continue
            for w_size in range(7):
                pairs = bad_pairs_of_the_pass(fam, w_size, d)
                assert encoding._check_bad_pairs(fam.masks, w_size, 2, pairs) == (True, True, True)
                checked += len(pairs)
    assert checked > 100


# -- counting ------------------------------------------------------------------------

def test_no_bad_pairs_at_threshold_n():
    fam = seeded_d_intersecting(8, 3, 2, 8, seed=0)
    for w_size in range(9):
        assert bad_pairs_of_the_pass(fam, w_size, 3) == set()


def test_disjoint_family_all_bad_at_empty_w():
    assert bad_pairs_of_the_pass(MATCHING, 0, 0) == {(0, s) for s in MATCHING.masks}


def test_bad_members_match_witness_table_oracle():
    for seed in range(10):
        fam = seeded_d_intersecting(8, 3, 1, 8, seed)
        sets = [s.elements for s in fam.members]
        bad = {w_size: bad_pairs_of_the_pass(fam, w_size, 1) for w_size in range(9)}
        for bits in range(0, 1 << 8, 11):
            ours = [set(elements_of(s)) for s in fam.masks if (bits, s) in bad[bits.bit_count()]]
            w_elems = list(elements_of(bits))
            oracle = [set(s) for s in bad_members_by_witness_table(8, sets, w_elems, 1)]
            assert ours == oracle


# -- audits --------------------------------------------------------------------------

def test_audit_matching_family():
    audit = audit_encoding_bound(MATCHING, 3, 1)
    assert audit.p == Fraction(1, 2)
    assert audit.num_w == 20
    assert audit.bound == 320  # (2/p)^n * C(6,3) = 16 * 20
    assert audit.total_bad_pairs == 0
    assert audit.injective and audit.roundtrip_ok and audit.union_sizes_ok
    assert audit.passed


def test_audit_counts_nonzero_case():
    # disjoint family, d = 0: every (W, S) with S notsubset W and no member
    # inside W is bad, so small W leave bad pairs
    audit = audit_encoding_bound(MATCHING, 1, 0)
    assert audit.total_bad_pairs > 0
    assert audit.passed


def test_markov_matching_family():
    mk = audit_markov_step(MATCHING, 3, 1, 1)
    assert mk.fraction == 0
    assert mk.rhs == Fraction(16, 3)
    assert mk.vacuous and mk.holds


def test_markov_nonvacuous_case():
    fam = SetFamily(8, [[2 * i, 2 * i + 1] for i in range(4)])
    mk = audit_markov_step(fam, 4, Fraction(1, 2), 0)
    if not mk.vacuous:
        assert mk.holds
    # either way the exact fraction is a genuine probability
    assert 0 <= mk.fraction <= 1


def test_audit_validation():
    with pytest.raises(FamilyError):
        audit_encoding_bound(SetFamily(4, [[0, 1], [0, 2], [1, 2]]), 2, 0)  # not 0-intersecting
    with pytest.raises(ValueError):
        audit_encoding_bound(MATCHING, 0, 1)
    with pytest.raises(ValueError):
        audit_markov_step(MATCHING, 3, 0, 1)
    with pytest.raises(FamilyError):
        audit_markov_step(SetFamily(4, []), 2, 1, 1)


def test_an_audit_over_the_bit_budget_is_refused_before_the_pass(monkeypatch, capsys, tmp_path):
    def no_pass(*args):
        raise AssertionError("the W pass started")

    fam = SetFamily(40, [[0, 1], [2, 3]])  # (40 + 4) C(40, 20) bits, about 706 GiB
    monkeypatch.setattr(encoding, "_w_table", no_pass)
    monkeypatch.setattr(encoding, "_bad_members_by_w", no_pass)
    for audit in (lambda: audit_encoding_bound(fam, 20, 0),
                  lambda: audit_markov_step(fam, 20, Fraction(1, 2), 0)):
        with pytest.raises(ValueError, match="over budget"):
            audit()
    path = tmp_path / "f40.txt"
    path.write_text("x=40\n0 1\n2 3\n")
    code = main(["encode-audit", str(path), "--px", "20", "--d", "0"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and "over budget" in captured.err


def test_the_bit_budget_counts_every_bitset_of_the_pass(monkeypatch):
    bits = (6 + 2 * len(MATCHING)) * 20  # C(6, 3) = 20 W sets
    monkeypatch.setattr(encoding, "_BITS_LIMIT", bits)
    assert audit_encoding_bound(MATCHING, 3, 1).passed
    monkeypatch.setattr(encoding, "_BITS_LIMIT", bits - 1)
    with pytest.raises(ValueError, match=f"needs {bits} bitset bits"):
        audit_encoding_bound(MATCHING, 3, 1)


def test_audit_random_corpus_no_violations():
    checked = 0
    for seed in range(30):
        x = 5 + seed % 4
        n = 1 + seed % 3
        d = seed % 3
        fam = seeded_d_intersecting(x, n, d, 4 + seed % 5, seed)
        if len(fam) == 0:
            continue
        for w_size in range(1, x // 2 + 1):
            audit = audit_encoding_bound(fam, w_size, d)
            assert audit.passed, (seed, x, n, d, w_size, audit)
            for delta in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
                mk = audit_markov_step(fam, w_size, delta, d)
                assert mk.holds, (seed, x, n, d, w_size, delta, mk)
            checked += 1
    assert checked > 40


# -- the one W pass ------------------------------------------------------------

def count_w_passes(monkeypatch):
    """The (x, |W|) of every W pass the audits run from now on."""
    calls = []
    real = encoding._bad_members_by_w

    def counting(family, w_size, d):
        calls.append((family.ground_size, w_size))
        return real(family, w_size, d)

    monkeypatch.setattr(encoding, "_bad_members_by_w", counting)
    return calls


def test_one_w_pass_serves_both_audits_and_every_delta(monkeypatch):
    audit_encoding_bound(MATCHING, 2, 1)  # the kept pass now belongs to another family
    fam = seeded_d_intersecting(9, 3, 1, 10, 3)
    assert len(fam) > 1
    calls = count_w_passes(monkeypatch)
    assert audit_encoding_bound(fam, 3, 1).passed
    for delta in (Fraction(1, 4), Fraction(1, 2), 1):
        assert audit_markov_step(fam, 3, delta, 1).holds
    assert calls == [(9, 3)]


def test_encode_audit_cli_enumerates_w_once(monkeypatch, capsys, tmp_path):
    audit_encoding_bound(MATCHING, 2, 1)
    path = tmp_path / "fam.txt"
    path.write_text("x=7\n0 1 2\n0 3 4\n1 3 5\n2 4 5\n")
    calls = count_w_passes(monkeypatch)
    assert main(["encode-audit", str(path), "--px", "3", "--d", "1", "--delta", "1/2"]) == 0
    capsys.readouterr()
    assert calls == [(7, 3)]


def oracle_bad_counts(fam, w_size, d):
    sets = [s.elements for s in fam.members]
    return [len(bad_members_by_witness_table(fam.ground_size, sets, w, d))
            for w in combinations(range(fam.ground_size), w_size)]


def test_interleaved_audits_match_the_oracle_pass():
    families = [(seeded_d_intersecting(8, 3, 1, 8, seed), 1) for seed in range(3)]
    families += [(seeded_d_intersecting(8, 2, 0, 4, seed), 0) for seed in range(2)]
    cases = [(fam, w_size, d) for fam, d0 in families for w_size in (2, 3, 4)
             for d in (d0, d0 + 1)]
    counts = {case: oracle_bad_counts(*case) for case in cases}
    # a stale pass would show: most cases differ in their per-W bad counts
    assert len({tuple(c) for c in counts.values()}) > len(cases) // 2
    rng = random.Random(5)
    case = cases[0]
    for _ in range(80):
        if rng.random() > 0.3:  # otherwise repeat the last case: a memo hit
            case = rng.choice(cases)
        fam, w_size, d = case
        want = counts[case]
        if rng.random() < 0.5:
            audit = audit_encoding_bound(fam, w_size, d)
            assert audit.total_bad_pairs == sum(want)
            assert audit.per_w_max == max(want)
        else:
            delta = rng.choice([Fraction(1, len(fam)), Fraction(2, len(fam)), Fraction(1, 2)])
            mk = audit_markov_step(fam, w_size, delta, d)
            assert mk.exceed_count == sum(c >= delta * len(fam) for c in want)


def test_checks_run_on_a_memo_hit():
    declared = audit_encoding_bound(SetFamily(5, [], uniform=2), 2, 1)
    assert declared.passed and declared.total_bad_pairs == 0
    with pytest.raises(FamilyError, match="n-uniform"):
        audit_encoding_bound(SetFamily(5, []), 2, 1)
    assert audit_markov_step(MATCHING, 3, 1, 1).holds
    with pytest.raises(ValueError, match="must be positive"):
        audit_markov_step(MATCHING, 3, 0, 1)


# -- the bitset pass and its pair checks ---------------------------------------

@st.composite
def audit_cases(draw):
    """(family, w_size, d): a seeded d-intersecting n-uniform family, or the
    empty family declared n-uniform, with x <= 12, 0 < w_size < x and
    0 <= d <= n + 1."""
    x = draw(st.sampled_from(range(12, 1, -1)))  # large first: examples lean large
    n = draw(st.sampled_from(range(min(4, x), 0, -1)))
    d = draw(st.integers(0, n + 1))
    w_size = draw(st.integers(1, x - 1))
    size = draw(st.sampled_from(range(14, -1, -1)))
    if size == 0:
        return SetFamily(x, [], uniform=n), w_size, d
    return seeded_d_intersecting(x, n, d, size, draw(st.integers(0, 10**6))), w_size, d


@given(audit_cases())
@example((SetFamily(5, [], uniform=2), 2, 1))
@example((MATCHING, 1, 0))
@example((seeded_d_intersecting(12, 3, 1, 14, 0), 4, 1))
@example((seeded_d_intersecting(12, 4, 2, 12, 1), 6, 2))
@example((seeded_d_intersecting(11, 3, 0, 6, 2), 5, 0))
def test_bitset_pass_matches_the_witness_table_oracle(case):
    fam, w_size, d = case
    x = fam.ground_size
    all_w = list(combinations(range(x), w_size))
    oracle = [bad_members_by_witness_table(x, [s.elements for s in fam.members], w, d)
              for w in all_w]
    bad, collide, planes = encoding._bad_members_by_w(fam, w_size, d)
    assert [encoding._w_mask(x, w_size, i) for i in range(len(all_w))] == \
        [mask_of(w) for w in all_w]
    for i, want in enumerate(oracle):
        assert [set(s.elements) for s, bits in zip(fam.members, bad) if bits >> i & 1] == \
            [set(s) for s in want]
        others = others_inside_unions([s.elements for s in fam.members], all_w[i])
        assert [bool(bits >> i & 1) for bits in collide] == [bool(o) for o in others]
    # the lemma: at threshold d no bad pair of a d-intersecting family collides
    assert not any(b & c for b, c in zip(bad, collide))
    want_counts = [len(b) for b in oracle]
    assert [sum((p >> i & 1) << j for j, p in enumerate(planes))
            for i in range(len(all_w))] == want_counts
    if d >= fam.uniformity:  # every member witnesses itself
        assert sum(want_counts) == 0
    audit = audit_encoding_bound(fam, w_size, d)
    assert audit.injective and audit.roundtrip_ok and audit.union_sizes_ok
    assert audit.total_bad_pairs == sum(want_counts)
    assert audit.per_w_max == max(want_counts)
    assert audit.worst_w.elements == all_w[want_counts.index(max(want_counts))]
    for delta in ((Fraction(1, len(fam)), Fraction(1, 2), Fraction(1)) if len(fam) else ()):
        mk = audit_markov_step(fam, w_size, delta, d)
        assert mk.exceed_count == sum(c >= delta * len(fam) for c in want_counts)


def test_pair_checks_fail_on_forged_pairs():
    # members {0, 1} and {2, 3} on 6 points; each pair lists (W, S) as masks
    masks = (mask_of([0, 1]), mask_of([2, 3]))
    genuine = (mask_of([2, 4]), mask_of([0, 1]))
    assert encoding._check_bad_pairs(masks, 2, 2, [genuine, genuine]) == (True, True, True)
    # the union {0, 1, 2, 3} holds both members, so it decodes to neither
    both_inside = (mask_of([2, 3]), mask_of([0, 1]))
    assert encoding._check_bad_pairs(masks, 2, 2, [genuine, both_inside]) == (True, False, True)
    # ({2}, {0, 1}) and ({0}, {1, 2}) share the key ({0, 1, 2}, {})
    one_key = [(mask_of([2]), mask_of([0, 1])), (mask_of([0]), mask_of([1, 2]))]
    assert encoding._check_bad_pairs((mask_of([0, 1]), mask_of([1, 2])), 1, 2, one_key)[0] is False
    # |{0, 1, 4, 5}| = 4 > w_size + n = 3; it still decodes
    too_wide = (mask_of([4, 5]), mask_of([0, 1]))
    assert encoding._check_bad_pairs(masks, 1, 2, [too_wide]) == (True, True, False)
    # keys that decode to nothing: 2 members, then 0 members, inside the union
    assert encoding._decode_masks(masks, mask_of([0, 1, 2, 3]), 0) is None
    assert encoding._decode_masks(masks, mask_of([0]), 0) is None
    no_member = (mask_of([0]), mask_of([4]))  # S = {4} is no member
    assert encoding._check_bad_pairs(masks, 1, 2, [no_member]) == (True, False, True)


def test_negative_d_is_refused_after_a_memo_hit(monkeypatch):
    fam = seeded_d_intersecting(9, 3, 1, 10, 3)
    calls = count_w_passes(monkeypatch)
    audit_encoding_bound(fam, 3, 1)
    for run in (lambda d: audit_encoding_bound(fam, 3, d),
                lambda d: audit_markov_step(fam, 3, Fraction(1, 2), d)):
        run(1)  # served by the pass the family keeps
        with pytest.raises(FamilyError, match="d must be >= 0"):
            run(-1)
    assert calls == [(9, 3)]
    with pytest.raises(FamilyError, match="d must be >= 0"):
        audit_encoding_bound(SetFamily(5, [], uniform=2), 2, -1)


def test_a_family_keeps_only_its_last_w_pass(monkeypatch):
    fam = seeded_d_intersecting(9, 3, 1, 10, 3)
    calls = count_w_passes(monkeypatch)
    for w_size, d in ((3, 1), (3, 1), (4, 1), (3, 1), (3, 2), (3, 2)):
        audit_encoding_bound(fam, w_size, d)
    assert calls == [(9, 3), (9, 4), (9, 3), (9, 3)]


def test_the_w_pass_goes_with_its_family():
    audit_encoding_bound(MATCHING, 2, 1)  # any pass held elsewhere is now a small one
    fam = seeded_d_intersecting(14, 3, 1, 20, 1)
    encoding._w_table(14, 5)  # the element bitsets are a cache of their own
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        audit_encoding_bound(fam, 5, 1)
        held = tracemalloc.get_traced_memory()[0] - before
        del fam
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held > 10_000  # the pass: 2 * 20 bitsets of C(14, 5) = 2002 bits, and the count planes
    assert kept < held / 10


# -- which pairs are decoded -----------------------------------------------------

def bad_pairs_by_oracle(fam, w_size, d):
    """The (W, S) mask pairs that are bad at threshold d, member by member,
    each with whether its union holds another member."""
    sets = [s.elements for s in fam.members]
    pairs = []
    for j, s in enumerate(sets):
        for w in combinations(range(fam.ground_size), w_size):
            if set(s) in [set(b) for b in bad_members_by_witness_table(fam.ground_size, sets, w, d)]:
                pairs.append((mask_of(w), mask_of(s), bool(others_inside_unions(sets, w)[j])))
    return pairs


def spy_on_pair_checks(patch):
    seen = []
    real = encoding._check_bad_pairs

    def spying(masks, w_size, n, pairs):
        pairs = list(pairs)
        seen.append(pairs)
        return real(masks, w_size, n, pairs)

    patch.setattr(encoding, "_check_bad_pairs", spying)
    return seen


def test_no_pair_is_decoded_on_benchmark_like_fixtures(monkeypatch):
    seen = spy_on_pair_checks(monkeypatch)
    total = 0
    for k in range(6):
        fam = seeded_d_intersecting(12 + k % 2, 3, 1, 10 + k, 100 + k)
        audit = audit_encoding_bound(fam, 4, 1)
        assert audit.passed
        total += audit.total_bad_pairs
    assert total > 1000  # the bad pairs are there; none of them collides
    assert seen == [[]] * 6


@st.composite
def uniform_families(draw):
    """(family, w_size, d): any n-uniform family on x <= 8 points, most of
    them not d-intersecting, so that bad pairs collide."""
    x = draw(st.integers(3, 8))
    n = draw(st.integers(1, min(3, x - 1)))
    sets = draw(st.lists(st.sampled_from(list(combinations(range(x), n))),
                         max_size=8, unique=True))
    fam = SetFamily(x, sets, uniform=n)
    return fam, draw(st.integers(1, x - 1)), draw(st.integers(0, n))


TRIANGLE = SetFamily(4, [[0, 1], [0, 2], [1, 2]])


@given(uniform_families())
@example((TRIANGLE, 1, 0))
@example((SetFamily(6, [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 5]]), 2, 0))
def test_only_colliding_bad_pairs_are_checked_and_the_flags_hold(case):
    fam, w_size, d = case
    # admit families that are not d-intersecting, where pairs can fail
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(encoding, "is_d_intersecting", lambda family, d: True)
        seen = spy_on_pair_checks(patch)
        audit = audit_encoding_bound(fam, w_size, d)
    pairs = bad_pairs_by_oracle(fam, w_size, d)
    assert seen == [[(w, s) for w, s, collides in pairs if collides]]
    # the flags are those of checking every bad pair
    assert (audit.injective, audit.roundtrip_ok, audit.union_sizes_ok) == \
        encoding._check_bad_pairs(fam.masks, w_size, fam.uniformity, [(w, s) for w, s, _ in pairs])
    if fam is TRIANGLE:  # ({2}, {0, 1}) and ({0}, {1, 2}) share the key ({0, 1, 2}, {})
        assert not audit.injective and not audit.roundtrip_ok and audit.union_sizes_ok


# -- the Markov cutoff in integers ------------------------------------------------

@pytest.mark.parametrize("fam, w_size, d", [
    (seeded_d_intersecting(12, 3, 1, 14, 0), 4, 1),
    (seeded_d_intersecting(9, 3, 1, 10, 3), 3, 1),
    (seeded_d_intersecting(10, 3, 2, 12, 2), 4, 2),
])
def test_markov_cutoff_at_and_beside_integer_thresholds(fam, w_size, d):
    want = oracle_bad_counts(fam, w_size, d)
    size = len(fam)
    tiny = Fraction(1, 10**9)
    checked = 0
    for k in sorted(set(want) | {max(want) + 1}):
        if k == 0:
            continue
        for delta in (Fraction(k, size), Fraction(k, size) + tiny, Fraction(k, size) - tiny):
            mk = audit_markov_step(fam, w_size, delta, d)
            assert mk.exceed_count == sum(Fraction(c) >= delta * size for c in want), delta
            checked += 1
    assert checked >= 9


# -- the W table and the count planes ---------------------------------------------

def test_w_table_marks_the_subset_masks_holding_each_element():
    for x in range(14):
        for k in range(x + 1):
            w_masks = list(_subset_masks(range(x), k))
            want = tuple(sum(1 << i for i, w in enumerate(w_masks) if w >> e & 1)
                         for e in range(x))
            assert encoding._w_table(x, k) == want, (x, k)


def plane_statistics(counts, cutoff):
    """(max, first position at the max, positions >= cutoff) read off the
    bit planes of the per-position counts."""
    # bitsets whose column sums are the counts: bitset t marks count > t
    bitsets = [sum(1 << i for i, c in enumerate(counts) if c > t) for t in range(max(counts))]
    planes = encoding._bit_planes(bitsets)
    full = (1 << len(counts)) - 1
    high, first = encoding._plane_max(planes, full)
    above = encoding._at_least(planes, cutoff, full)
    return high, first, [i for i in range(len(counts)) if above >> i & 1]


@pytest.mark.parametrize("counts", [
    [0, 0, 0],
    [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5],
    [7, 2, 7, 7, 0, 7],  # ties at the maximum: the first one counts
    [4, 6, 6, 5, 1, 6],
    [8, 7, 8, 15, 16, 16, 1],
])
def test_plane_statistics_match_the_counts(counts):
    for cutoff in sorted({0, 1, max(counts), max(counts) + 1, 2 * max(counts) + 5} | set(counts)):
        high, first, above = plane_statistics(counts, cutoff)
        assert high == max(counts)
        assert first == counts.index(max(counts))
        assert above == [i for i, c in enumerate(counts) if c >= cutoff], cutoff
    assert plane_statistics(counts, 0)[2] == list(range(len(counts)))
    assert plane_statistics(counts, max(counts) + 1)[2] == []


@given(st.lists(st.integers(0, 40), min_size=1, max_size=70), st.integers(0, 80))
def test_plane_statistics_match_random_counts(counts, cutoff):
    high, first, above = plane_statistics(counts, cutoff)
    assert (high, first) == (max(counts), counts.index(max(counts)))
    assert above == [i for i, c in enumerate(counts) if c >= cutoff]
