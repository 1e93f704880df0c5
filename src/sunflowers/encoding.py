"""Good/bad pair classification and the bad-pair encoding audit.

A pair (W, S) with S a member is *good* at threshold w when some member
S' has S'\\W inside S\\W with |S'\\W| <= w (S' witnesses the goodness,
possibly S itself), and *bad* otherwise.  For a d-intersecting family the
map (W, S) -> (W u S, W n S) is injective on bad pairs: any member inside
W u S would witness goodness unless it meets S in more than d elements,
which forces it to BE S -- so S is recoverable as the unique member inside
the union, and W follows from the meet.  One pass over every W of a fixed
size finds the bad members; both audits, the Markov one at every delta,
read it to verify in exact rational arithmetic the injectivity, the decode
round-trip, the (2/p)^n * C(x, px) count bound, and the Markov fraction
bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .families import (
    ElementSet,
    FamilyError,
    Rational,
    SetFamily,
    _positive_fraction,
    _subset_masks,
    is_d_intersecting,
)


class DecodeError(ValueError):
    """Key does not identify a unique member: the encoded pair was not a
    bad pair of a d-intersecting family."""


@dataclass(frozen=True)
class PairClassification:
    """Verdict for one (W, S) pair at threshold w; the verdict is
    authoritative (the witness scan is exhaustive in canonical order)."""

    w_set: ElementSet
    member: ElementSet
    w: int
    good: bool
    witness: Optional[ElementSet]


@dataclass(frozen=True)
class EncodingKey:
    union_part: ElementSet
    meet_part: ElementSet

    def __post_init__(self):
        if not self.meet_part.issubset(self.union_part):
            raise FamilyError("meet part must be inside the union part")


def classify_pair(family: SetFamily, w_set: ElementSet, member: ElementSet, w: int) -> PairClassification:
    """Classify (W, member) at threshold w by scanning the family in
    canonical order for the first witness."""
    if member.mask not in set(family.masks):
        raise FamilyError(f"{member!r} is not a member of the family")
    i = _first_witness(family.masks, w_set.mask, member.mask, w)
    witness = None if i is None else family.members[i]
    return PairClassification(w_set=w_set, member=member, w=w, good=i is not None, witness=witness)


def _first_witness(masks: Sequence[int], wm: int, member: int, w: int) -> Optional[int]:
    """Index of the first mask S' with S'\\W inside member\\W and
    |S'\\W| <= w, else None (the pair (W, member) is bad)."""
    if w < 0:
        raise ValueError(f"threshold w must be >= 0, got {w}")
    target = member & ~wm
    for i, cand in enumerate(masks):
        outside = cand & ~wm
        if outside & ~target == 0 and outside.bit_count() <= w:
            return i
    return None


def encode_bad_pair(w_set: ElementSet, member: ElementSet) -> EncodingKey:
    return EncodingKey(union_part=w_set | member, meet_part=w_set & member)


def decode_bad_pair(family: SetFamily, key: EncodingKey) -> tuple[ElementSet, ElementSet]:
    """Invert encode_bad_pair: S is the unique member inside the union
    part, W is (union \\ S) u meet.

    Uniqueness holds whenever the key encodes a bad pair of a
    d-intersecting family; zero or several members inside the union part
    mean that contract was violated.
    """
    inside = [s for s in family.members if s.issubset(key.union_part)]
    if len(inside) != 1:
        raise DecodeError(
            f"{len(inside)} members inside the union part; expected exactly 1"
        )
    member = inside[0]
    w_set = (key.union_part - member) | key.meet_part
    return w_set, member


def bad_pair_members(family: SetFamily, w_set: ElementSet, d: int) -> tuple[ElementSet, ...]:
    """Members S for which (W, S) is bad at threshold d, canonical order."""
    masks = family.masks
    return tuple(
        s for s, m in zip(family.members, masks)
        if _first_witness(masks, w_set.mask, m, d) is None
    )


def _audit_setup(family: SetFamily, w_size: int, d: int) -> tuple[int, Fraction, int]:
    """Check an audit's input and return (n, p, num_w).  The checks run on
    every call, outside the memo of `_bad_members_by_w`: an empty family
    equals any other on its ground set, whatever uniformity it declares."""
    x = family.ground_size
    if not 0 < w_size < x:
        raise ValueError(f"need 0 < w_size < x = {x}, got {w_size}")
    n = family.uniformity
    if n is None:
        raise FamilyError("audit needs an n-uniform family")
    if not is_d_intersecting(family, d):
        raise FamilyError(f"family is not {d}-intersecting")
    return n, Fraction(w_size, x), math.comb(x, w_size)


@functools.lru_cache(maxsize=1)
def _bad_members_by_w(
    family: SetFamily, w_size: int, d: int
) -> tuple[tuple[ElementSet, tuple[ElementSet, ...]], ...]:
    """(W, bad members at threshold d) for every W of size w_size, in
    `_subset_masks` order.  The last pass is kept, so an encoding audit and
    the Markov audits that follow it at any deltas enumerate W once."""
    return tuple(
        (w_set, bad_pair_members(family, w_set, d))
        for w_set in map(ElementSet.from_mask, _subset_masks(family.ground_size, w_size))
    )


@dataclass(frozen=True)
class EncodingAudit:
    """Exhaustive audit of the bad-pair encoding over all W of one size.

    `passed` requires injectivity, decode round-trips, union sizes in
    [px, px+n], and (when p <= 1/2, where the geometric-series argument
    applies) the count bound total <= (2/p)^n C(x, px) and the binomial
    series bound.  For p > 1/2 the raw sums are reported unchecked.
    """

    x: int
    n: int
    d: int
    w_size: int
    p: Fraction
    num_w: int
    total_bad_pairs: int
    per_w_max: int
    worst_w: Optional[ElementSet]
    bound: Fraction
    bound_ok: bool
    injective: bool
    roundtrip_ok: bool
    union_sizes_ok: bool
    binomial_sum: int
    binomial_sum_bound: Fraction
    series_checked: bool
    series_ok: bool
    passed: bool


def audit_encoding_bound(family: SetFamily, w_size: int, d: int) -> EncodingAudit:
    """Enumerate all W of size w_size, classify every (W, S), and verify
    the encoding claims in exact rational arithmetic."""
    n, p, num_w = _audit_setup(family, w_size, d)
    x = family.ground_size
    bound = (2 / p) ** n * num_w

    total = 0
    per_w_max = 0
    worst_w: Optional[ElementSet] = None
    keys: dict[tuple[int, int], tuple[int, int]] = {}
    injective = True
    roundtrip_ok = True
    union_sizes_ok = True
    for w_set, bad in _bad_members_by_w(family, w_size, d):
        total += len(bad)
        if len(bad) > per_w_max or worst_w is None:
            per_w_max, worst_w = len(bad), w_set
        for s in bad:
            key = encode_bad_pair(w_set, s)
            union_size = len(key.union_part)
            if not w_size <= union_size <= w_size + n:
                union_sizes_ok = False
            pair = (w_set.mask, s.mask)
            kk = (key.union_part.mask, key.meet_part.mask)
            if kk in keys and keys[kk] != pair:
                injective = False
            keys[kk] = pair
            try:
                got_w, got_s = decode_bad_pair(family, key)
                if got_w.mask != w_set.mask or got_s.mask != s.mask:
                    roundtrip_ok = False
            except DecodeError:
                roundtrip_ok = False

    binomial_sum = sum(math.comb(x, w_size + i) for i in range(n + 1))
    binomial_sum_bound = num_w / p**n
    series_checked = p <= Fraction(1, 2)
    series_ok = (not series_checked) or binomial_sum <= binomial_sum_bound
    bound_ok = Fraction(total) <= bound
    passed = (
        injective
        and roundtrip_ok
        and union_sizes_ok
        and (bound_ok if series_checked else True)
        and series_ok
    )
    return EncodingAudit(
        x=x, n=n, d=d, w_size=w_size, p=p, num_w=num_w,
        total_bad_pairs=total, per_w_max=per_w_max, worst_w=worst_w,
        bound=bound, bound_ok=bound_ok,
        injective=injective, roundtrip_ok=roundtrip_ok,
        union_sizes_ok=union_sizes_ok,
        binomial_sum=binomial_sum, binomial_sum_bound=binomial_sum_bound,
        series_checked=series_checked, series_ok=series_ok,
        passed=passed,
    )


@dataclass(frozen=True)
class MarkovAudit:
    """Exact tail fraction of W with many bad pairs vs the Markov bound.

    When the bound's right side reaches 1 the inequality cannot fail and
    `vacuous` flags it; `holds` is the actual comparison either way.
    """

    x: int
    n: int
    d: int
    w_size: int
    p: Fraction
    delta: Fraction
    family_size: int
    num_w: int
    exceed_count: int
    fraction: Fraction
    rhs: Fraction
    vacuous: bool
    holds: bool


def audit_markov_step(family: SetFamily, w_size: int, delta: Rational, d: int) -> MarkovAudit:
    """Exact fraction of size-w_size sets W with at least delta*|F| bad
    members, compared against (2/p)^n / (delta |F|)."""
    dlt = _positive_fraction(delta, "delta")
    if len(family) == 0:
        raise FamilyError("Markov audit needs a nonempty family")
    n, p, num_w = _audit_setup(family, w_size, d)
    cutoff = dlt * len(family)
    exceed = sum(len(bad) >= cutoff for _, bad in _bad_members_by_w(family, w_size, d))
    fraction = Fraction(exceed, num_w)
    rhs = (2 / p) ** n / (dlt * len(family))
    return MarkovAudit(
        x=family.ground_size, n=n, d=d, w_size=w_size, p=p, delta=dlt,
        family_size=len(family), num_w=num_w,
        exceed_count=exceed, fraction=fraction, rhs=rhs,
        vacuous=rhs >= 1, holds=fraction <= rhs,
    )

