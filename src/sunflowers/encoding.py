"""The bad-pair encoding audit and the Markov audit of bad-pair counts.

A pair (W, S) with S a member is *good* at threshold w when some member
S' has S'\\W inside S\\W with |S'\\W| <= w (S' witnesses the goodness,
possibly S itself), and *bad* otherwise.  For a d-intersecting family the
map (W, S) -> (W u S, W n S) is injective on bad pairs: any member inside
W u S would witness goodness unless it meets S in more than d elements,
which forces it to BE S -- so S is recoverable as the unique member inside
the union, and W follows from the meet.

Both audits, the Markov one at every delta, read one pass that finds, for
every W of a size, the bad pairs and the pairs whose union W u S holds a
member other than S, on Python-int bitsets indexed by W's position:
x + 2|F| bitsets of C(x, px) bits, about (x + 2|F|) C(x, px) / 8 bytes,
beside a few bit planes of the per-W bad counts; an audit whose
(x + 2|F|) C(x, px) exceeds `families._BITS_LIMIT` (2^30 bits, 128 MiB) is
refused before the pass starts.  The x element bitsets,
the one enumeration of W (the few W an audit names are read off them),
come from the lex-order recursion, and the last few tables are kept.
The audits read the total, the largest count and the Markov tail off
the planes, with no per-W loop.
Only a bad pair in both sets can break the encoding, so the encoding
audit encodes, decodes and checks just those on masks (for a
d-intersecting family there are none), and both audits verify their
bounds in exact arithmetic.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .families import (
    _BITS_LIMIT,
    ElementSet,
    FamilyError,
    Rational,
    SetFamily,
    _positive_fraction,
    elements_of,
    is_d_intersecting,
)


def _decode_masks(masks: Sequence[int], union: int, meet: int) -> Optional[tuple[int, int]]:
    """The (W, S) masks that the key (union, meet) encodes: S is the one
    mask of `masks` inside the union and W is (union \\ S) u meet; None
    when no mask or several lie inside the union, so the key encodes no
    bad pair of a d-intersecting family."""
    outside = ~union
    inside = [m for m in masks if not m & outside]
    if len(inside) != 1:
        return None
    s = inside[0]
    return (union & ~s) | meet, s


def _audit_setup(family: SetFamily, w_size: int, d: int) -> tuple[int, Fraction, int]:
    """Check an audit's input, and the size of its W pass against
    `_BITS_LIMIT`, and return (n, p, num_w), on every call, whether
    or not the family keeps its W pass (`_kept_pass`)."""
    x = family.ground_size
    if not 0 < w_size < x:
        raise ValueError(f"need 0 < w_size < x = {x}, got {w_size}")
    num_w = math.comb(x, w_size)
    bits = (x + 2 * len(family)) * num_w
    if bits > _BITS_LIMIT:
        raise ValueError(f"the W pass needs {bits} bitset bits, over budget {_BITS_LIMIT}")
    n = family.uniformity
    if n is None:
        raise FamilyError("audit needs an n-uniform family")
    if not is_d_intersecting(family, d):
        raise FamilyError(f"family is not {d}-intersecting")
    return n, Fraction(w_size, x), num_w


def _bad_members_by_w(
    family: SetFamily, w_size: int, d: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(per member S the bitset of the W numbers i, in `_w_table` order,
    where (W_i, S) is bad at threshold d, per member S the bitset of the
    W_i where another member lies inside W_i u S, the bit planes of the
    per-W bad counts as `_bit_planes` returns them).

    (W, S) is good iff some S' has S' \\ S inside W (an AND of the bitsets
    of the W holding each element) and |S' \\ W| <= d (a saturating count
    of the elements of S' each W misses, at most d + 1 bitsets).  The first
    AND alone, ORed over S' other than S, is the collision bitset.  Memory:
    the x element bitsets of C(x, w_size) bits that `_w_table` keeps, and
    2|F| more and a few count planes that the pass returns."""
    x = family.ground_size
    masks = family.masks
    full = (1 << math.comb(x, w_size)) - 1
    holding = _w_table(x, w_size)
    near = []  # per member S': the W with |S' \ W| <= d
    for s in masks:
        depth = min(d, s.bit_count())  # no W misses more than |S'| elements
        over = [0] * (depth + 1)  # over[c]: the W missing more than c elements of S' so far
        for e in elements_of(s):
            miss = full ^ holding[e]
            for c in range(depth, 0, -1):
                over[c] |= over[c - 1] & miss
            over[0] |= miss
        near.append(full ^ over[depth])
    bad = []
    collide = []
    for j, s in enumerate(masks):
        good = hit = 0
        for k, (other, other_near) in enumerate(zip(masks, near)):
            inside = full  # the W with other \ s inside W
            for e in elements_of(other & ~s):
                inside &= holding[e]
            good |= inside & other_near
            if k != j:
                hit |= inside
        bad.append(full ^ good)
        collide.append(hit)
    return tuple(bad), tuple(collide), _bit_planes(bad)


def _kept_pass(family: SetFamily, w_size: int, d: int) -> tuple:
    """`_bad_members_by_w`, kept on the family for the last (w_size, d)
    asked: an encoding audit and the Markov audits that follow it at any
    deltas enumerate W once, and the pass goes when the family does."""
    kept = family._table("bad_by_w")
    if kept is None or kept[0] != (w_size, d):
        kept = family._tables["bad_by_w"] = ((w_size, d), _bad_members_by_w(family, w_size, d))
    return kept[1]


@functools.lru_cache(maxsize=4)
def _w_table(x: int, k: int) -> tuple[int, ...]:
    """Per element e < x, the bitset of the numbers i, in lex order (as
    `_subset_masks(range(x), k)` lists them), of the k-subsets W_i that hold e.

    Built by the lex-order recursion, from lo = x - 1 down to 0: the
    j-subsets of {lo..x-1} are those that hold lo (lo joined to each
    (j-1)-subset of {lo+1..x-1}), followed by those that do not (the
    j-subsets of {lo+1..x-1})."""
    # tables[j][e - lo]: the bitset of the j-subsets of {lo..x-1} holding e
    tables: list[list[int]] = [[] for _ in range(k + 1)]
    for lo in range(x - 1, -1, -1):
        rest = x - lo - 1  # elements above lo
        new = [[0] * (rest + 1)]  # the one 0-subset holds no element
        for j in range(1, k + 1):
            split = math.comb(rest, j - 1)  # the j-subsets holding lo come first
            new.append([(1 << split) - 1] + [
                with_lo | (without << split)
                for with_lo, without in zip(tables[j - 1], tables[j])
            ])
        tables = new
    return tuple(tables[k])


def _w_mask(x: int, k: int, i: int) -> int:
    """The mask of W_i, read off the element bitsets `_w_table(x, k)`."""
    return sum(1 << e for e, bits in enumerate(_w_table(x, k)) if bits >> i & 1)


def _bit_planes(bitsets: Iterable[int]) -> tuple[int, ...]:
    """The bit-sliced binary sum of `bitsets`: plane j holds bit j of, for
    every position i, the number of bitsets with bit i set."""
    planes: list[int] = []
    for carry in bitsets:
        j = 0
        while carry:
            if j == len(planes):
                planes.append(0)
            planes[j], carry = planes[j] ^ carry, planes[j] & carry
            j += 1
    return tuple(planes)


def _plane_max(planes: Sequence[int], full: int) -> tuple[int, int]:
    """(the largest count, the lowest position holding it) among the
    positions of `full`, by a walk from the top plane down that keeps the
    positions whose counts agree with the largest so far."""
    best = 0
    keep = full
    for j in range(len(planes) - 1, -1, -1):
        if keep & planes[j]:
            keep &= planes[j]
            best |= 1 << j
    return best, (keep & -keep).bit_length() - 1


def _at_least(planes: Sequence[int], cutoff: int, full: int) -> int:
    """The bitset of the positions of `full` whose count is >= cutoff
    (cutoff >= 0), by a bit-sliced comparison from the top bit down."""
    above = 0  # positions already known to exceed the cutoff
    equal = full  # positions equal to it on the bits so far
    for j in range(max(len(planes), cutoff.bit_length()) - 1, -1, -1):
        plane = planes[j] if j < len(planes) else 0
        if cutoff >> j & 1:
            equal &= plane
        else:
            above |= equal & plane
            equal &= ~plane
    return above | equal


def _check_bad_pairs(
    masks: Sequence[int], w_size: int, n: int, pairs: Iterable[tuple[int, int]]
) -> tuple[bool, bool, bool]:
    """(injective, roundtrip_ok, union_sizes_ok) over (W, S) mask pairs:
    each is encoded as (W | S, W & S), and the keys must be distinct across
    distinct pairs, decode back to their pair through a scan of `masks`,
    and have unions of w_size to w_size + n elements."""
    keys: dict[tuple[int, int], tuple[int, int]] = {}
    injective = roundtrip_ok = union_sizes_ok = True
    for pair in pairs:
        w, s = pair
        union, meet = w | s, w & s
        if not w_size <= union.bit_count() <= w_size + n:
            union_sizes_ok = False
        if keys.setdefault((union, meet), pair) != pair:
            injective = False
        if _decode_masks(masks, union, meet) != pair:
            roundtrip_ok = False
    return injective, roundtrip_ok, union_sizes_ok


class EncodingAudit(NamedTuple):
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

    bad, collide, planes = _kept_pass(family, w_size, d)
    total = sum(bits.bit_count() for bits in bad)
    per_w_max, worst = _plane_max(planes, (1 << num_w) - 1)
    worst_w = ElementSet.from_mask(_w_mask(x, w_size, worst))
    # Only bad pairs whose union holds another member can fail a check:
    # - with S the only member inside W u S, the key decodes to (W, S);
    # - two pairs sharing a key (U, M) have distinct members (one member
    #   and M fix W = (U \ S) u M), both inside U: both collide;
    # - |W u S| = w_size + |S \ W| <= w_size + n, the family being n-uniform.
    # For a d-intersecting family no bad pair collides (a member T inside
    # W u S has T \ W inside S n T, at most d elements, so it witnesses
    # goodness), so no pair is decoded; any that did would be checked here.
    injective, roundtrip_ok, union_sizes_ok = _check_bad_pairs(
        family.masks, w_size, n,
        ((_w_mask(x, w_size, i), s) for s, bits, hits in zip(family.masks, bad, collide)
         for i in elements_of(bits & hits)),
    )

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


class MarkovAudit(NamedTuple):
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
    # an integer count reaches delta |F| iff it reaches its ceiling
    cutoff = math.ceil(dlt * len(family))
    *_, planes = _kept_pass(family, w_size, d)
    exceed = _at_least(planes, cutoff, (1 << num_w) - 1).bit_count()
    fraction = Fraction(exceed, num_w)
    rhs = (2 / p) ** n / (dlt * len(family))
    return MarkovAudit(
        x=family.ground_size, n=n, d=d, w_size=w_size, p=p, delta=dlt,
        family_size=len(family), num_w=num_w,
        exceed_count=exceed, fraction=fraction, rhs=rhs,
        vacuous=rhs >= 1, holds=fraction <= rhs,
    )

