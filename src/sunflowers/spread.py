"""Spreadness analysis and satisfying-probability evaluation.

A family is kappa-spread when it is large (|F| >= kappa^n) and no small
set is too popular (|F_T| <= kappa^-|T| |F| for every T).  All
spreadness predicates use exact rational cross-multiplication; no
floating-point comparisons decide anything.

Satisfying probabilities P(some member is contained in a random
alpha-density subset R) are computed two ways: an exact subset-lattice
sum for ground sizes up to 24, over the members' up-closure built as
packed bits (2^x / 8 bytes) and counted by size with numpy's popcount,
|R| = popcount(R >> 6) + popcount(R & 63), and a seeded Monte
Carlo estimator whose trials are rows of raw 64-bit words from a
counter-based PRNG stream (numpy Philox, keyed by the seed): element e
is kept when its word is below ceil(alpha * 2^53) << 11, exactly
`random() < alpha`.  The trials are drawn and tested in blocks, sliced
by trials: each element gets a bitset over the block's trials and each
member ANDs its elements' bitsets.

The tables these read -- the link counts |F_T|, the x + 1 counts by size
of the up-closure (which itself lives for one call), and the Monte Carlo
index table -- are built once per family object and kept on it
(`SetFamily._table`), so one call that asks several questions of a
family pays for each table once.

numpy loads on first use, in the Monte Carlo and exact-sum kernels, so
importing this module does not load it; its tables are Python ints.  So
`check`, `find`, `bounds` and `encode-audit` start without numpy, and the
CLI can start numpy's OpenBLAS with one thread unless
OPENBLAS_NUM_THREADS is set.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import chain
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional, Sequence, Union

from .families import (
    ElementSet,
    FamilyError,
    _BITS_LIMIT,
    InvariantError,
    Rational,
    SetFamily,
    _exact_fraction,
    _positive_fraction,
    elements_of,
    find_r_disjoint,
    link,
    submasks,
)

if TYPE_CHECKING:
    import numpy as np

_ENUMERATION_LIMIT = 1 << 22
_EXACT_GROUND_LIMIT = 24
_SAMPLE_BLOCK = 1 << 16
_SIZE_CHUNK = 1 << 14  # lattice words counted by size at a time


def _link_counts(masks: Sequence[int]) -> Counter:
    """|F_T|, the number of members containing T, for every nonempty T
    contained in at least one member: one `Counter` pass over every
    member's submasks."""
    budget = sum(1 << m.bit_count() for m in masks)
    if budget > _ENUMERATION_LIMIT:
        raise ValueError(f"link enumeration needs {budget} submask visits, "
                         f"over budget {_ENUMERATION_LIMIT}")
    totals = Counter(chain.from_iterable(map(submasks, masks)))
    del totals[0]
    return totals


def _links(family: SetFamily) -> Mapping[int, int]:
    """The family's link table: |F_T| for every nonempty T inside a
    member, built once per family object."""
    return family._table("links", lambda: MappingProxyType(_link_counts(family.masks)))


def _largest_links(family: SetFamily) -> Mapping[int, int]:
    """|T| -> the largest |F_T| at that size, read off the link table."""
    def build():
        largest: dict[int, int] = {}
        for tmask, count in _links(family).items():
            t = tmask.bit_count()
            if count > largest.get(t, 0):
                largest[t] = count
        return MappingProxyType(largest)

    return family._table("largest_links", build)


def is_kappa_spread(family: SetFamily, kappa: Rational) -> bool:
    """Exact spreadness test: |F| >= kappa^n and |F_T| <= kappa^-|T| |F|
    for every T up to size n (sets outside all members give |F_T| = 0 and
    pass vacuously, as does T = empty).  Only the largest |F_T| of each
    size |T| can break the bound, so only those are tested."""
    k = _positive_fraction(kappa, "kappa")
    n = family.uniformity
    if n is None:
        raise FamilyError("kappa-spreadness needs an n-uniform family")
    a, b = k.numerator, k.denominator
    size = len(family)
    if size * b**n < a**n:
        return False
    return all(count * a**t <= size * b**t for t, count in _largest_links(family).items())


def spread_kappa(family: SetFamily) -> float:
    """The spreadness supremum: min(|F|^(1/n), min_T (|F|/|F_T|)^(1/|T|)).

    The exact predicate holds for rationals below this value and fails
    above it (up to the float rounding of the return value).  Since
    (|F|/c)^(1/t) falls as c grows, only the largest |F_T| of each size
    |T| = t is raised to a power, which gives the same float as the
    minimum over every T.
    """
    n = family.uniformity
    if n is None or len(family) == 0:
        raise FamilyError("spread_kappa needs a nonempty n-uniform family")
    size = len(family)
    if n == 0:
        return 1.0
    largest = _largest_links(family)
    return min([size ** (1.0 / n)] + [(size / c) ** (1.0 / t) for t, c in largest.items()])


class SpreadLinkResult(NamedTuple):
    """Largest qualifying link set T and its link family.

    `residual_spread_ok` reports whether no nonempty T' qualifies inside
    the link (the link is kappa-spread apart from the size clause);
    `size_clause_ok` reports the |link| >= kappa^(n-|T|) clause separately.
    """

    t_set: ElementSet
    link_family: SetFamily
    residual_spread_ok: bool
    size_clause_ok: bool


def find_spread_link(family: SetFamily, kappa: Rational, d: int) -> SpreadLinkResult:
    """Largest T with |T| <= d and |F_T| >= kappa^-|T| |F|, canonical
    tie-break (T = empty always qualifies).

    By maximality, no T' with |T| + |T'| <= d can qualify inside the link
    (asserted); whether the link resists *all* nonempty T' -- and whether
    it meets the spreadness size clause -- is reported, not assumed.  The
    candidates T are the family's link table filtered to |T| <= d; when
    T = empty the link is the family itself and its table is reused.
    """
    k = _positive_fraction(kappa, "kappa")
    n = family.uniformity
    if n is None or len(family) == 0:
        raise FamilyError("find_spread_link needs a nonempty n-uniform family")
    if not 0 <= d <= n:
        raise FamilyError(f"need 0 <= d <= n, got d={d}")
    a, b = k.numerator, k.denominator

    def qualifying(fam: SetFamily, most: int) -> list[int]:
        total = len(fam)
        return [
            tmask
            for tmask, count in _links(fam).items()
            if (t := tmask.bit_count()) <= most and count * a**t >= total * b**t
        ]

    quals = qualifying(family, d)
    best_mask = 0
    if quals:
        best_size = max(t.bit_count() for t in quals)
        best_mask = min(
            (t for t in quals if t.bit_count() == best_size),
            key=elements_of,
        )
    t_set = ElementSet.from_mask(best_mask)
    link_family = link(family, t_set)

    residual = qualifying(link_family, n)
    deep = d - len(t_set)
    if any(t.bit_count() <= deep for t in residual):
        raise InvariantError("spread link is not maximal")
    remaining = n - len(t_set)
    size_clause_ok = len(link_family) * b**remaining >= a**remaining
    return SpreadLinkResult(
        t_set=t_set,
        link_family=link_family,
        residual_spread_ok=not residual,
        size_clause_ok=size_clause_ok,
    )


class SatisfyingEstimate(NamedTuple):
    alpha: float
    trials: int
    successes: int
    seed: int
    estimate: float
    stderr: float


def sample_satisfying(family: SetFamily, alpha: Union[float, Rational], trials: int,
                      seed: int) -> SatisfyingEstimate:
    """Monte Carlo estimate of P(some member is a subset of R) where R
    keeps each ground element independently with probability alpha, a
    float or any rational form, read as `float(Fraction(alpha))`.

    Deterministic for a fixed seed: trial i is row i of the Philox
    stream's `random_raw((trials, x)) < ceil(alpha * 2^53) << 11`, drawn
    in blocks of rows.  Since Philox's `random()` is (raw >> 11) * 2^-53,
    that is exactly `random((trials, x)) < alpha`, with no float
    conversion; for alpha < 1 the threshold fits in a uint64.  An empty
    member answers every trial.  More than `families._BITS_LIMIT` (2^30)
    trials x ground size, one drawn bit per element of each sampled set,
    are refused before the generator is made.

    The test is sliced by trials: a block is kept element-major, packed
    along the trials into one uint64 bitset per element, and each
    member's bitsets are ANDed through an |F| x max|M| index table
    (`_member_index`, built once per family; short members are padded
    with an all-ones row x); the members' OR counts the successes.  A
    block is a multiple of 64 trials, with rows <= `_SAMPLE_BLOCK // x`
    and |F| * rows / 8 <= 8 * _SAMPLE_BLOCK bytes, and at least 64
    trials.  Unless a block is that minimum, its raw words take at most
    8 * _SAMPLE_BLOCK bytes.
    """
    if not 0 < Fraction(alpha) < 1:  # before a float conversion that can overflow
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    alpha = float(Fraction(alpha))
    if not 0 < alpha < 1:  # rounded to 0.0 or 1.0: the uint64 threshold needs alpha < 1
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    x = family.ground_size
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials * x > _BITS_LIMIT:  # one drawn bit per element of each sampled set
        raise ValueError(f"{trials} trials over {x} elements exceed {_BITS_LIMIT} sampled bits")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    import numpy as np
    masks = family.masks
    bitgen = np.random.Philox(key=seed)
    threshold = np.uint64(math.ceil(alpha * 2**53) << 11)
    successes = 0
    if 0 in masks:
        successes = trials  # the empty member lies inside every R
    elif masks:
        index = family._table("member_index", lambda: _read_only(
            _member_index(family._element_tuples(), x)))
        widest = index.shape[1]
        block = 64 * max(1, min(_SAMPLE_BLOCK // x, 64 * _SAMPLE_BLOCK // len(masks)) // 64)
        kept = np.ones((x + 1, min(block, -(-trials // 64) * 64)), dtype=bool)
        done = 0
        while done < trials:
            rows = min(block, trials - done)
            width = -(-rows // 64) * 64
            kept[:x, :rows] = (bitgen.random_raw(rows * x).reshape(rows, x) < threshold).T
            kept[:x, rows:width] = False  # trials past the last are misses
            bits = np.packbits(kept[:, :width], axis=1, bitorder="little").view("<u8")
            held = bits[index[:, 0]]
            for j in range(1, widest):
                held &= bits[index[:, j]]
            words = np.bitwise_or.reduce(held, axis=0)
            successes += int(np.bitwise_count(words).sum())
            del held  # so that two blocks' bitsets never coexist
            done += rows
    estimate = successes / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return SatisfyingEstimate(
        alpha=alpha, trials=trials, successes=successes, seed=seed,
        estimate=estimate, stderr=stderr,
    )


# _SPREAD_MASKS[b]: the bit positions 0..63 with bit b set (upward closure in a
# word), as Python ints, as `_BIT_SIZES` is
_SPREAD_MASKS = tuple(sum(1 << p for p in range(64) if p >> b & 1) for b in range(6))


def _upward_lattice(masks: Sequence[int], x: int) -> np.ndarray:
    """The up-closure of the members in the subset lattice of a ground set
    of size x, as 2^max(x - 6, 0) uint64 words: bit R % 64 of word R // 64
    is set iff some member is a subset of R.  The closure runs by shift-or
    inside the words that hold a member, then by word blocks across words:
    at most x * 2^(x - 6) word operations."""
    import numpy as np
    high = max(x - 6, 0)  # ground elements that index words, not bits
    lattice = np.zeros(1 << high, dtype=np.uint64)
    members = np.array(masks, dtype=np.uint64)
    index = (members >> np.uint64(6)).astype(np.intp)
    np.bitwise_or.at(lattice, index, np.left_shift(np.uint64(1), members & np.uint64(63)))
    # closing inside words commutes with closing across them, so it runs
    # first, on the words that hold a member: after the scatter, exactly
    # the nonzero ones, in ascending order
    index = np.flatnonzero(lattice)
    held = lattice[index]
    for bit in range(min(x, 6)):
        held |= (held << np.uint64(1 << bit)) & _SPREAD_MASKS[bit]
    lattice[index] = held
    for bit in range(high):
        step = 1 << bit
        h = lattice.reshape(-1, 2 * step)
        h[:, step:] |= h[:, :step]
    return lattice


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _member_index(elements: Sequence[tuple[int, ...]], x: int) -> np.ndarray:
    """The |F| x max|M| table of the members' elements, short members
    padded with x (the all-ones row of the sliced test)."""
    import numpy as np
    widest = max(map(len, elements))
    return np.array([t + (x,) * (widest - len(t)) for t in elements], dtype=np.intp)


def exact_fits(family: SetFamily) -> bool:
    """The one rule for whether a satisfying probability of `family` is
    exact or sampled: exact when the 2^x subset sum fits, x <= 24."""
    return family.ground_size <= _EXACT_GROUND_LIMIT


def exact_satisfying(family: SetFamily, alpha: Rational) -> Fraction:
    """Exact P(some member is a subset of R) at rational alpha, by the
    full 2^x subset sum; x <= 24.

    The hit sets are the members' up-closure `_upward_lattice`, a bit array
    of 2^x / 8 bytes made for one call and counted by size in integers
    (`_hit_sizes`, once per family, which keeps only the x + 1 counts);
    the sum over the sizes is taken in integers over the common
    denominator q^x of alpha = p/q."""
    a = _exact_fraction(alpha, "alpha")
    if not 0 <= a <= 1:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    x = family.ground_size
    if not exact_fits(family):
        raise ValueError(f"ground size {x} exceeds exhaustive budget {_EXACT_GROUND_LIMIT}")
    if len(family) == 0:
        return Fraction(0)
    counts = family._table("hit_sizes", lambda: _hit_sizes(_upward_lattice(family.masks, x), x))
    p, q = a.numerator, a.denominator  # a^s (1 - a)^(x - s) = p^s (q - p)^(x - s) / q^x
    return Fraction(sum(c * p**size * (q - p) ** (x - size) for size, c in enumerate(counts) if c),
                    q**x)


# _BIT_SIZES[s]: the bit positions i of a word with popcount(i) = s, as
# Python ints, so that importing the module needs no numpy
_BIT_SIZES = tuple(sum(1 << i for i in range(64) if i.bit_count() == s) for s in range(7))


def _hit_sizes(lattice: np.ndarray, x: int) -> tuple[int, ...]:
    """The number of sets R of each size 0..x in the up-closure `lattice`.

    Bit i of word w is R = 64 w + i, so |R| = popcount(w) + popcount(i).
    The words are read in aligned chunks of a power of two words, where
    popcount(w) is the popcount of the chunk's start plus that of the
    word's offset.  For each s in 0..6, one bincount over the offsets'
    popcounts, weighted by the popcounts of `words & _BIT_SIZES[s]`, lands
    at size popcount(w) + s.  Nothing is sorted, and a chunk's temporaries
    take about 17 bytes per word (about 275 KiB at `_SIZE_CHUNK`) whatever
    x; a bin counts at most 64 * _SIZE_CHUNK bits, so the float weights
    count exactly."""
    import numpy as np
    high = max(x - 6, 0)  # ground elements that index words, not bits
    chunk = min(1 << high, _SIZE_CHUNK)
    offsets = np.bitwise_count(np.arange(chunk)).astype(np.intp)  # popcount of each offset
    counts = [0] * (x + 1)
    for start in range(0, 1 << high, chunk):
        words = lattice[start:start + chunk]
        for s, bits in enumerate(_BIT_SIZES):
            by_offset = np.bincount(offsets, weights=np.bitwise_count(words & bits)).tolist()
            for size, n in enumerate(by_offset, start.bit_count() + s):
                if n:
                    counts[size] += int(n)
    return tuple(counts)


class DisjointnessReport(NamedTuple):
    """Consistency report for: satisfying at alpha = 1/r implies r
    pairwise disjoint members.

    `contrapositive_ok` is the checkable direction -- a family with no r
    pairwise-disjoint members must have P <= 1 - 1/r.
    """

    r: int
    alpha: Fraction
    threshold: Fraction
    method: str  # "exact" | "sampled"
    probability: Union[Fraction, float]
    satisfying: bool
    has_r_disjoint: bool
    witness: Optional[tuple[ElementSet, ...]]
    contrapositive_ok: bool


def check_satisfying_disjoint(
    family: SetFamily,
    r: int,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
) -> DisjointnessReport:
    """Evaluate P at alpha = 1/r (exactly when the ground set allows,
    otherwise sampled with the given trials/seed), search for r pairwise
    disjoint members, and report the contrapositive consistency check."""
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    if any(m == 0 for m in family.masks):
        raise FamilyError("the empty set must not be a member")
    alpha = Fraction(1, r)
    threshold = 1 - alpha
    if exact_fits(family):
        prob: Union[Fraction, float] = exact_satisfying(family, alpha)
        satisfying = prob > threshold
        method = "exact"
    else:
        if trials is None or seed is None:
            raise ValueError(
                f"ground size {family.ground_size} exceeds the exact budget; "
                f"trials and seed are required"
            )
        est = sample_satisfying(family, alpha, trials, seed)
        prob = est.estimate
        satisfying = prob > float(threshold)
        method = "sampled"
    witness = find_r_disjoint(family, r)
    return DisjointnessReport(
        r=r,
        alpha=alpha,
        threshold=threshold,
        method=method,
        probability=prob,
        satisfying=satisfying,
        has_r_disjoint=witness is not None,
        witness=tuple(witness) if witness is not None else None,
        contrapositive_ok=(witness is not None) or (not satisfying),
    )
