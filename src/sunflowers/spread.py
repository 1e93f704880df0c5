"""Spreadness analysis and satisfying-probability evaluation.

A family is kappa-spread when it is large (|F| >= kappa^n) and no small
set is too popular (|F_T| <= kappa^-|T| |F| for every T).  The weighted
generalization bounds the weight mass of every T-superset subfamily by a
profile entry s_|T|.  All spreadness predicates use exact rational
cross-multiplication; no floating-point comparisons decide anything.

Satisfying probabilities P(some member is contained in a random
alpha-density subset R) are computed two ways: an exact subset-lattice
sum for ground sizes up to 24, over the members' up-closure stored as
packed bits (2^x / 8 bytes), and a seeded Monte Carlo estimator whose
trials are rows of raw 64-bit words from a counter-based PRNG stream
(numpy Philox, keyed by the seed): element e is kept when its word is
below ceil(alpha * 2^53) << 11, exactly `random() < alpha`.  The rows
are drawn in blocks that together are one `random_raw(trials * x)` draw,
so the estimate does not depend on the block size.  When x <= 24 and
building the up-closure costs no more than the trials * |F| member
tests it replaces, one lookup of the packed row answers a trial, in
blocks of `_SAMPLE_BLOCK // x` rows.  Otherwise the test is sliced by
trials: each element gets a bitset over the block's trials and each
member ANDs its elements' bitsets, in blocks of a multiple of 64 trials
(at least 64) with rows <= `_SAMPLE_BLOCK // x` and |F| * rows / 8 <=
8 * `_SAMPLE_BLOCK` bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .families import (
    ElementSet,
    FamilyError,
    InvariantError,
    Rational,
    SetFamily,
    WeightedFamily,
    _exact_fraction,
    _positive_fraction,
    elements_of,
    find_r_disjoint,
    link,
    submasks,
)

_ENUMERATION_LIMIT = 1 << 22
_EXACT_GROUND_LIMIT = 24
_SAMPLE_BLOCK = 1 << 16


def _link_counts(
    masks: Sequence[int], weights: Optional[Iterable] = None, max_size: Optional[int] = None
) -> dict:
    """Total weight of the members containing T, for every nonempty T of
    size at most `max_size` contained in at least one member.  Without
    `weights` every member weighs 1, which gives |F_T|."""
    budget = sum(1 << m.bit_count() for m in masks)
    if budget > _ENUMERATION_LIMIT:
        raise ValueError(f"link enumeration needs {budget} submask visits, over budget")
    totals: dict = {}
    for mask, w in zip(masks, repeat(1) if weights is None else weights):
        for sub in submasks(mask):
            if sub == 0:
                continue
            if max_size is not None and sub.bit_count() > max_size:
                continue
            totals[sub] = totals.get(sub, 0) + w
    return totals


@dataclass(frozen=True)
class SpreadProfile:
    """Weight-mass profile (s0; s1 >= s2 >= ... >= 0).

    The tail must be nonincreasing and nonnegative; s0 >= s1 is NOT
    required (profiles arising from halved-mass constructions can break
    it, so only the stated tail monotonicity is enforced).
    """

    s0: Fraction
    tail: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "s0", _exact_fraction(self.s0, "s0"))
        object.__setattr__(
            self, "tail", tuple(_exact_fraction(t, "tail entry") for t in self.tail)
        )
        for a, b in zip(self.tail, self.tail[1:]):
            if b > a:
                raise FamilyError(f"profile tail must be nonincreasing, got {a} < {b}")
        if self.tail and self.tail[-1] < 0:
            raise FamilyError("profile tail entries must be nonnegative")


def is_kappa_spread(family: SetFamily, kappa: Rational) -> bool:
    """Exact spreadness test: |F| >= kappa^n and |F_T| <= kappa^-|T| |F|
    for every T up to size n (sets outside all members give |F_T| = 0 and
    pass vacuously, as does T = empty)."""
    k = _positive_fraction(kappa, "kappa")
    n = family.uniformity
    if n is None:
        raise FamilyError("kappa-spreadness needs an n-uniform family")
    a, b = k.numerator, k.denominator
    size = len(family)
    if size * b**n < a**n:
        return False
    for tmask, count in _link_counts(family.masks).items():
        t = tmask.bit_count()
        if count * a**t > size * b**t:
            return False
    return True


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
    largest: dict[int, int] = {}  # |T| -> the largest |F_T| at that size
    for tmask, count in _link_counts(family.masks).items():
        t = tmask.bit_count()
        if count > largest.get(t, 0):
            largest[t] = count
    return min([size ** (1.0 / n)] + [(size / c) ** (1.0 / t) for t, c in largest.items()])


def is_profile_spread(weighted: WeightedFamily, profile: SpreadProfile) -> bool:
    """Exact test that (family, weights) is spread for the given profile:
    total weight >= s0, and every nonempty T contained in some member has
    T-superset weight mass <= tail[|T|-1]."""
    members = weighted.family.members
    max_size = max((len(s) for s in members), default=0)
    if len(profile.tail) < max_size:
        raise FamilyError(
            f"profile tail has {len(profile.tail)} entries, members reach size {max_size}"
        )
    if weighted.total_weight < profile.s0:
        return False
    for tmask, total in _link_counts(weighted.family.masks, weighted.weights).items():
        if total > profile.tail[tmask.bit_count() - 1]:
            return False
    return True


@dataclass(frozen=True)
class SpreadLinkResult:
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
    it meets the spreadness size clause -- is reported, not assumed.
    """
    k = _positive_fraction(kappa, "kappa")
    n = family.uniformity
    if n is None or len(family) == 0:
        raise FamilyError("find_spread_link needs a nonempty n-uniform family")
    if not 0 <= d <= n:
        raise FamilyError(f"need 0 <= d <= n, got d={d}")
    a, b = k.numerator, k.denominator
    size = len(family)

    def qualifying(counts: dict[int, int], total: int) -> list[int]:
        return [
            tmask
            for tmask, count in counts.items()
            if count * a ** tmask.bit_count() >= total * b ** tmask.bit_count()
        ]

    quals = qualifying(_link_counts(family.masks, max_size=d), size)
    best_mask = 0
    if quals:
        best_size = max(t.bit_count() for t in quals)
        best_mask = min(
            (t for t in quals if t.bit_count() == best_size),
            key=lambda t: ElementSet.from_mask(t).elements,
        )
    t_set = ElementSet.from_mask(best_mask)
    link_family = link(family, t_set)
    link_size = len(link_family)

    residual_ok = True
    if link_size:
        residual = qualifying(_link_counts(link_family.masks), link_size)
        deep = d - len(t_set)
        if any(t.bit_count() <= deep for t in residual):
            raise InvariantError("spread link is not maximal")
        residual_ok = not residual
    remaining = n - len(t_set)
    size_clause_ok = link_size * b**remaining >= a**remaining
    return SpreadLinkResult(
        t_set=t_set,
        link_family=link_family,
        residual_spread_ok=residual_ok,
        size_clause_ok=size_clause_ok,
    )


@dataclass(frozen=True)
class SatisfyingEstimate:
    alpha: float
    trials: int
    successes: int
    seed: int
    estimate: float
    stderr: float


def sample_satisfying(family: SetFamily, alpha: float, trials: int, seed: int) -> SatisfyingEstimate:
    """Monte Carlo estimate of P(some member is a subset of R) where R
    keeps each ground element independently with probability alpha.

    Deterministic for a fixed seed: trial i is row i of the Philox
    stream's `random_raw((trials, x)) < ceil(alpha * 2^53) << 11`, drawn
    in blocks of rows.  Since Philox's `random()` is (raw >> 11) * 2^-53,
    that is exactly `random((trials, x)) < alpha`, with no float
    conversion; for alpha < 1 the threshold fits in a uint64.  Each trial
    is tested one of two ways, chosen from x, |F| and trials alone; both
    count the same successes, and an empty member answers every trial.

    - Lattice: when x <= 24 and building the members' up-closure
      (`_upward_lattice`, about x * 2^(x - 6) word operations) costs no
      more than the trials * |F| member tests it replaces, the row packed
      into little-endian bits is the subset index R, and one lookup of
      bit R answers the trial.  A block holds `_SAMPLE_BLOCK // x` rows.
    - Sliced: otherwise the block is kept element-major, packed along the
      trials into one uint64 bitset per element, and each member's
      bitsets are ANDed through an |F| x max|M| index table (short
      members are padded with an all-ones row x); the members' OR counts
      the successes.  A block is a multiple of 64 trials, with rows <=
      `_SAMPLE_BLOCK // x` and |F| * rows / 8 <= 8 * _SAMPLE_BLOCK bytes,
      and at least 64 trials.

    Unless a block is the 64-trial minimum, its raw words take at most
    8 * _SAMPLE_BLOCK bytes.
    """
    alpha = float(alpha)
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    x = family.ground_size
    masks = family.masks
    bitgen = np.random.Philox(key=seed)
    threshold = np.uint64(math.ceil(alpha * 2**53) << 11)
    if not masks:
        successes = 0
    elif 0 in masks:
        successes = trials  # the empty member lies inside every R
    else:
        size = len(masks)
        if x <= _EXACT_GROUND_LIMIT and x << max(x - 6, 0) <= trials * size:
            lattice = _upward_lattice(masks, x)
            block = max(1, _SAMPLE_BLOCK // x)
            nbytes = -(-x // 8)
            # rows padded to whole bytes pack as one flat bit string
            kept = np.zeros((min(block, trials), 8 * nbytes), dtype=bool)
            packed = np.zeros((min(block, trials), 8), dtype=np.uint8)
        else:
            lattice = None
            widest = max(m.bit_count() for m in masks)
            index = np.full((size, widest), x, dtype=np.intp)  # row x of kept is all ones
            for row, mask in zip(index, masks):
                row[: mask.bit_count()] = elements_of(mask)
            block = 64 * max(1, min(_SAMPLE_BLOCK // x, 64 * _SAMPLE_BLOCK // size) // 64)
            kept = np.ones((x + 1, min(block, -(-trials // 64) * 64)), dtype=bool)
        successes = 0
        done = 0
        while done < trials:
            rows = min(block, trials - done)
            in_r = bitgen.random_raw(rows * x).reshape(rows, x) < threshold  # row i: trial i's R
            if lattice is not None:
                kept[:rows, :x] = in_r
                packed[:rows, :nbytes] = np.packbits(kept[:rows], bitorder="little").reshape(rows, nbytes)
                subset = packed[:rows].view("<u8")[:, 0]
                hit = lattice[subset >> np.uint64(6)] >> (subset & np.uint64(63))
                successes += int(np.count_nonzero(hit & np.uint64(1)))
            else:
                width = -(-rows // 64) * 64
                kept[:x, :rows] = in_r.T
                kept[:x, rows:width] = False  # trials past the last are misses
                bits = np.packbits(kept[:, :width], axis=1, bitorder="little").view("<u8")
                held = bits[index[:, 0]]
                for j in range(1, widest):
                    held &= bits[index[:, j]]
                successes += int(_popcount64(np.bitwise_or.reduce(held, axis=0)).sum())
                del held  # so that two blocks' bitsets never coexist
            done += rows
    estimate = successes / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return SatisfyingEstimate(
        alpha=alpha, trials=trials, successes=successes, seed=seed,
        estimate=estimate, stderr=stderr,
    )


# _SIZE_MASKS[c]: the bit positions 0..63 with exactly c set bits;
# _SPREAD_MASKS[b]: the positions with bit b set (upward closure in a word)
_SIZE_MASKS = tuple(
    np.uint64(sum(1 << p for p in range(64) if p.bit_count() == c)) for c in range(7)
)
_SPREAD_MASKS = tuple(
    np.uint64(sum(1 << p for p in range(64) if p >> b & 1)) for b in range(6)
)
_M1, _M2, _M4, _H01 = (np.uint64(m) for m in (
    0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101))


def _popcount64(v: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 word, computed in place in v (numpy's
    `bitwise_count` needs numpy >= 2.0): sums over bit pairs, nibbles and
    bytes, then one multiply adds the eight byte sums into the top byte."""
    t = v >> np.uint64(1)
    t &= _M1
    v -= t
    np.right_shift(v, np.uint64(2), out=t)
    t &= _M2
    v &= _M2
    v += t
    np.right_shift(v, np.uint64(4), out=t)
    v += t
    v &= _M4
    v *= _H01
    v >>= np.uint64(56)
    return v


def _upward_lattice(masks: Sequence[int], x: int) -> np.ndarray:
    """The up-closure of the members in the subset lattice of a ground set
    of size x, as 2^max(x - 6, 0) uint64 words: bit R % 64 of word R // 64
    is set iff some member is a subset of R.  The closure runs by shift-or
    inside the words that hold a member, then by word blocks across words:
    at most x * 2^(x - 6) word operations."""
    high = max(x - 6, 0)  # ground elements that index words, not bits
    lattice = np.zeros(1 << high, dtype=np.uint64)
    members = np.array(masks, dtype=np.uint64)
    index = (members >> np.uint64(6)).astype(np.intp)
    np.bitwise_or.at(lattice, index, np.left_shift(np.uint64(1), members & np.uint64(63)))
    # closing inside words commutes with closing across them, so it runs
    # first, on the words that hold a member
    index = np.unique(index)
    held = lattice[index]
    for bit in range(min(x, 6)):
        held |= (held << np.uint64(1 << bit)) & _SPREAD_MASKS[bit]
    lattice[index] = held
    for bit in range(high):
        step = 1 << bit
        h = lattice.reshape(-1, 2 * step)
        h[:, step:] |= h[:, :step]
    return lattice


def exact_satisfying(family: SetFamily, alpha: Rational) -> Fraction:
    """Exact P(some member is a subset of R) at rational alpha, by the
    full 2^x subset sum; x <= 24.

    The hit sets are the members' up-closure `_upward_lattice`, a bit array
    of 2^x / 8 bytes.  They are counted by size
    |R| = popcount(R // 64) + popcount(R % 64), in integers, before the
    exact rational sum."""
    a = _exact_fraction(alpha, "alpha")
    if not 0 <= a <= 1:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    x = family.ground_size
    if x > _EXACT_GROUND_LIMIT:
        raise ValueError(f"ground size {x} exceeds exhaustive budget {_EXACT_GROUND_LIMIT}")
    if len(family) == 0:
        return Fraction(0)
    lattice = _upward_lattice(family.masks, x)
    high = max(x - 6, 0)  # ground elements that index words, not bits
    word_sizes = np.zeros(1, dtype=np.uint8)
    for _ in range(high):
        word_sizes = np.concatenate((word_sizes, word_sizes + 1))
    # group the words by |R // 64|: C(high, k) words hold the subsets with k high elements
    lattice = lattice[np.argsort(word_sizes, kind="stable")]
    starts = np.cumsum([0] + [math.comb(high, k) for k in range(high)])
    counts = [0] * (x + 1)
    for c, size_mask in enumerate(_SIZE_MASKS[: min(x, 6) + 1]):
        hits = _popcount64(lattice & size_mask)
        for k, n in enumerate(np.add.reduceat(hits, starts).tolist()):
            counts[k + c] += n
        del hits  # so that two sizes' counts never coexist
    total = Fraction(0)
    for size in range(x + 1):
        c = int(counts[size])
        if c:
            total += c * a**size * (1 - a) ** (x - size)
    return total


@dataclass(frozen=True)
class DisjointnessReport:
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
    if family.ground_size <= _EXACT_GROUND_LIMIT:
        prob: Union[Fraction, float] = exact_satisfying(family, alpha)
        satisfying = prob > threshold
        method = "exact"
    else:
        if trials is None or seed is None:
            raise ValueError(
                f"ground size {family.ground_size} exceeds the exact budget; "
                f"trials and seed are required"
            )
        est = sample_satisfying(family, float(alpha), trials, seed)
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
