"""Ground sets, element sets, set families, and sunflower certificates.

Sets over a ground set {0, ..., x-1} are stored as integer bitmasks, so
intersection/union/difference are single machine operations and popcounts
are cheap.  Everything here is immutable after construction and all
"first"/"maximal" choices downstream rely on one canonical order:
lexicographic on the ascending element lists (NOT numeric mask order --
{1} sorts after {0, 2}).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

#: Exact rational input: int, str (like "1/3") or Fraction; floats are refused.
Rational = Union[int, str, Fraction]

DEFAULT_SIZE_BUDGET = 1_000_000  # most members of a generated family, and rows of an experiment
_BITS_LIMIT = 1 << 30  # most bits of a family's masks, of a block of draws, and of a W pass


class FamilyError(ValueError):
    """Invalid construction of a set, family, or certificate."""


class InvariantError(RuntimeError):
    """A proof invariant or a certificate failed its check.

    Correct code never raises this, whatever the input; the checks are
    real exceptions, not asserts, so they also run under ``python -O``.
    """


def _exact_fraction(value: Rational, name: str) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            f"{name} must be an exact rational (int, str, or Fraction), not float; "
            f"pass Fraction or a string like '1/3'"
        )
    return Fraction(value)


def _positive_fraction(value: Rational, name: str) -> Fraction:
    v = _exact_fraction(value, name)
    if v <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return v


def mask_of(elements: Iterable[int]) -> int:
    """Bitmask of an iterable of nonnegative element indices."""
    m = 0
    for e in elements:
        if e < 0:
            raise FamilyError(f"negative element index {e}")
        m |= 1 << e
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """Ascending element indices of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _subset_masks(elements: Iterable[int], k: int) -> Iterator[int]:
    """Masks of all k-subsets of the ascending `elements`, in canonical order."""
    return map(sum, combinations([1 << e for e in elements], k))


def submasks(mask: int) -> Iterator[int]:
    """All submasks of `mask`, including 0 and `mask` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


class ElementSet:
    """The read-only value of one set that the library hands out (a
    member, petal, core, link set or worst W); it computes on masks.

    Offers `mask`, `elements` (ascending), `len`, equality and hash.
    Range checks against a ground size happen where a family is built.
    """

    __slots__ = ("_mask",)

    def __init__(self, elements: Iterable[int] = ()):
        object.__setattr__(self, "_mask", mask_of(elements))

    @classmethod
    def from_mask(cls, mask: int) -> "ElementSet":
        if mask < 0:
            raise FamilyError("negative bitmask")
        s = cls.__new__(cls)
        object.__setattr__(s, "_mask", mask)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("ElementSet is immutable")

    @property
    def mask(self) -> int:
        return self._mask

    @property
    def elements(self) -> tuple[int, ...]:
        return elements_of(self._mask)

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __eq__(self, other) -> bool:
        return isinstance(other, ElementSet) and self._mask == other._mask

    def __hash__(self) -> int:
        return hash(self._mask)

    def __repr__(self) -> str:
        return f"ElementSet({list(self.elements)})"


class SetFamily:
    """A finite collection of distinct subsets of {0, ..., x-1}.

    Members are stored in canonical order (lexicographic on ascending
    element lists); duplicates are rejected.  `uniformity` is n when every
    member has exactly n elements -- either declared (and then validated,
    which also pins the uniformity of an empty family) or auto-detected.

    The members' element tuples are kept from construction.  Tables
    derived from them (the ElementSet members, the intersection profile,
    `spread`'s link counts, up-closure counts by size and Monte Carlo index
    table, and `encoding`'s last W pass) are built on first use and kept
    in a private slot of this object, so they live exactly as long as the
    family and no longer: a new family, even an equal one, builds its own.
    Cached arrays and mappings are read-only.
    """

    __slots__ = ("_ground_size", "_masks", "_tables", "_uniformity")

    def __init__(self, ground_size: int, sets: Iterable[Iterable[int]] = (),
                 uniform: Optional[int] = None):
        self._build(ground_size, sorted(elements_of(mask_of(s)) for s in sets), uniform)

    @classmethod
    def from_masks(cls, ground_size: int, masks: Iterable[int], uniform: Optional[int] = None) -> "SetFamily":
        masks = tuple(masks)
        if masks and min(masks) < 0:
            raise FamilyError("negative bitmask")
        return cls.__new__(cls)._build(ground_size, sorted(map(elements_of, masks)), uniform)

    @classmethod
    def _canonical(cls, ground_size: int, elements: Iterable[tuple[int, ...]]) -> "SetFamily":
        """The family of `elements`, the members' ascending element tuples
        already in canonical order, as the parsers and the deterministic
        generators make them: no sort (`_build` still checks the order)."""
        return cls.__new__(cls)._build(ground_size, elements, None)

    def _build(self, ground_size: int, elements: Iterable, uniform: Optional[int]) -> "SetFamily":
        """The one validation path: a linear check of order (which excludes
        duplicates), range and declared uniformity of the canonical element
        tuples, which become the element table; members are made on first use."""
        if ground_size < 0:
            raise FamilyError(f"ground size must be >= 0, got {ground_size}")
        elements = tuple(elements)
        prev = None
        for cur in elements:
            if cur and cur[-1] >= ground_size:
                bad = [e for e in cur if e >= ground_size]
                raise FamilyError(f"elements {bad} out of range for ground size {ground_size}")
            if prev is not None and prev >= cur:
                problem = "duplicate member" if prev == cur else "members out of canonical order at"
                raise FamilyError(f"{problem} {list(cur)}")
            prev = cur
        sizes = set(map(len, elements))
        if uniform is None:
            uniform = sizes.pop() if len(sizes) == 1 else None
        elif uniform < 0:
            raise FamilyError("uniformity must be >= 0")
        elif sizes - {uniform}:
            wrong = next(t for t in elements if len(t) != uniform)
            raise FamilyError(f"member {list(wrong)} has size {len(wrong)}, declared uniformity {uniform}")
        object.__setattr__(self, "_ground_size", ground_size)
        object.__setattr__(self, "_masks", tuple(sum(map((1).__lshift__, t)) for t in elements))
        object.__setattr__(self, "_uniformity", uniform)
        object.__setattr__(self, "_tables", {"elements": elements})
        return self

    def _table(self, name: str, build: Optional[Callable[[], Any]] = None) -> Any:
        """The derived table `name`: made by `build()` on first use and
        kept as long as this family.  Without `build`, the table if it is
        already made, else None.  A build that raises stores nothing."""
        tables = self._tables
        if name not in tables:
            if build is None:
                return None
            tables[name] = build()
        return tables[name]

    def _element_tuples(self) -> tuple[tuple[int, ...], ...]:
        """Each member's ascending elements, in member order."""
        return self._tables["elements"]

    def __setattr__(self, name, value):
        raise AttributeError("SetFamily is immutable")

    @property
    def ground_size(self) -> int:
        return self._ground_size

    @property
    def members(self) -> tuple[ElementSet, ...]:
        return self._table("members", lambda: tuple(map(ElementSet.from_mask, self._masks)))

    @property
    def masks(self) -> tuple[int, ...]:
        return self._masks

    @property
    def uniformity(self) -> Optional[int]:
        return self._uniformity

    def __len__(self) -> int:
        return len(self._masks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetFamily)
            and self._ground_size == other._ground_size
            and self._masks == other._masks
        )

    def __hash__(self) -> int:
        return hash((self._ground_size, self._masks))

    def __repr__(self) -> str:
        return f"SetFamily(x={self._ground_size}, members={len(self._masks)}, uniform={self._uniformity})"


class _SunflowerFields(NamedTuple):
    petal_sets: tuple[ElementSet, ...]
    core: ElementSet


class Sunflower(_SunflowerFields):
    """r >= 2 distinct sets whose pairwise intersections all equal the core.

    Construction validates the full certificate: the sets form a sunflower
    (`is_sunflower`) and its core is the given one.  Pairwise disjoint
    petals follow: if A & B = core, then (A - core) & (B - core) is empty.
    """

    __slots__ = ()

    def __new__(cls, petal_sets: tuple[ElementSet, ...], core: ElementSet) -> Sunflower:
        found = is_sunflower(petal_sets)
        if found is None:
            raise FamilyError("a pairwise intersection differs from the common intersection")
        if found != core:
            raise FamilyError("core is not the intersection of the petal sets")
        return super().__new__(cls, petal_sets, core)

    @classmethod
    def _make(cls, fields) -> Sunflower:  # so `_replace` checks the certificate too
        return cls(*fields)

    @property
    def r(self) -> int:
        return len(self.petal_sets)


def intersection_profile(family: SetFamily) -> frozenset[int]:
    """The set { |A & B| : A, B distinct members }, empty for |F| < 2:
    made on first use and kept on the family.

    One pass over the pairs, a member's later partners at a time, that
    stops after the member with which it has seen every size a pair can
    have: 0 up to the second-largest member size s, or up to s - 1 when
    the largest is s too, since distinct sets of one size meet in fewer
    elements (0..n-1 for an n-uniform family)."""
    def scan():
        masks = family.masks
        if len(masks) < 2:
            return frozenset()
        if family.uniformity is not None:
            sizes = family.uniformity
        else:
            second, largest = sorted(map(int.bit_count, masks))[-2:]
            sizes = second + (largest > second)  # how many of 0, 1, ... a pair can have
        seen: set[int] = set()
        for i, a in enumerate(masks, 1):
            seen |= {(a & b).bit_count() for b in masks[i:]}
            if len(seen) == sizes:
                break
        return frozenset(seen)

    return family._table("profile", scan)


def is_L_intersecting(family: SetFamily, L: Iterable[int]) -> bool:
    """True iff every pairwise intersection size lies in L."""
    return intersection_profile(family) <= frozenset(L)


def is_d_intersecting(family: SetFamily, d: int) -> bool:
    """True iff every pairwise intersection has size at most d (L = {0..d})."""
    if d < 0:
        raise FamilyError(f"d must be >= 0, got {d}")
    return max(intersection_profile(family), default=0) <= d


def link(family: SetFamily, t: ElementSet) -> SetFamily:
    """The link at t: { F - t : F in family, t subset of F }.

    The link of an n-uniform family is (n - |t|)-uniform; members stay
    distinct because a common t is removed from supersets of t.  The link
    at the empty set is the family itself.
    """
    tm = t.mask
    if tm & ~((1 << family.ground_size) - 1):
        raise FamilyError("link set is outside the ground set")
    if tm == 0:
        return family
    masks = [m & ~tm for m in family.masks if tm & ~m == 0]
    uniform = None
    if family.uniformity is not None:
        uniform = family.uniformity - len(t)
        if uniform < 0:
            uniform = None  # t bigger than members: link is empty anyway
    return SetFamily.from_masks(family.ground_size, masks, uniform=uniform)


def is_sunflower(sets: Sequence[ElementSet]) -> Optional[ElementSet]:
    """Core of the sunflower formed by `sets`, or None if they are not one.

    Requires at least 2 pairwise-distinct sets; r = 1 and duplicated sets
    are rejected as degenerate rather than accepted vacuously.
    """
    if len(sets) < 2:
        raise FamilyError(f"sunflower test needs at least 2 sets, got {len(sets)}")
    masks = [s.mask for s in sets]
    if len(set(masks)) != len(masks):
        raise FamilyError("sunflower test requires distinct sets")
    core = union = masks[0]
    for m in masks[1:]:
        core &= m
        union |= m
    # the petals S \ core are pairwise disjoint iff their sizes sum to the
    # size of their union, which is the union of the sets less the core
    petal_sizes = sum(m.bit_count() for m in masks) - len(masks) * core.bit_count()
    if petal_sizes != (union & ~core).bit_count():
        return None
    return ElementSet.from_mask(core)


def _petal_positions(masks: Sequence[int], need: int, core: int) -> Optional[list[int]]:
    """Positions, first in combinations order, of `need` masks that hold
    `core` and whose petals avoid each other.  Depth first on a stack of
    the chosen positions, not by recursion, so no petal count meets the
    interpreter's recursion limit; a prefix that fails is never extended."""
    chosen: list[int] = []
    seen, stack = core, []  # the core and the chosen petals; `seen` before each choice
    pos, limit = 0, len(masks) - need + 1  # the next position lies in [pos, limit)
    while len(chosen) < need:
        while pos < limit and masks[pos] & seen != core:
            pos += 1
        if pos < limit:  # masks[pos] holds the core and avoids every petal so far
            chosen.append(pos)
            stack.append(seen)
            seen |= masks[pos]
            pos, limit = pos + 1, limit + 1
        elif chosen:  # no later mask extends the prefix: drop its last position
            seen = stack.pop()
            pos, limit = chosen.pop() + 1, limit - 1
        else:
            return None
    return chosen


def _sunflower_indices(masks: Sequence[int], r: int) -> Optional[list[int]]:
    """Indices of the first r >= 2 masks, in combinations order, that form
    a sunflower.

    An exact depth-first search in index order.  Every sub-collection of a
    sunflower is a sunflower with the same core, so a prefix that is not
    one never extends to one and is cut: the first full prefix is the
    lexicographically first witness, and None is authoritative.

    For each first mask, masks[i], the later masks are grouped by their
    meet with it: a sunflower (i, j, ...) with core c takes every later
    member from group c, and each member of group c already meets masks[i]
    in exactly c, so the rest of the witness is the petal search
    `_petal_positions` inside that group alone: a later mask extends the
    prefix iff it holds c and avoids every petal chosen so far.  The
    second index fixes the group, so the first witness for i is the group
    witness with the smallest second index, and groups that start after
    that index are not searched.  A group holds no more masks than the
    full scan would try, so at most C(len(masks), r) r-subsets are
    examined.
    """
    for i in range(len(masks) - r + 1):
        meets = list(map(masks[i].__and__, masks[i + 1:]))
        if len(set(meets)) > len(meets) - (r - 2):
            continue  # no group can hold r - 1 masks: masks[i] heads no witness
        groups: dict[int, list[int]] = {}  # meet with masks[i] -> later positions
        for k, c in enumerate(meets, i + 1):
            groups.setdefault(c, []).append(k)
        best: Optional[list[int]] = None
        for c, positions in groups.items():
            if best is not None and best[0] < positions[0]:
                break
            if len(positions) < r - 1:
                continue
            rest = _petal_positions([masks[k] for k in positions], r - 1, c)
            if rest is not None and (best is None or positions[rest[0]] < best[0]):
                best = [positions[p] for p in rest]
        if best is not None:
            return [i] + best
    return None


def find_r_disjoint(family: SetFamily, r: int) -> Optional[list[ElementSet]]:
    """First (in canonical order) r pairwise-disjoint members, else None.

    r pairwise-disjoint members are a sunflower with the empty core, so
    this is the petal search `_petal_positions` of `_sunflower_indices`
    with the core fixed at the empty set: the witness is the
    lexicographically first index sequence, and None is authoritative.
    """
    if r < 1:
        raise FamilyError(f"r must be >= 1, got {r}")
    chosen = _petal_positions(family.masks, r, 0)
    if chosen is None:
        return None
    witness = [family.members[i] for i in chosen]
    if r > 1 and is_sunflower(witness) != ElementSet():
        raise InvariantError("disjointness witness has intersecting members")
    return witness
