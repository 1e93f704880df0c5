"""Sunflower extraction: exact pruned search, Deza extraction, and the
recursive extractor for families with restricted intersection sizes.

The recursive extractor mirrors the inductive argument behind the
multinomial threshold: peel off the smallest intersection size l1 by
pigeonholing on a maximal pairwise-l1 subfamily, pass to the densest link
at an (l1+1)-subset of the best pivot, and recurse with one fewer
intersection size.  The branching limit m = max(r-1, n^2-n+1) is fixed
from the top-level n and threaded unchanged through the recursion.  Every
"pick one" step takes the canonical-order maximizer, which dominates the
pigeonhole average, so whenever the family exceeds the multinomial bound
the extractor is guaranteed to succeed.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional

from .bounds import _validated_l, erdos_rado_bound, l_multinomial_bound, pigeonhole_limit
from .families import (
    ElementSet,
    FamilyError,
    InvariantError,
    SetFamily,
    Sunflower,
    _subset_masks,
    _sunflower_indices,
    elements_of,
    intersection_profile,
    link,
)

DEFAULT_BUDGET = 500_000  # find_any's default cap on C(|F|, r)
STRATEGIES = ("auto", "recursive", "brute")  # find_any's strategies, the default first


class FinderError(ValueError):
    """Precondition violation in a finder."""


class LemmaViolationError(InvariantError):
    """A finder broke a theorem: a witness failed its sunflower
    certificate, or a search found none above a bound that guarantees one.

    This cannot happen for correct inputs; raising it loudly (rather than
    returning a bad certificate) is deliberate.
    """


class TraceLevel(NamedTuple):
    """One level of the recursive extraction.

    `subfamily` records the greedy maximal pairwise-equal subfamily,
    `pivot` the member chosen from it, and `pivot_link` the (l1+1)-subset
    of the pivot whose link is recursed on.  At every recursed level the
    pigeonhole guarantees filtered_size >= family_size/m and
    link_size >= filtered_size/C(n, l1+1).
    """

    depth: int
    n: int
    L: tuple[int, ...]
    m: int
    family_size: int
    outcome: str
    subfamily: Optional[tuple[tuple[int, ...], ...]] = None
    pivot: Optional[tuple[int, ...]] = None
    pivot_link: Optional[tuple[int, ...]] = None
    filtered_size: Optional[int] = None
    link_size: Optional[int] = None


class FinderTrace(NamedTuple):
    found: bool
    levels: tuple[TraceLevel, ...]


class SearchOutcome(NamedTuple):
    """Three-valued search result: found / definitively absent / unknown."""

    status: str  # "found" | "absent" | "unknown"
    sunflower: Optional[Sunflower] = None
    trace: Optional[FinderTrace] = None
    method: str = ""
    note: str = ""


def _certified(petal_sets: tuple[ElementSet, ...], core: ElementSet) -> Sunflower:
    """The sunflower (petal_sets, core), its certificate checked by
    `Sunflower`; a failed check in a finder breaks a theorem, so it
    raises LemmaViolationError (exit 4), not the input error FamilyError."""
    try:
        return Sunflower(petal_sets, core)
    except FamilyError as exc:
        raise LemmaViolationError(f"certificate verification failed: {exc}") from exc


def brute_force_sunflower(family: SetFamily, r: int) -> Optional[Sunflower]:
    """First r-subset of members (canonical order) forming a sunflower.

    The exact grouped search `families._sunflower_indices`: the witness is
    the one an exhaustive scan of all C(|F|, r) member subsets would
    return first, and a None result is an authoritative "no r-sunflower in
    this family".
    The witness is checked once, against the meet of its members as the
    core; a failed certificate raises LemmaViolationError, as does None on
    an n-uniform family (n >= 1) with more than `erdos_rado_bound(n, r)`
    members.
    """
    if r < 2:
        raise FinderError(f"need r >= 2, got {r}")
    chosen = _sunflower_indices(family.masks, r)
    if chosen is None:
        n = family.uniformity
        if n and len(family) > erdos_rado_bound(n, r):
            raise LemmaViolationError(f"no sunflower in {len(family)} sets, above Erdős–Rado")
        return None
    core = family.masks[chosen[0]]
    for i in chosen[1:]:
        core &= family.masks[i]
    flower = _certified(tuple(family.members[i] for i in chosen), ElementSet.from_mask(core))
    if flower.r != r:
        raise LemmaViolationError(f"certificate has {flower.r} sets, not r = {r}")
    return flower


def deza_extract(family: SetFamily, r: int) -> Sunflower:
    """Extract r sunflower members from a large single-intersection family.

    An n-uniform family whose pairwise intersections all have one size t
    and with at least n^2-n+2 members is necessarily a sunflower; the
    first r members (canonical order) with core = intersection of the
    whole family are returned after full certificate verification.  The
    size precondition is max(r, n^2-n+2) so that r members exist.
    """
    if r < 2:
        raise FinderError(f"need r >= 2, got {r}")
    n = family.uniformity
    if n is None or n < 1:
        raise FinderError("family must be n-uniform with n >= 1")
    profile = intersection_profile(family)
    if len(profile) != 1:
        raise FinderError(
            f"intersection profile {sorted(profile)} is not a single size"
        )
    (t,) = profile
    threshold = pigeonhole_limit(n, r) + 1  # max(r, n^2-n+2)
    if len(family) < threshold:
        raise FinderError(
            f"family size {len(family)} is below max(r, n^2-n+2) = {threshold}"
        )
    core = family.masks[0]
    for m in family.masks[1:]:
        core &= m
    if core.bit_count() != t:
        raise LemmaViolationError(
            f"common intersection has size {core.bit_count()}, pairwise size is {t}"
        )
    return _certified(family.members[:r], ElementSet.from_mask(core))


def _search(
    family: SetFamily, sizes: tuple[int, ...], r: int, m: int, depth: int, levels: list
) -> Optional[Sunflower]:
    n = family.uniformity
    base = dict(depth=depth, n=n, L=sizes, m=m, family_size=len(family))
    if len(family) < r:
        levels.append(TraceLevel(outcome="too-few-sets", **base))
        return None
    if len(sizes) == 1:
        if len(family) > pigeonhole_limit(n, r):
            flower = deza_extract(family, r)
            levels.append(TraceLevel(outcome="base-extracted", **base))
            return flower
        levels.append(TraceLevel(outcome="base-hypothesis-not-met", **base))
        return None

    l1 = sizes[0]
    # greedy maximal subfamily with all pairwise intersections exactly l1
    sub: list[int] = []
    for mask in family.masks:
        if all((mask & other).bit_count() == l1 for other in sub):
            sub.append(mask)
    if len(sub) > m:
        subfamily = SetFamily.from_masks(family.ground_size, sub, uniform=n)
        flower = deza_extract(subfamily, r)
        levels.append(
            TraceLevel(
                outcome="large-subfamily-extracted",
                subfamily=tuple(elements_of(s) for s in sub),
                **base,
            )
        )
        return flower

    # pivot: the subfamily member meeting the most members in >= l1+1 elements
    pivot = None
    filtered: list[int] = []
    for smask in sub:
        hits = [fm for fm in family.masks if (fm & smask).bit_count() >= l1 + 1]
        if pivot is None or len(hits) > len(filtered):
            pivot, filtered = smask, hits
    if pivot is None or len(filtered) * m < len(family):
        raise LemmaViolationError("pigeonhole guarantee for the pivot failed")

    # densest link over (l1+1)-subsets of the pivot, canonical tie-break
    pivot_link = None
    link_count = -1
    for spm in _subset_masks(elements_of(pivot), l1 + 1):
        cnt = sum(1 for fm in filtered if spm & ~fm == 0)
        if cnt > link_count:
            pivot_link, link_count = spm, cnt
    if pivot_link is None or link_count * math.comb(n, l1 + 1) < len(filtered):
        raise LemmaViolationError("pigeonhole guarantee for the pivot link failed")

    # every member holding pivot_link meets the pivot in >= l1+1 elements,
    # so the link of the whole family is the link of `filtered`
    link_family = link(family, ElementSet.from_mask(pivot_link))
    levels.append(
        TraceLevel(
            outcome="recursed",
            subfamily=tuple(elements_of(s) for s in sub),
            pivot=elements_of(pivot),
            pivot_link=elements_of(pivot_link),
            filtered_size=len(filtered),
            link_size=len(link_family),
            **base,
        )
    )
    child = _search(
        link_family,
        tuple(e - l1 - 1 for e in sizes[1:]),
        r,
        m,
        depth + 1,
        levels,
    )
    if child is None:
        return None
    lifted = tuple(ElementSet.from_mask(p.mask | pivot_link) for p in child.petal_sets)
    return _certified(lifted, ElementSet.from_mask(child.core.mask | pivot_link))


def l_intersecting_find(
    family: SetFamily, L: Iterable[int], r: int
) -> tuple[Optional[Sunflower], FinderTrace]:
    """Run the recursive extractor on an L-intersecting n-uniform family.

    Returns (sunflower, trace) on success and (None, trace) when the
    hypothesis is not met somewhere down the recursion -- a structured
    non-error outcome, NOT a proof that no sunflower exists.  Whenever
    |F| exceeds the multinomial threshold for (n, L, r), success is
    guaranteed, and a failure there raises LemmaViolationError.  The
    returned sunflower's certificate was checked when it was built, and
    its members are checked here to belong to the input family.
    """
    if r < 2:
        raise FinderError(f"need r >= 2, got {r}")
    n = family.uniformity
    if n is None or n < 1:
        raise FinderError("family must be n-uniform with n >= 1")
    try:
        sizes = _validated_l(n, L)
    except ValueError as exc:
        raise FinderError(str(exc)) from exc
    profile = intersection_profile(family)
    if not profile <= frozenset(sizes):
        raise FinderError(
            f"family has intersection sizes {sorted(profile)}, not within {list(sizes)}"
        )
    levels: list[TraceLevel] = []
    flower = _search(family, sizes, r, pigeonhole_limit(n, r), 0, levels)
    if flower is not None:
        member_masks = set(family.masks)
        if not all(s.mask in member_masks for s in flower.petal_sets):
            raise LemmaViolationError("certificate uses sets outside the family")
    elif len(family) > l_multinomial_bound(n, sizes, r):
        raise LemmaViolationError(f"no sunflower in {len(family)} sets, over the multinomial bound")
    return flower, FinderTrace(found=flower is not None, levels=tuple(levels))


def find_any(
    family: SetFamily, r: int, strategy: str = STRATEGIES[0], budget: int = DEFAULT_BUDGET
) -> SearchOutcome:
    """Strategy dispatcher over the finders.

    "auto" tries `l_intersecting_find` on the family's profile (when uniform) and
    falls back to the exact search of `brute_force_sunflower` (method
    "brute-force") when C(|F|, r), the most r-subsets that search can
    examine, fits the budget; an exceeded budget yields status "unknown",
    never a false "absent".  Any returned sunflower has passed certificate
    verification.
    """
    if r < 2:
        raise FinderError(f"need r >= 2, got {r}")
    if budget < 0:
        raise FinderError(f"budget must be >= 0, got {budget}")
    if strategy not in STRATEGIES:
        raise FinderError(f"unknown strategy {strategy!r}")
    trace = None
    if strategy in ("auto", "recursive"):
        n = family.uniformity
        if n is not None and n >= 1 and len(family) >= 2:
            flower, trace = l_intersecting_find(family, intersection_profile(family), r)
            if flower is not None:
                return SearchOutcome(
                    status="found", sunflower=flower, trace=trace, method="recursive"
                )
        if strategy == "recursive":
            return SearchOutcome(status="unknown", trace=trace, method="recursive",
                                 note="hypothesis not met; absence not established")
    subsets = math.comb(len(family), r)
    if subsets > budget:
        return SearchOutcome(status="unknown", trace=trace, method="brute-force",
                             note=f"{subsets} r-subsets exceed budget {budget}")
    flower = brute_force_sunflower(family, r)
    if flower is not None:
        return SearchOutcome(status="found", sunflower=flower, trace=trace, method="brute-force")
    return SearchOutcome(status="absent", trace=trace, method="brute-force")
