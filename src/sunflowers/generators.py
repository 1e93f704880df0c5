"""Deterministic and seeded constructions of families with known structure.

Every generator re-verifies its advertised property before returning and
raises InvariantError on failure; randomized generators take an explicit
seed and use a counter-based PRNG (numpy Philox), so identical (parameters,
seed) always produce the identical family.  Rejection-sampling budgets are
explicit -- no generator can loop silently forever.

numpy loads on first use, when a seeded generator makes its PRNG or
draws subsets, so importing this module and the deterministic generators
do not load it, and the CLI can start numpy's OpenBLAS with one thread
unless OPENBLAS_NUM_THREADS is set.
"""

from __future__ import annotations

import math
from itertools import product
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .families import (DEFAULT_SIZE_BUDGET, _BITS_LIMIT, InvariantError, SetFamily,
                        _subset_masks, is_L_intersecting, is_sunflower)

if TYPE_CHECKING:
    import numpy as np

class GeneratorError(ValueError):
    """Infeasible generator parameters or a stated limit exceeded."""


DEFAULT_DRAW_BUDGET = 100_000  # gen_random_L_intersecting's default number of draws
_DRAW_ROWS = 512  # rows of uniforms in the largest block of `_n_subset_masks`


def _check_size(members: int, x: int, noun: str, seeded: bool = False) -> None:
    """Refuse a family before any of its sets is made: more than
    DEFAULT_SIZE_BUDGET members, or more members x ground size bits of
    masks than _BITS_LIMIT (a mask is as long as its largest element).  A
    `seeded` kind also refuses a block of float64 draws over _BITS_LIMIT."""
    if members > DEFAULT_SIZE_BUDGET:
        raise GeneratorError(f"{members} {noun} exceed budget {DEFAULT_SIZE_BUDGET}")
    if members * x > _BITS_LIMIT:
        raise GeneratorError(f"{members} {noun} over {x} elements exceed {_BITS_LIMIT} mask bits")
    if seeded and _DRAW_ROWS * 64 * x > _BITS_LIMIT:
        raise GeneratorError(f"{_DRAW_ROWS} draws over {x} elements exceed {_BITS_LIMIT} bits")


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise GeneratorError(f"seed must be >= 0, got {seed}")
    import numpy as np
    return np.random.Generator(np.random.Philox(key=seed))


def _n_subset_masks(rng, x: int, n: int, max_draws: int):
    """Up to max_draws uniform n-subset masks of {0..x-1}, 1 <= n <= x.

    Batched: each draw takes the positions of the n smallest entries in a
    row of iid uniforms, which is a uniform n-subset.  Blocks start at 64
    rows and double up to _DRAW_ROWS; rows leave the Philox stream in order
    whatever the blocks, so the masks depend on the seed alone.  A row packs
    little-endian: byte j holds elements 8j..8j+7, and its bytes are the mask.
    """
    import numpy as np
    drawn, rows = 0, 64
    while drawn < max_draws:
        block = min(rows, max_draws - drawn)
        picks = np.argpartition(rng.random((block, x)), n - 1, axis=1)[:, :n]
        hit = np.zeros((block, x), dtype=bool)
        np.put_along_axis(hit, picks, True, axis=1)
        packed = np.packbits(hit, axis=1, bitorder="little")
        width = packed.shape[1]
        data = packed.tobytes()
        for start in range(0, len(data), width):
            yield int.from_bytes(data[start:start + width], "little")
        drawn, rows = drawn + block, min(2 * rows, _DRAW_ROWS)


def gen_sunflower(core_size: int, petal_size: int, r: int) -> SetFamily:
    """An explicit r-sunflower: core {0..core_size-1}, then r disjoint
    petals of `petal_size` fresh elements each."""
    if r < 2 or petal_size < 1 or core_size < 0:
        raise GeneratorError(
            f"need r >= 2, petal_size >= 1, core_size >= 0, got ({core_size}, {petal_size}, {r})"
        )
    x = core_size + r * petal_size
    _check_size(r, x, "sets")
    core = tuple(range(core_size))
    family = SetFamily._canonical(x, [core + tuple(range(s, s + petal_size))
                                      for s in range(core_size, x, petal_size)])
    got = is_sunflower(family.members)
    if got is None or got.elements != core:
        raise InvariantError("sunflower self-check failed")
    return family


def gen_transversal(blocks: int, block_size: int) -> SetFamily:
    """All block_size^blocks transversals of `blocks` disjoint blocks:
    one element chosen per block.  The classical sunflower-free fixture."""
    if blocks < 1 or block_size < 1:
        raise GeneratorError(f"need blocks >= 1 and block_size >= 1, got ({blocks}, {block_size})")
    count = block_size**blocks
    _check_size(count, blocks * block_size, "transversals")
    ranges = [range(b * block_size, (b + 1) * block_size) for b in range(blocks)]
    # the product of ascending disjoint blocks is already in canonical order
    family = SetFamily._canonical(blocks * block_size, product(*ranges))
    if len(family) != count or family.uniformity != blocks:
        raise InvariantError("transversal self-check failed")
    return family


def gen_all_k_subsets(x: int, k: int) -> SetFamily:
    """All k-subsets of {0..x-1} in canonical order."""
    if k < 0 or k > x:
        raise GeneratorError(f"need 0 <= k <= x, got k={k}, x={x}")
    _check_size(math.comb(x, k), x, "subsets")
    return SetFamily.from_masks(x, _subset_masks(range(x), k))


def gen_random_uniform(x: int, n: int, count: int, seed: int) -> SetFamily:
    """`count` distinct uniformly-sampled n-subsets of {0..x-1}.

    Rejection sampling of sorted draws; when the request is a large
    fraction of C(x, n) (or the total is tiny) the full enumeration is
    sampled instead, which avoids unbounded rejection near saturation.
    Both paths are deterministic for a fixed seed.
    """
    total = math.comb(x, n)
    if count < 0 or count > total:
        raise GeneratorError(f"cannot draw {count} distinct {n}-subsets of {x} (total {total})")
    _check_size(count, x, "subsets", seeded=True)
    short = total <= 4096  # a list this short is made uncharged
    if short or total <= 4 * count:  # sample from the list of all C(x, n) masks
        if not short:
            _check_size(total, x, "listed subsets")
        idx = _rng(seed).choice(total, size=count, replace=False)
        all_masks = list(_subset_masks(range(x), n))
        masks = [all_masks[i] for i in sorted(int(i) for i in idx)]
        return SetFamily.from_masks(x, masks, uniform=n)
    # total > 4*count, so rejection converges quickly; count 0 draws nothing
    chosen: set[int] = set()
    cap = 200 * count + 1000
    draws = _n_subset_masks(_rng(seed), x, n, cap)
    while len(chosen) < count:
        if (mask := next(draws, None)) is None:  # all cap draws are spent
            raise GeneratorError(f"rejection sampling exceeded {cap} attempts")
        chosen.add(mask)
    return SetFamily.from_masks(x, chosen, uniform=n)


def _greedy_L_masks(rng, x: int, n: int, allowed: frozenset, target_count: int, budget: int):
    """Kept masks of the greedy L-intersecting construction, and why it
    stopped: "target", "budget" or "proved-maximal".

    A draw is kept iff it meets every kept set in a size in `allowed`.
    Once C(x, n) draws have been rejected, the n-subsets still compatible
    with every kept set are listed, at about the cost of the draws already
    wasted; from then on a draw is kept iff it is listed, and each kept set
    filters the list.  An empty list proves the family maximal: no later
    draw could be kept, so stopping there gives the masks a run through
    the whole budget would give.
    """
    if n == 0:
        # the empty set, the only 0-subset, is kept if a draw is allowed
        kept = [0][:min(target_count, budget)]
        stop = "proved-maximal" if kept else "budget"
        return kept, "target" if len(kept) >= target_count else stop
    kept: dict[int, None] = {}  # the kept masks in draw order, and a set of them
    total = math.comb(x, n)
    rejected = 0
    compatible: Optional[set[int]] = None
    for mask in _n_subset_masks(rng, x, n, budget):
        if len(kept) >= target_count or compatible == set():
            break
        if compatible is not None:
            if mask not in compatible:
                continue
            compatible = {c for c in compatible if (c & mask).bit_count() in allowed}
        # a duplicate of a kept set intersects it in n elements, n not in L
        elif mask in kept or not all((mask & m).bit_count() in allowed for m in kept):
            rejected += 1
            if rejected == total:
                compatible = {
                    c for c in _subset_masks(range(x), n)
                    if c not in kept and all((c & m).bit_count() in allowed for m in kept)
                }
            continue
        kept[mask] = None
    if len(kept) >= target_count:
        return list(kept), "target"
    return list(kept), "proved-maximal" if compatible == set() else "budget"


def gen_random_L_intersecting(
    x: int,
    n: int,
    L: Iterable[int],
    target_count: int,
    seed: int,
    budget: int = DEFAULT_DRAW_BUDGET,
    *,
    on_stop: Optional[Callable[[str], None]] = None,
) -> SetFamily:
    """Greedy seeded construction of an L-intersecting n-uniform family.

    Repeatedly samples an n-subset and keeps it iff every intersection with
    the kept sets has size in L.  Stops at target_count sets, after
    `budget` draws, or as soon as the family is provably maximal (no
    n-subset can join it), so the result may be smaller than requested
    (callers compare len() against target_count).  The early stop never
    changes the result, since no later draw could be kept.  `on_stop`, if
    given, receives the stop reason: "target", "budget" or
    "proved-maximal".  Not a uniform sampler over all L-intersecting
    families -- greedy acceptance biases toward families that are easy to
    extend.
    """
    allowed = frozenset(int(e) for e in L)
    if not all(0 <= e < n for e in allowed):
        raise GeneratorError(f"L must be a subset of {{0..{n - 1}}}, got {sorted(allowed)}")
    if target_count < 0:
        raise GeneratorError(f"target_count must be >= 0, got {target_count}")
    if budget < 0:
        raise GeneratorError(f"budget must be >= 0, got {budget}")
    if n > x:
        raise GeneratorError(f"need n <= x, got n={n}, x={x}")
    _check_size(min(target_count, budget), x, "sets", seeded=True)
    kept, stop = _greedy_L_masks(_rng(seed), x, n, allowed, target_count, budget)
    family = SetFamily.from_masks(x, kept, uniform=n)
    if not is_L_intersecting(family, allowed):
        raise InvariantError("L-intersecting self-check failed")
    if on_stop is not None:
        on_stop(stop)
    return family
