"""Work counts computed from a layer call's inputs and outputs.

Every count here is exact and deterministic for fixed inputs: it is the
number of elementary operations the call's algorithm must perform, derived
outside the program from what went in and what came out.  The benchmark's
own tests check each formula against brute enumeration on tiny inputs.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence


def r_subset_rank(indices: Sequence[int], n: int) -> int:
    """Lexicographic rank of a sorted index tuple among the r-subsets of
    range(n), in the order itertools.combinations produces them."""
    r = len(indices)
    rank = 0
    prev = -1
    for i, c in enumerate(indices):
        for v in range(prev + 1, c):
            rank += math.comb(n - 1 - v, r - 1 - i)
        prev = c
    return rank


def r_subsets_examined(n: int, r: int, witness: Optional[Sequence[int]]) -> int:
    """r-subsets an exhaustive scan in combinations order examines: all
    C(n, r) when none forms a sunflower, else up to and including the
    witness."""
    if witness is None:
        return math.comb(n, r)
    return r_subset_rank(sorted(witness), n) + 1


def pairs_scanned(family_size: int) -> int:
    """Member pairs an intersection profile must visit."""
    return math.comb(family_size, 2)


def w_sets(x: int, w: int) -> int:
    """Size-w sets W of an x-element ground set the audits enumerate."""
    return math.comb(x, w) if 0 <= w <= x else 0


def pairs_classified(x: int, w: int, family_size: int) -> int:
    """(W, S) pairs one audit pass classifies: every W against every member."""
    return w_sets(x, w) * family_size


def submask_visits(member_sizes: Iterable[int]) -> int:
    """Subsets of members a link-count enumeration visits: sum of 2^|S|."""
    return sum(1 << s for s in member_sizes)


def member_tests(trials: int, family_size: int, x: int) -> int:
    """Element-membership tests of the Monte Carlo kernel: every trial
    checks every element of every member row."""
    return trials * family_size * x


def mc_bytes_computed(trials: int, family_size: int, x: int) -> int:
    """Bytes the seed Monte Carlo kernel's arrays occupy, computed from
    their shapes (not measured): the int64 membership matrix once, then
    per trial a float64 uniform row, its bool threshold, the int64 cast,
    an int64 coverage row and its bool comparison."""
    return 8 * family_size * x + trials * (8 * x + x + 8 * x + 8 * family_size + family_size)


def lattice_cells(x: int) -> int:
    """Cells of the full subset lattice the exact evaluator sweeps."""
    return 1 << x
