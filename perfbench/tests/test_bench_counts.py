"""The count formulas against brute enumeration, and against the work the
library actually does, on tiny inputs."""

import math
import random
from itertools import combinations

import counts
import pytest
from sunflowers import SetFamily, brute_force_sunflower
from sunflowers import encoding, spread


@pytest.mark.parametrize("n", range(0, 8))
@pytest.mark.parametrize("r", range(1, 5))
def test_r_subset_rank_matches_enumeration_order(n, r):
    for rank, combo in enumerate(combinations(range(n), r)):
        assert counts.r_subset_rank(combo, n) == rank


def _scan_until_sunflower(sets, r):
    """r-subsets an exhaustive scan examines, counted by running it."""
    examined = 0
    for combo in combinations(sets, r):
        examined += 1
        core = frozenset.intersection(*combo)
        petals = [s - core for s in combo]
        if all(not (a & b) for a, b in combinations(petals, 2)):
            return examined
    return examined


@pytest.mark.parametrize("seed", range(12))
def test_r_subsets_examined_matches_a_counted_scan(seed):
    rng = random.Random(seed)
    x = rng.randint(5, 8)
    sets = sorted({frozenset(rng.sample(range(x), rng.randint(1, 3))) for _ in range(rng.randint(3, 9))},
                  key=sorted)
    family = SetFamily(x, [sorted(s) for s in sets])
    r = rng.choice([3, 4])
    flower = brute_force_sunflower(family, r)
    witness = None
    if flower is not None:
        index = {m: i for i, m in enumerate(family.masks)}
        witness = [index[s.mask] for s in flower.petal_sets]
    members = [frozenset(s.elements) for s in family.members]
    assert counts.r_subsets_examined(len(family), r, witness) == _scan_until_sunflower(members, r)


def test_pairs_classified_counts_every_classify_call(monkeypatch):
    family = SetFamily(7, [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 6], [5, 6, 0]])
    calls = []
    real = encoding.classify_pair
    monkeypatch.setattr(encoding, "classify_pair", lambda *a: calls.append(1) or real(*a))
    encoding.audit_encoding_bound(family, 3, 1)
    assert len(calls) == counts.pairs_classified(7, 3, len(family)) == math.comb(7, 3) * 5
    assert counts.w_sets(7, 3) == sum(1 for _ in combinations(range(7), 3))


def test_submask_visits_counts_every_enumerated_subset(monkeypatch):
    family = SetFamily(6, [[0, 1, 2], [2, 3, 4], [1, 4, 5], [0, 3, 5]])
    visits = []
    real = spread.submasks

    def counted(mask):
        for sub in real(mask):
            visits.append(sub)
            yield sub

    monkeypatch.setattr(spread, "submasks", counted)
    spread.spread_kappa(family)
    assert len(visits) == counts.submask_visits([3, 3, 3, 3]) == 4 * 2**3


def test_member_tests_is_one_per_trial_member_element():
    trials, members, x = 3, [[0, 1], [2]], 4
    loops = sum(1 for _ in range(trials) for _ in members for _ in range(x))
    assert counts.member_tests(trials, len(members), x) == loops


def test_lattice_and_pairs():
    assert counts.lattice_cells(5) == sum(1 for _ in range(32))
    assert counts.pairs_scanned(6) == sum(1 for _ in combinations(range(6), 2))
    assert counts.mc_bytes_computed(0, 3, 4) == 8 * 3 * 4
