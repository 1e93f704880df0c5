"""Each family object builds its derived tables once, and no table
outlives the family: one CLI call pays for its family's tables once, and
a second call builds them again."""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from sunflowers import (
    SetFamily,
    exact_satisfying,
    find_spread_link,
    intersection_profile,
    is_kappa_spread,
    sample_satisfying,
    spread_kappa,
)
from sunflowers import spread
from sunflowers.cli import main
from sunflowers.generators import gen_all_k_subsets, gen_random_uniform, gen_sunflower

from _oracles import satisfying_by_subset_loop


@pytest.fixture
def builds(monkeypatch):
    """Calls of the table-building functions, counted through the module globals."""
    seen = Counter()

    def spy(name, key):
        real = getattr(spread, name)

        def counted(*args):
            seen[name, key(*args)] += 1
            return real(*args)

        monkeypatch.setattr(spread, name, counted)

    spy("_link_counts", lambda masks: tuple(masks))
    spy("_upward_lattice", lambda masks, x: tuple(masks))
    spy("_member_index", lambda elements, x: tuple(elements))
    spy("_hit_sizes", lambda lattice, x: x)
    return seen


def _file(tmp_path, name, family):
    path = tmp_path / name
    lines = [f"x={family.ground_size}"] + [" ".join(map(str, s.elements)) for s in family.members]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _by_function(seen):
    return Counter(name for name, _ in seen.elements())


@pytest.mark.parametrize("family", [
    gen_random_uniform(40, 3, 100, seed=5),  # 2-spread: the link is at T = {}, the family itself
    gen_sunflower(2, 1, 6),  # the core qualifies: the link is a second family
])
def test_spread_kappa_d_call_builds_one_link_table_per_family(capsys, tmp_path, builds, family):
    path = _file(tmp_path, "f.txt", family)
    main(["spread", path, "--kappa", "2", "--d", "2"])
    capsys.readouterr()
    links = {key: n for (name, key), n in builds.items() if name == "_link_counts"}
    assert links[family.masks] == 1
    assert set(links.values()) == {1}
    assert len(links) == (1 if find_spread_link(family, 2, 2).t_set.mask == 0 else 2)


@pytest.mark.parametrize("trials", [200, 20_000])
def test_spread_alpha_trials_call_builds_the_lattice_once(capsys, tmp_path, builds, trials):
    family = gen_random_uniform(20, 3, 50, seed=7)
    path = _file(tmp_path, "n20.txt", family)
    main(["spread", path, "--alpha", "1/3", "--trials", str(trials), "--seed", "4"])
    capsys.readouterr()
    # the exact value reads the lattice, the Monte Carlo the index table
    assert builds == {("_upward_lattice", family.masks): 1, ("_hit_sizes", 20): 1,
                      ("_link_counts", family.masks): 1,
                      ("_member_index", family._element_tuples()): 1}


def test_experiment_call_builds_the_index_table_once(capsys, tmp_path, builds):
    family = gen_random_uniform(40, 3, 100, seed=9)
    path = _file(tmp_path, "n40.txt", family)
    main(["experiment", path, "--alpha-grid", "0.1:0.3:0.05", "--trials", "500", "--seed", "1"])
    assert len(capsys.readouterr().out.splitlines()) == 1 + 5
    assert builds == {("_member_index", tuple(s.elements for s in family.members)): 1}


def test_two_cli_calls_on_one_file_build_everything_twice(capsys, tmp_path, builds):
    narrow = _file(tmp_path, "n16.txt", gen_random_uniform(16, 3, 40, seed=2))
    wide = _file(tmp_path, "n40.txt", gen_random_uniform(40, 3, 100, seed=3))
    calls = [["spread", narrow, "--kappa", "2", "--d", "2", "--alpha", "1/2",
              "--trials", "20000", "--seed", "6"],
             ["spread", narrow, "--r", "3"],
             ["experiment", wide, "--alpha-grid", "0.1:0.2:0.1", "--trials", "300", "--seed", "2"]]
    for argv in calls:
        main(argv)
    once = Counter(builds)
    # each spread call reports spread_kappa, so each builds a link table
    assert _by_function(once) == {"_link_counts": 2, "_upward_lattice": 2, "_hit_sizes": 2,
                                  "_member_index": 2}
    for argv in calls:
        main(argv)
    capsys.readouterr()
    assert builds == {key: 2 * n for key, n in once.items()}


def test_equal_families_do_not_share_tables(builds):
    masks = gen_all_k_subsets(6, 2).masks
    for _ in range(2):
        family = SetFamily.from_masks(6, masks)
        assert is_kappa_spread(family, 2) and spread_kappa(family) == pytest.approx(3.0)
        exact_satisfying(family, Fraction(1, 2))
        exact_satisfying(family, Fraction(1, 3))
    assert _by_function(builds) == {"_link_counts": 2, "_upward_lattice": 2, "_hit_sizes": 2}


def test_cached_tables_are_read_only():
    narrow = gen_random_uniform(12, 3, 20, seed=1)
    exact_satisfying(narrow, Fraction(1, 2))
    wide = gen_random_uniform(70, 3, 20, seed=1)
    sample_satisfying(wide, 0.5, 100, seed=0)
    spread_kappa(wide)
    assert narrow._table("lattice") is None  # the up-closure is not kept
    with pytest.raises(ValueError, match="read-only"):
        wide._table("member_index")[0, 0] = 0
    with pytest.raises(TypeError):
        wide._table("links")[1] = 0
    with pytest.raises(TypeError):
        wide._table("largest_links")[1] = 0


def test_the_profile_is_kept_on_the_family():
    family = gen_random_uniform(10, 3, 12, seed=0)
    profile = intersection_profile(family)
    assert intersection_profile(family) is profile
    twin = SetFamily.from_masks(10, family.masks)
    assert twin == family and twin._table("profile") is None
    assert intersection_profile(twin) == profile and intersection_profile(twin) is not profile


def test_the_exact_sum_keeps_only_the_counts_by_size():
    # the up-closure at x = 24 takes 2 MiB; the family keeps its 25 counts
    family = gen_random_uniform(24, 3, 20, seed=2)
    exact_satisfying(gen_random_uniform(8, 3, 5, seed=2), Fraction(1, 2))  # numpy's lazy imports
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        exact_satisfying(family, Fraction(1, 2))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert family._table("lattice") is None
    assert len(family._table("hit_sizes")) == 25
    assert held < 64 * 1024


def test_a_link_budget_error_is_not_kept(monkeypatch):
    family = gen_random_uniform(30, 4, 10, seed=3)  # 160 submask visits
    monkeypatch.setattr(spread, "_ENUMERATION_LIMIT", 100)
    with pytest.raises(ValueError, match="over budget"):
        spread_kappa(family)
    assert family._table("links") is None
    monkeypatch.setattr(spread, "_ENUMERATION_LIMIT", 160)
    assert spread_kappa(family) == spread_kappa(SetFamily.from_masks(30, family.masks))


def test_sample_kernel_does_not_depend_on_a_held_lattice(builds):
    # the Monte Carlo tests members sliced at every trial count, even after
    # an exact sum, and builds its index table once
    family = gen_random_uniform(16, 3, 30, seed=4)
    exact_satisfying(family, Fraction(2, 5))
    assert builds == {("_upward_lattice", family.masks): 1, ("_hit_sizes", 16): 1}
    for trials in (300, 600, 20_000):
        sample_satisfying(family, 0.4, trials, seed=9)
    assert builds == {("_upward_lattice", family.masks): 1, ("_hit_sizes", 16): 1,
                      ("_member_index", family._element_tuples()): 1}


@pytest.mark.parametrize("chunk", [1, 2, 8, 1 << 12])
def test_hit_sizes_do_not_depend_on_the_chunk(monkeypatch, chunk):
    # x = 14 has 256 lattice words; a chunk's high popcount is its base's
    # plus its offsets'
    monkeypatch.setattr(spread, "_SIZE_CHUNK", chunk)
    for seed in range(3):
        family = gen_random_uniform(14, 3, 12, seed=seed)
        sets = [s.elements for s in family.members]
        assert exact_satisfying(family, Fraction(1, 3)) == satisfying_by_subset_loop(
            14, sets, Fraction(1, 3))
    # x <= 7: one word holds every set R, and sizes past x stay empty
    rng = random.Random(chunk)
    for x in range(8):
        for _ in range(3):
            sets = {tuple(e for e in range(x) if rng.random() < 0.4) for _ in range(rng.randint(1, 4))}
            family = SetFamily(x, sorted(sets))
            assert exact_satisfying(family, Fraction(2, 7)) == satisfying_by_subset_loop(
                x, [s.elements for s in family.members], Fraction(2, 7))
