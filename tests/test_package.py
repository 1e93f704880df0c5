"""The package's exported names: one table, each name loaded from its module on first use."""

import importlib

import pytest

import sunflowers

# module -> the names `sunflowers` exports from it, in the order of `__all__`
EXPORTS = {
    "families": ["ElementSet", "FamilyError", "InvariantError", "SetFamily", "Sunflower",
                 "find_r_disjoint", "intersection_profile", "is_L_intersecting",
                 "is_d_intersecting", "is_sunflower", "link"],
    "formats": ["ParseError", "dump_family_json", "dump_family_text", "load_family",
                "parse_family_json", "parse_family_text"],
    "bounds": ["BoundReport", "CrossoverReport", "bound_report", "crossover_report",
               "d_intersecting_bound", "erdos_rado_bound", "falling_factorial_bound",
               "l_intersecting_bound", "l_multinomial_bound", "pigeonhole_limit", "rlogn_bound",
               "three_sunflower_bound"],
    "finders": ["FinderTrace", "LemmaViolationError", "SearchOutcome", "brute_force_sunflower",
                "deza_extract", "find_any", "l_intersecting_find"],
    "spread": ["DisjointnessReport", "SatisfyingEstimate", "SpreadLinkResult",
               "check_satisfying_disjoint", "exact_satisfying", "find_spread_link",
               "is_kappa_spread", "sample_satisfying", "spread_kappa"],
    "encoding": ["audit_encoding_bound", "audit_markov_step"],
    "generators": ["GeneratorError", "gen_all_k_subsets", "gen_random_L_intersecting",
                   "gen_random_uniform", "gen_sunflower", "gen_transversal"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_pins_the_exported_names():
    assert len(NAMES) == 53
    assert sunflowers.__all__ == [name for _, name in NAMES]


@pytest.mark.parametrize("module,name", NAMES)
def test_each_name_is_its_module_binding(module, name):
    defining = importlib.import_module(f"sunflowers.{module}")
    assert getattr(sunflowers, name) is getattr(defining, name)


def test_a_name_reads_its_module_binding_when_used(monkeypatch):
    # nothing is copied into the package: a rebound module name is what it gives
    from sunflowers import finders

    monkeypatch.setattr(finders, "find_any", "rebound")
    assert sunflowers.find_any == "rebound"


def test_dir_and_star_import_list_every_name():
    listed = dir(sunflowers)
    assert set(sunflowers.__all__) <= set(listed)
    assert listed == sorted(listed) and "__version__" in listed
    namespace = {}
    exec("from sunflowers import *", namespace)
    assert {name: namespace[name] for name in sunflowers.__all__} == {
        name: getattr(sunflowers, name) for name in sunflowers.__all__}


def test_an_unknown_name_is_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="'sunflowers' has no attribute 'no_such_name'"):
        sunflowers.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from sunflowers import no_such_name", {})
