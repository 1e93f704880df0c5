"""Sunflower detection and restricted-intersection analysis for finite set families.

`import sunflowers` loads no submodule: each name below is imported from
its module when it is first used (PEP 562), so `from sunflowers import X`
loads only the modules that X needs.
"""

import importlib

#: module -> the names the package exports from it
_EXPORTS = {
    "families": ("ElementSet", "FamilyError", "InvariantError", "SetFamily", "Sunflower",
                 "find_r_disjoint", "intersection_profile", "is_L_intersecting",
                 "is_d_intersecting", "is_sunflower", "link"),
    "formats": ("ParseError", "dump_family_json", "dump_family_text", "load_family",
                "parse_family_json", "parse_family_text"),
    "bounds": ("BoundReport", "CrossoverReport", "bound_report", "crossover_report",
               "d_intersecting_bound", "erdos_rado_bound", "falling_factorial_bound",
               "l_intersecting_bound", "l_multinomial_bound", "pigeonhole_limit", "rlogn_bound",
               "three_sunflower_bound"),
    "finders": ("FinderTrace", "LemmaViolationError", "SearchOutcome", "brute_force_sunflower",
                "deza_extract", "find_any", "l_intersecting_find"),
    "spread": ("DisjointnessReport", "SatisfyingEstimate", "SpreadLinkResult",
               "check_satisfying_disjoint", "exact_satisfying", "find_spread_link",
               "is_kappa_spread", "sample_satisfying", "spread_kappa"),
    "encoding": ("audit_encoding_bound", "audit_markov_step"),
    "generators": ("GeneratorError", "gen_all_k_subsets", "gen_random_L_intersecting",
                   "gen_random_uniform", "gen_sunflower", "gen_transversal"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # not kept in the package: the name always reads its module's binding
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
