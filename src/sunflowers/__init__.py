"""Sunflower detection and restricted-intersection analysis for finite set families."""

from .families import (
    EMPTY_SET,
    ElementSet,
    FamilyError,
    InvariantError,
    SetFamily,
    Sunflower,
    find_r_disjoint,
    intersection_profile,
    is_L_intersecting,
    is_d_intersecting,
    is_sunflower,
    link,
)
from .formats import (
    ParseError,
    dump_family_json,
    dump_family_text,
    load_family,
    parse_family_json,
    parse_family_text,
)
from .bounds import (
    BoundReport,
    CrossoverReport,
    bound_report,
    crossover_report,
    d_intersecting_bound,
    erdos_rado_bound,
    falling_factorial_bound,
    l_intersecting_bound,
    l_multinomial_bound,
    pigeonhole_limit,
    rlogn_bound,
    three_sunflower_bound,
)
from .finders import (
    FinderTrace,
    LemmaViolationError,
    SearchOutcome,
    brute_force_sunflower,
    deza_extract,
    find_any,
    l_intersecting_find,
)
from .spread import (
    DisjointnessReport,
    SatisfyingEstimate,
    SpreadLinkResult,
    check_satisfying_disjoint,
    exact_satisfying,
    find_spread_link,
    is_kappa_spread,
    sample_satisfying,
    spread_kappa,
)
from .encoding import (
    DecodeError,
    EncodingKey,
    PairClassification,
    audit_encoding_bound,
    audit_markov_step,
    bad_pair_members,
    classify_pair,
    decode_bad_pair,
    encode_bad_pair,
)
from .generators import (
    GeneratorError,
    gen_all_k_subsets,
    gen_random_L_intersecting,
    gen_random_uniform,
    gen_single_intersection,
    gen_sunflower,
    gen_transversal,
)

__version__ = "0.1.0"
