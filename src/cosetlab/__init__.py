"""Exact desk-scale laboratory for Fourier sampling of hidden-subgroup coset
states over symmetric groups and their block-swap wreath products."""

from .bounds import (
    BadSet,
    build_bad_set,
    delta,
    delta_alt,
    exact_weak_tv,
    expectation_tv_bound,
    full_tvd_bound,
    lambda_cutoff_holds,
    theorem_pipeline,
    weak_tv_bound,
)
from .distributions import SamplingDistribution, uniform_distribution
from .errors import (
    BoundUndefinedError,
    CapExceededError,
    CosetLabError,
    GroupMismatchError,
    UnsupportedGroupError,
    ZeroRankError,
)
from .groups import (
    ConjugacyClass,
    FiniteGroup,
    Permutation,
    SymmetricGroup,
    WreathElement,
    WreathGroup,
    cached_group,
    conjugate,
    group_from_spec,
    involution_class,
    parse_cycles,
    parse_permutation,
    parse_wreath_element,
)
from .irreps import (
    Irrep,
    MatrixRep,
    character_table,
    group_irreps,
    irrep_labels,
    label_dim,
    label_str,
    parse_label,
    plancherel,
    wreath_character,
    young_orthogonal_rep,
)
from .rng import CounterRng
from .sampling import (
    HiddenSubgroup,
    MeasurementBasis,
    RegisterTuple,
    claim_projector_average,
    doubled_expectation,
    expected_isotypic_dimension,
    interference_moments,
    isotypic_masses,
    multiregister_dist,
    projector_sum_bound,
    strong_dist,
    subset_expectation,
    subsets,
    weak_dist,
    weak_dist_tuples,
    weak_rank,
    weak_tuple_law,
)
from .tableaux import (
    character_sn,
    dimension,
    hook_lengths,
    partitions,
    standard_tableaux,
)

__version__ = "0.1.0"

__all__ = [
    "BadSet", "build_bad_set", "delta", "delta_alt",
    "exact_weak_tv", "expectation_tv_bound", "full_tvd_bound",
    "lambda_cutoff_holds", "theorem_pipeline", "weak_tv_bound",
    "SamplingDistribution", "uniform_distribution",
    "BoundUndefinedError", "CapExceededError", "CosetLabError",
    "GroupMismatchError", "UnsupportedGroupError", "ZeroRankError",
    "ConjugacyClass", "FiniteGroup", "Permutation", "SymmetricGroup",
    "WreathElement", "WreathGroup", "cached_group", "conjugate",
    "group_from_spec", "involution_class", "parse_cycles",
    "parse_permutation", "parse_wreath_element",
    "Irrep", "MatrixRep", "character_table", "group_irreps", "irrep_labels",
    "label_dim", "label_str", "parse_label",
    "plancherel", "wreath_character", "young_orthogonal_rep",
    "CounterRng",
    "HiddenSubgroup", "MeasurementBasis", "RegisterTuple",
    "claim_projector_average", "doubled_expectation",
    "expected_isotypic_dimension", "interference_moments", "isotypic_masses",
    "multiregister_dist", "projector_sum_bound", "strong_dist",
    "subset_expectation", "subsets", "weak_dist", "weak_dist_tuples",
    "weak_rank", "weak_tuple_law",
    "character_sn", "dimension", "hook_lengths", "partitions",
    "standard_tableaux",
    "__version__",
]
