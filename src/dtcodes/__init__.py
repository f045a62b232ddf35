"""Double Toeplitz, double circulant and double negacirculant codes.

A numpy library for the [2m, m] codes generated by (I | A) with A a
Toeplitz, circulant or negacirculant matrix over F2, F3 or F4: exact
weight enumerators, average enumerators of the whole family with their
existence thresholds, reduced exhaustive searches, and classification
up to monomial equivalence.
"""

from .average import (
    average_weight_enumerator,
    average_weight_enumerator_bruteforce,
    existence_bound_holds,
    minimal_guaranteed_length,
)
from .equivalence import (
    MonomialMap,
    UndecidedError,
    apply_monomial,
    are_equivalent,
    dedupe_into_classes,
    find_monomial_map,
    frobenius_image,
    signature,
)
from .gf import GF, gf_matmul, parse_element, parse_vector, render_element, render_vector
from .linear import (
    BudgetExceededError,
    LinearCode,
    WeightEnumerator,
    dual_code,
    is_formally_self_dual,
    macwilliams_dual_enumerator,
    min_weight_at_least,
    minimum_weight,
    weight,
    weight_enumerator,
)
from .search import (
    CheckpointError,
    ClassificationReport,
    ClassRecord,
    classify,
    passes_reduction,
    search_dt,
    search_family,
    vector_rank,
)
from .structured import (
    CirculantSpec,
    ToeplitzTriple,
    circulant_matrix,
    classify_triple,
    contains_vector,
    count_codes_containing,
    count_codes_containing_bruteforce,
    double_circulant_code,
    double_negacirculant_code,
    double_toeplitz_code,
    enumerate_triples,
    parse_circulant,
    parse_triple,
    toeplitz_matrix,
    triple_count,
    triple_of_circulant,
)
from .verify import verify_reduction_soundness

__version__ = "0.1.0"

__all__ = [
    "GF",
    "gf_matmul",
    "parse_element",
    "parse_vector",
    "render_element",
    "render_vector",
    "BudgetExceededError",
    "LinearCode",
    "WeightEnumerator",
    "weight",
    "weight_enumerator",
    "minimum_weight",
    "min_weight_at_least",
    "dual_code",
    "is_formally_self_dual",
    "macwilliams_dual_enumerator",
    "ToeplitzTriple",
    "CirculantSpec",
    "toeplitz_matrix",
    "circulant_matrix",
    "double_toeplitz_code",
    "double_circulant_code",
    "double_negacirculant_code",
    "triple_of_circulant",
    "classify_triple",
    "contains_vector",
    "count_codes_containing",
    "count_codes_containing_bruteforce",
    "triple_count",
    "enumerate_triples",
    "parse_triple",
    "parse_circulant",
    "average_weight_enumerator",
    "average_weight_enumerator_bruteforce",
    "existence_bound_holds",
    "minimal_guaranteed_length",
    "MonomialMap",
    "UndecidedError",
    "apply_monomial",
    "signature",
    "are_equivalent",
    "find_monomial_map",
    "dedupe_into_classes",
    "frobenius_image",
    "CheckpointError",
    "ClassificationReport",
    "ClassRecord",
    "vector_rank",
    "passes_reduction",
    "search_dt",
    "search_family",
    "classify",
    "verify_reduction_soundness",
]
