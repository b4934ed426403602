"""Exact skew-polynomial rings over finite fields and skew-cyclic codes.

The package provides finite-field towers with Frobenius automorphisms,
the twisted polynomial ring F[x; sigma] with its one-sided Euclidean
theory, right evaluation and algebraic sets, the bridge to linearized
polynomials, skew circulant matrices with the full constacyclic code and
duality machinery, and designed-distance (skew-BCH, skew-RS, evaluation)
code constructions with an exact minimum-distance oracle.
"""

from .bch import (
    Bch1Spec,
    Bch2Spec,
    EvaluationCode,
    bch1_code,
    bch1_generator,
    bch1_max_length,
    bch2_code,
    bch2_exponent_sets,
    bch2_generator,
    constacyclic_modulus_for,
    evaluation_code,
    find_normal_element,
    is_mds,
    min_distance_exact,
    skew_rs1,
)
from .codes import (
    DualData,
    Modulus,
    SkewCirculant,
    SkewCyclicCode,
    check_kernel_contains,
    check_polynomial,
    code_from_generator,
    cofactor_constant,
    constacyclic_shift,
    count_divisors,
    dual_code,
    enumerate_right_divisors,
    poly_to_word,
    self_dual_search,
    skew_circulant,
    transpose_decomposition,
    two_sided_circulant_product,
    vandermonde_parity_check,
    word_to_poly,
)
from .errors import (
    ConditionViolatedError,
    FieldMismatchError,
    GuardExceededError,
    NotARightDivisorError,
    NotConstacyclicError,
    NotTwoSidedError,
    NotWedderburnError,
    ParseError,
    SearchCancelledError,
    SkewError,
)
from .fields import (
    FieldElement,
    FieldEmbedding,
    FieldSpec,
    FrobeniusAut,
    conjugacy_class,
    conjugacy_classes,
    conjugate,
    find_irreducible,
    frobenius_power,
    get_field,
    norm,
    norm_exponent,
    norm_via_exponent,
    preset_names,
    relative_automorphisms,
)
from .linearized import (
    LinearizedPoly,
    dickson_matrix,
    from_linearized,
    lin_compose,
    moore_matrix,
    root_correspondence,
    to_linearized,
)
from .rootsets import (
    AlgebraicSet,
    is_wedderburn,
    minimal_poly_over_subfield,
    minimal_polynomial,
    set_rank,
    skew_vandermonde,
    vandermonde_rank,
    vanishing_set,
)
from .skewpoly import (
    CommutativePoly,
    SkewPoly,
    SkewRing,
    apply_automorphism,
    companion_matrix,
    evaluate,
    gcld,
    gcld_bezout,
    gcrd,
    gcrd_bezout,
    is_irreducible_bruteforce,
    is_two_sided,
    lclm,
    lcrm,
    left_reciprocal,
    product_eval_check,
    similar_bruteforce,
    to_commutative,
)
from .textio import (
    format_element,
    format_field_config,
    format_matrix,
    format_poly,
    format_word,
    parse_code_config,
    parse_element,
    parse_field_config,
    parse_poly,
)

__version__ = "0.1.0"

# importing a submodule binds it here too; those names stay out of __all__
__all__ = [name for name in dir()
           if not name.startswith("_") and type(globals()[name]) is not type(fields)]
