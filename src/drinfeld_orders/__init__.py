"""Orders of a cubic Frobenius field occurring as endomorphism rings of
rank-3 Drinfeld modules over a finite A-field.

The pipeline: validate the class descriptor, compute the standard form and
the maximal-order data (field discriminant, index, integral basis), build
the multiplication table, enumerate the suborders passing the v-maximality,
Frobenius-containment and closure tests, and optionally identify the
endomorphism ring of concrete modules given by phi_T through skew
right-division.  When pv divides a2, v-maximality filters the divisors
before any closure test; the candidate count and bound stay the size of the
full sandwich A[pi] <= O <= O_max.
"""

from .cubic import (
    LocalData,
    MaximalOrderData,
    StandardForm,
    WeilCubic,
    field_discriminant,
    height,
    index,
    integral_basis,
    maximal_order_data,
    standard_form,
    validate_weil_necessary,
)
from .errors import (
    BadConstantTermError,
    CandidateBoundExceededError,
    Char2UnsupportedError,
    Char3UnsupportedError,
    ConfigError,
    DomainError,
    DrinfeldOrdersError,
    InternalInconsistencyError,
    NoCandidateError,
    NoSolutionError,
    NotWeilAtVError,
    ReducibleError,
)
from .factor import (
    Factorization,
    SquarefreeDecomp,
    divisors,
    exact_sqrt,
    factor,
    is_irreducible,
    make_extension_field,
    residue_factor,
    squarefree_decompose,
)
from .gf import ExtensionField, FiniteField, PrimeField
from .orders import (
    ClassAnalysis,
    MultTable,
    OrderHNF,
    OrderReport,
    analyze_weil_class,
    closure_check,
    contains_frobenius,
    enumerate_candidates,
    frobenius_order_hnf,
    mult_table,
    order_disc,
    v_maximality,
)
from .poly import Poly, poly_gcd, poly_gcdext, valuation
from .skew import (
    DrinfeldModule,
    KElem,
    SkewPoly,
    SkewRing,
    basis_kelems,
    element_membership,
    identify_endo_ring,
    order_generator_kelems,
    survey_candidates,
    verify_weil_action,
)
