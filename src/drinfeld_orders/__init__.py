"""Orders of a cubic Frobenius field occurring as endomorphism rings of
rank-3 Drinfeld modules over a finite A-field.

The pipeline: validate the class descriptor and read its residue pattern
at v in closed form, split disc(M) = g^6 disc(M0) once by its square-free
decomposition for the standard form, factoring only the parts of
multiplicity >= 2 (they hold the primes of g and of the index) and keeping
the part of multiplicity 1 whole, read the maximal-order data off them
(field discriminant, index, integral basis), enumerate the suborders that
contain the Frobenius and stay maximal above v by construction, accept
O_max without a closure test, build the multiplication table only when a
proper triple exists and keep the proper triples that pass the closure
test, and optionally identify the endomorphism ring of concrete modules
given by phi_T through skew right-division.  The candidate count and bound
are the size of the full sandwich A[pi] <= O <= O_max.
"""

from .cubic import (
    LocalData,
    MaximalOrderData,
    StandardForm,
    WeilCubic,
    height,
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
    WeilValidationError,
)
from .factor import (
    Factorization,
    SquarefreeDecomp,
    divisors,
    factor,
    is_irreducible,
    make_extension_field,
    squarefree_decompose,
)
from .gf import ExtensionField, FiniteField, PrimeField
from .orders import (
    ClassAnalysis,
    OrderHNF,
    OrderReport,
    analyze_weil_class,
    closure_check,
    enumerate_candidates,
    frobenius_order_hnf,
    mult_table,
    order_disc,
)
from .poly import Poly, poly_gcd, valuation
from .skew import (
    DrinfeldModule,
    KElem,
    SkewPoly,
    SkewRing,
    element_membership,
    identify_endo_ring,
    order_generator_kelems,
    survey_candidates,
    verify_weil_action,
)
