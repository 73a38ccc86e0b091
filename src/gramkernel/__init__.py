"""gramkernel: exact reproducing-kernel polynomial approximation.

Builds the inverse of monomial Gram matrices in closed form over the three
classical weighted domains (Legendre, Laguerre, Hermite; the symmetric ones
split by parity), conditions the Gram systems, and projects target functions
onto the kernel span -- all in exact rational / pi-Laurent arithmetic, with
numeric rendering deferred to a single high-precision step.  The Hermite
weight's sqrt(pi) is a per-family grade, stored once per matrix.
"""

from .approx import (
    ApproxPolynomial,
    COS_PI,
    EXP_NEG,
    MomentVector,
    SIN_PI,
    TARGETS,
    TargetFunction,
    error_variance,
    eval_polynomial,
    function_moments,
    monomial_moment_vector,
    project,
    target_by_name,
    taylor_comparator,
    variance_rows,
)
from .checks import CheckResult, run_checks
from .conditioning import condition_number, condition_table, inf_norm
from .exactscalar import (
    DEFAULT_PRECISION_BITS,
    PiLaurent,
    decimal_str,
    eval_pilaurent,
    to_bigfloat,
)
from .families import (
    ALL_FAMILIES,
    FAMILIES,
    Family,
    GradedMatrix,
    HERMITE_EVEN,
    HERMITE_ODD,
    LAGUERRE,
    LEGENDRE_EVEN,
    LEGENDRE_ODD,
    coeff_matrix,
    family_by_name,
    norm_vector,
    printed_legendre_norm,
)
from .kernelbuild import build_kernel, closed_form_kernel
from .oracle import (
    SingularMatrixError,
    bareiss_inverse,
    gram_from_moments,
    invert_exact,
    leading_principal_minors,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_FAMILIES",
    "ApproxPolynomial",
    "COS_PI",
    "CheckResult",
    "DEFAULT_PRECISION_BITS",
    "EXP_NEG",
    "FAMILIES",
    "Family",
    "GradedMatrix",
    "HERMITE_EVEN",
    "HERMITE_ODD",
    "LAGUERRE",
    "LEGENDRE_EVEN",
    "LEGENDRE_ODD",
    "MomentVector",
    "PiLaurent",
    "SIN_PI",
    "SingularMatrixError",
    "TARGETS",
    "TargetFunction",
    "bareiss_inverse",
    "build_kernel",
    "closed_form_kernel",
    "coeff_matrix",
    "condition_number",
    "condition_table",
    "decimal_str",
    "error_variance",
    "eval_pilaurent",
    "eval_polynomial",
    "family_by_name",
    "function_moments",
    "gram_from_moments",
    "inf_norm",
    "invert_exact",
    "leading_principal_minors",
    "monomial_moment_vector",
    "norm_vector",
    "printed_legendre_norm",
    "project",
    "run_checks",
    "target_by_name",
    "taylor_comparator",
    "to_bigfloat",
    "variance_rows",
]
