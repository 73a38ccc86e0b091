"""gramkernel: exact reproducing-kernel polynomial approximation.

Builds the inverse of monomial Gram matrices in closed form over the three
classical weighted domains (Legendre, Laguerre, Hermite; the symmetric ones
split by parity), conditions the Gram systems, and projects target functions
onto the kernel span -- all in exact rational / pi-Laurent arithmetic, with
every printed decimal certified from integer enclosures.  The Hermite
weight's sqrt(pi) is a per-family grade, stored once per matrix.  Each public
name is imported from its module on first use (PEP 562)."""

_NAMES = {  # module -> its public names
    "approx": "ApproxPolynomial COS_PI EXP_NEG MomentVector SIN_PI TARGETS TargetFunction "
              "error_variance eval_polynomial function_moments monomial_moment_vector project "
              "target_by_name taylor_comparator variance_rows",
    "checks": "CheckResult run_checks",
    "conditioning": "condition_number condition_table inf_norm",
    "exactscalar": "DEFAULT_PRECISION_BITS PiLaurent decimal_str",
    "families": "ALL_FAMILIES FAMILIES Family GradedMatrix HERMITE_EVEN HERMITE_ODD LAGUERRE "
                "LEGENDRE_EVEN LEGENDRE_ODD coeff_matrix family_by_name norm_vector "
                "printed_legendre_norm",
    "kernelbuild": "build_kernel closed_form_kernel",
    "oracle": "SingularMatrixError bareiss_inverse gram_from_moments invert_exact "
              "leading_principal_minors",
}
_MODULE = {name: module for module, names in _NAMES.items() for name in names.split()}

__version__ = "0.1.0"
__all__ = sorted(_MODULE)


def __getattr__(name: str):
    """Import a public name's module, and keep the name here for next time."""
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = globals()[name] = getattr(importlib.import_module(f".{_MODULE[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE})
