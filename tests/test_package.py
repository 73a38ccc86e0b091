"""The package root: one table of public names, each imported from its
module on first use."""

import importlib

import pytest

import gramkernel

OWNERS = {
    "approx": ["ApproxPolynomial", "COS_PI", "EXP_NEG", "MomentVector", "SIN_PI", "TARGETS",
               "TargetFunction", "error_variance", "eval_polynomial", "function_moments",
               "monomial_moment_vector", "project", "target_by_name", "taylor_comparator",
               "variance_rows"],
    "checks": ["CheckResult", "run_checks"],
    "conditioning": ["condition_number", "condition_table", "inf_norm"],
    "exactscalar": ["DEFAULT_PRECISION_BITS", "PiLaurent", "decimal_str"],
    "families": ["ALL_FAMILIES", "FAMILIES", "Family", "GradedMatrix", "HERMITE_EVEN",
                 "HERMITE_ODD", "LAGUERRE", "LEGENDRE_EVEN", "LEGENDRE_ODD", "coeff_matrix",
                 "family_by_name", "norm_vector", "printed_legendre_norm"],
    "kernelbuild": ["build_kernel", "closed_form_kernel"],
    "oracle": ["SingularMatrixError", "bareiss_inverse", "gram_from_moments", "invert_exact",
               "leading_principal_minors"],
}
PUBLIC = sorted(name for names in OWNERS.values() for name in names)


def test_the_public_names_are_pinned():
    assert len(PUBLIC) == 43
    assert gramkernel.__all__ == PUBLIC


@pytest.mark.parametrize("module, name", [(module, name) for module, names in OWNERS.items()
                                          for name in names], ids=lambda value: value)
def test_each_name_is_its_modules_object(module, name):
    owner = importlib.import_module(f"gramkernel.{module}")
    assert getattr(gramkernel, name) is getattr(owner, name)
    assert vars(gramkernel)[name] is getattr(owner, name)  # kept after the first use


@pytest.mark.parametrize("name", ["eval_pilaurent", "to_bigfloat", "nope"])
def test_any_other_name_raises_attribute_error(name):
    """The float helpers are ``exactscalar``'s alone, not the package's."""
    with pytest.raises(AttributeError, match=f"^module 'gramkernel' has no attribute '{name}'$"):
        getattr(gramkernel, name)
    assert not hasattr(gramkernel, name)
    with pytest.raises(ImportError):
        exec(f"from gramkernel import {name}", {})


def test_dir_lists_every_public_name(monkeypatch):
    """Before first use too: no name is kept in the package yet."""
    for name in PUBLIC:
        monkeypatch.delitem(vars(gramkernel), name, raising=False)
    listed = dir(gramkernel)
    assert listed == sorted(listed)
    assert set(PUBLIC) | {"__version__"} <= set(listed)
