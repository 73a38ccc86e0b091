"""run_checks: one set of artefacts per (family, n), and the negative controls."""

from dataclasses import replace

import pytest

from gramkernel import checks
from gramkernel.families import HERMITE_EVEN, HERMITE_ODD, LAGUERRE

ARTEFACT_BUILDERS = (
    "build_kernel",
    "gram_from_moments",
    "invert_exact",
    "coeff_matrix",
    "norm_vector",
    "leading_principal_minors",
)


def test_artefacts_built_once_per_family_and_size(monkeypatch):
    calls = dict.fromkeys(ARTEFACT_BUILDERS, 0)
    for name in ARTEFACT_BUILDERS:
        def counted(*args, _fn=getattr(checks, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(checks, name, counted)
    results = checks.run_checks(3, families=(LAGUERRE, HERMITE_ODD))
    assert len(results) == 2 * 3 * 8
    assert all(r.passed for r in results)
    assert calls == dict.fromkeys(ARTEFACT_BUILDERS, 2 * 3)


def test_corruption_reaches_only_the_oracle_equivalence_check():
    results = checks.run_checks(3, inject_corruption=True)
    assert {r.name for r in results if not r.passed} == {"oracle-equivalence"}
    assert all(not r.passed for r in results if r.name == "oracle-equivalence")


@pytest.mark.parametrize("n", (1, 4))
def test_misgraded_kernel_fails_the_grade_checks(n):
    """A Hermite kernel of grade 0 instead of -1 no longer cancels G's +1."""
    arts = checks.build_artefacts(HERMITE_EVEN, n)
    bad = replace(arts, kernel=replace(arts.kernel, sqrtpi_power=0))
    for check in (
        checks.check_gram_kernel_identity,
        checks.check_det_product,
        checks.check_reproducing,
    ):
        assert check(arts).passed
        assert not check(bad).passed
    detail = checks.check_reproducing(bad).detail
    assert detail == "kernel grade 0 does not cancel moment grade 1"


@pytest.mark.parametrize("n", (1, 4))
def test_misgraded_gram_fails_the_grade_checks(n):
    """A Hermite Gram matrix of grade 0 disagrees with its norms' grade 1."""
    arts = checks.build_artefacts(HERMITE_EVEN, n)
    bad = replace(arts, gram=replace(arts.gram, sqrtpi_power=0))
    for check in (
        checks.check_gram_kernel_identity,
        checks.check_det_product,
        checks.check_orthogonality,
        checks.check_determinant_identity,
    ):
        assert check(arts).passed
        assert not check(bad).passed
