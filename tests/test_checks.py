"""run_checks: one set of artefacts per (family, n), and the negative controls."""

from dataclasses import replace
from fractions import Fraction
from math import prod

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
        checks.check_gram_times_kernel,
        checks.check_det_product,
        checks.check_reproducing,
    ):
        assert not check(arts)
        assert check(bad)
    detail = checks.check_reproducing(bad)
    assert detail == "kernel grade 0 does not cancel moment grade 1"


@pytest.mark.parametrize("n", (1, 4))
def test_misgraded_gram_fails_the_grade_checks(n):
    """A Hermite Gram matrix of grade 0 disagrees with its norms' grade 1."""
    arts = checks.build_artefacts(HERMITE_EVEN, n)
    bad = replace(arts, gram=replace(arts.gram, sqrtpi_power=0))
    for check in (
        checks.check_gram_times_kernel,
        checks.check_det_product,
        checks.check_orthogonality,
        checks.check_determinant_formula,
    ):
        assert not check(arts)
        assert check(bad)


SEVENTH = Fraction(1, 7)


def _with_entry(matrix, i, j, value):
    rows = [list(row) for row in matrix.entries]
    rows[i][j] = value
    return replace(matrix, entries=tuple(map(tuple, rows)))


def _bump_kernel(a, i, j):
    return replace(a, kernel=_with_entry(a.kernel, i, j, a.kernel.entries[i][j] + SEVENTH))


# check name, tampering of the one artefact it reads, the detail it must give
NEGATIVE_CONTROLS = [
    pytest.param(
        "oracle-equivalence",
        lambda a: _bump_kernel(a, 0, 0),
        lambda a: f"B vs Bareiss inverse (1, 1): want {a.inverse.entries[0][0]}, "
                  f"got {a.kernel.entries[0][0] + SEVENTH}",
        id="oracle-equivalence-B11",
    ),
    pytest.param(
        "gram-kernel-identity",
        lambda a: _bump_kernel(a, 0, 0),
        lambda a: f"G B vs I (1, 1): want 1, got {1 + a.gram.entries[0][0] * SEVENTH}",
        id="gram-kernel-identity-B11",
    ),
    pytest.param(
        "orthogonality",
        lambda a: replace(a, norms=(a.norms[0] + SEVENTH,) + a.norms[1:]),
        lambda a: f"A G A^T vs diag(norms) (1, 1): want {a.norms[0] + SEVENTH}, got {a.norms[0]}",
        id="orthogonality-norm1",
    ),
    pytest.param(
        "determinant-identity",
        lambda a: replace(a, det_gram=2 * a.det_gram),
        lambda a: f"prod(norms) vs det(A)^2 det(G): want {prod(a.norms)}, "
                  f"got {2 * prod(a.norms)}",
        id="determinant-identity-detG",
    ),
    pytest.param(
        "kernel-symmetry-pd",
        lambda a: _bump_kernel(a, 0, 1),
        lambda a: f"B vs B^T (1, 2): want {a.kernel.entries[1][0]}, "
                  f"got {a.kernel.entries[0][1] + SEVENTH}",
        id="kernel-symmetry-pd-B12",
    ),
    pytest.param(
        "kernel-symmetry-pd",
        lambda a: replace(a, kernel_minors=a.kernel_minors[:1] + (0,) + a.kernel_minors[2:]),
        lambda a: "sign of B's leading principal minor (2): want 1, got 0",
        id="kernel-symmetry-pd-minor2",
    ),
    pytest.param(
        "gram-hankel",
        lambda a: replace(a, gram=_with_entry(a.gram, 1, 0, a.gram.entries[1][0] + SEVENTH)),
        lambda a: f"G vs Hankel of its first row and last column (2, 1): "
                  f"want {a.gram.entries[0][1]}, got {a.gram.entries[1][0] + SEVENTH}",
        id="gram-hankel-G21",
    ),
    pytest.param(
        "det-product",
        lambda a: replace(a, det_gram=2 * a.det_gram),
        lambda a: "det(G) det(B): want 1, got 2",
        id="det-product-detG",
    ),
    pytest.param(
        "reproducing-property",
        lambda a: _bump_kernel(a, 0, 0),
        lambda a: f"estimate of monomial k, coefficient i (1, 1): want 1, "
                  f"got {1 + a.gram.entries[0][0] * SEVENTH}",
        id="reproducing-property-B11",
    ),
]


def test_every_check_has_a_negative_control():
    assert {param.values[0] for param in NEGATIVE_CONTROLS} == set(checks.CHECKS)


@pytest.mark.parametrize("family", (LAGUERRE, HERMITE_ODD), ids=lambda f: f.name)
@pytest.mark.parametrize("name, tamper, expected", NEGATIVE_CONTROLS)
def test_every_check_names_its_tampered_entry(name, tamper, expected, family):
    """Each check fails on one tampered artefact it reads, and its detail
    names the first differing entry (1-based) with want and got."""
    arts = checks.build_artefacts(family, 3)
    check = checks.CHECKS[name]
    assert check(arts) == ""
    assert check(tamper(arts)) == expected(arts)
