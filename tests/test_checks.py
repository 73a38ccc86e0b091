"""run_checks: one sweep of artefacts per family, and the negative controls."""

from dataclasses import replace
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from gramkernel import checks
from gramkernel.families import (
    ALL_FAMILIES,
    HERMITE_EVEN,
    HERMITE_ODD,
    LAGUERRE,
    coeff_matrix,
    norm_vector,
)
from gramkernel.oracle import bareiss_inverse, gram_from_moments

# built once per family, at the largest size, and once per (family, size)
PER_FAMILY = ("gram_from_moments", "leading_inverses", "coeff_matrix", "norm_vector")
PER_SIZE = ("build_kernel", "leading_principal_minors")


def test_artefacts_built_once_per_family_and_size(monkeypatch):
    """Each family is one sweep: G, its elimination, A and the norms are
    built once, at the largest size; the kernel and its leading minors once
    per (family, size)."""
    calls = {name: [] for name in PER_FAMILY + PER_SIZE}
    for name in calls:
        def counted(*args, _fn=getattr(checks, name), _name=name):
            calls[_name].append(args)
            return _fn(*args)

        monkeypatch.setattr(checks, name, counted)
    results = checks.run_checks(3, families=(LAGUERRE, HERMITE_ODD))
    assert len(results) == 2 * 3 * 8
    assert all(r.passed for r in results)
    for name in ("gram_from_moments", "coeff_matrix", "norm_vector"):
        assert calls[name] == [(LAGUERRE, 3), (HERMITE_ODD, 3)]
    assert [gram.n for gram, in calls["leading_inverses"]] == [3, 3]
    assert calls["build_kernel"] == [(f, n) for f in (LAGUERRE, HERMITE_ODD) for n in (1, 2, 3)]
    assert len(calls["leading_principal_minors"]) == 2 * 3


def _naive_matmul(a, b):
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b))
                 for row in a)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
def test_sweep_views_equal_per_size_builds(family):
    """Size n of the sweep reads leading blocks of the size-N artefacts;
    each equals the same artefact built from scratch at size n."""
    for a in checks.sweep_artefacts(family, 7):
        gram, coeffs = gram_from_moments(family, a.n), coeff_matrix(family, a.n)
        assert (a.gram, a.coeffs, a.norms) == (gram, coeffs, norm_vector(family, a.n))
        inverse, det = bareiss_inverse(gram.entries)
        assert (a.inverse.entries, a.inverse.sqrtpi_power, a.det_gram) == (
            inverse, -gram.sqrtpi_power, det)
        transposed = tuple(zip(*coeffs.entries))
        assert a.agat == _naive_matmul(_naive_matmul(coeffs.entries, gram.entries), transposed)
        assert a == checks.build_artefacts(family, a.n)


# zeros, negative entries and mixed denominators
rationals = st.one_of(st.just(Fraction(0)), st.fractions(-20, 20, max_denominator=30))


@st.composite
def matrix_pairs(draw):
    n, m, p = (draw(st.integers(1, 5)) for _ in range(3))
    a = tuple(tuple(draw(rationals) for _ in range(m)) for _ in range(n))
    b = tuple(tuple(draw(rationals) for _ in range(p)) for _ in range(m))
    return a, b


@given(matrix_pairs())
@settings(max_examples=200)
def test_integer_cleared_matmul_matches_fraction_sums(pair):
    a, b = pair
    product = checks._matmul(a, b)
    assert product == _naive_matmul(a, b)
    assert all(type(q) is Fraction for row in product for q in row)


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
        "orthogonality",
        lambda a: replace(a, agat=(a.agat[0], (a.agat[1][0] + SEVENTH,) + a.agat[1][1:])
                          + a.agat[2:]),
        lambda a: "A G A^T vs diag(norms) (2, 1): want 0, got 1/7",
        id="orthogonality-AGAT21",
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
