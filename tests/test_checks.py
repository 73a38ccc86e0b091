"""run_checks: one sweep of artefacts per family, and the negative controls."""

from fractions import Fraction
from itertools import permutations
from math import prod
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gramkernel import checks
from gramkernel.approx import monomial_moment_vector, project
from gramkernel.families import (
    ALL_FAMILIES,
    HERMITE_EVEN,
    HERMITE_ODD,
    LAGUERRE,
    GradedMatrix,
    coeff_matrix,
    coeff_rows,
    norm_vector,
)
from gramkernel.oracle import (
    SingularMatrixError,
    bareiss_inverse,
    gram_from_moments,
    leading_principal_minors,
)

# built once per family, at the largest size, and once per (family, size);
# B's leading minors only for a B that the oracle does not certify
PER_FAMILY = ("gram_from_moments", "leading_inverses", "coeff_rows", "norm_vector")
PER_SIZE = ("build_kernel", "leading_principal_minors")


def test_artefacts_built_once_per_family_and_size(monkeypatch):
    """Each family is one sweep: G, its elimination, A (as integer rows)
    and the norms are built once, at the largest size; the kernel once per
    (family, size).  On a pass, every B is certified by the oracle, so no
    check eliminates B for its leading minors."""
    calls = {name: [] for name in PER_FAMILY + PER_SIZE}
    for name in calls:
        def counted(*args, _fn=getattr(checks, name), _name=name):
            calls[_name].append(args)
            return _fn(*args)

        monkeypatch.setattr(checks, name, counted)
    results = checks.run_checks(3, families=(LAGUERRE, HERMITE_ODD))
    assert len(results) == 2 * 3 * 8
    assert all(r.passed for r in results)
    for name in ("gram_from_moments", "coeff_rows", "norm_vector"):
        assert calls[name] == [(LAGUERRE, 3), (HERMITE_ODD, 3)]
    assert calls["build_kernel"] == [(f, n) for f in (LAGUERRE, HERMITE_ODD) for n in (1, 2, 3)]
    assert [len(entries) for entries, in calls["leading_inverses"]] == [3, 3]
    assert calls["leading_principal_minors"] == []


def _oracle_inverse(a):
    """The Bareiss inverse the artefacts carry, scale * adjugate / pivot."""
    return tuple(tuple(Fraction(a.scale * t, a.pivot) for t in row) for row in a.adjugate)


def _naive_matmul(a, b):
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b))
                 for row in a)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
def test_sweep_views_equal_per_size_builds(family):
    """Size n of the sweep reads leading blocks of the size-N artefacts;
    each equals the same artefact built from scratch at size n, and A's
    first n integer rows are A_n."""
    for a in checks.sweep_artefacts(family, 7):
        gram, coeffs = gram_from_moments(family, a.n), coeff_matrix(family, a.n)
        assert (a.gram, a.coeffs, a.norms) == (
            gram, tuple(coeff_rows(family, a.n)), norm_vector(family, a.n))
        assert [[Fraction(c, d) for c in ints] for ints, d in a.coeffs] == [
            list(row[:k]) for k, row in enumerate(coeffs.entries, start=1)]
        inverse, det = bareiss_inverse(gram.entries)
        assert all(type(t) is int for row in a.adjugate for t in row)
        assert (_oracle_inverse(a), a.inverse_grade, a.det_gram) == (
            inverse, -gram.sqrtpi_power, det)
        # the pivots are the leading minors of scale * G, the last one the pivot
        assert a.pivots[-1] == a.pivot and len(a.pivots) == a.n
        assert [Fraction(p, a.scale**k) for k, p in enumerate(a.pivots, start=1)] == list(
            leading_principal_minors(gram.entries))
        transposed = tuple(zip(*coeffs.entries))
        assert a.agat == _naive_matmul(_naive_matmul(coeffs.entries, gram.entries), transposed)
        # the integer form of the inverse depends on the sweep's largest G
        built = checks.build_artefacts(family, a.n)
        form = dict(adjugate=(), pivot=1, scale=1, pivots=(1,))
        assert _oracle_inverse(built) == _oracle_inverse(a)
        assert built.replace(**form) == a.replace(**form)


# zeros, negative entries and mixed denominators
rationals = st.one_of(st.just(Fraction(0)), st.fractions(-20, 20, max_denominator=30))


def _exact_inverse(m):
    """m**-1 by Gauss-Jordan with row swaps, or None if m is singular."""
    n = len(m)
    rows = [list(row) + [Fraction(i == j) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return tuple(tuple(row[n:]) for row in rows)


def _square(draw, n):
    return tuple(tuple(draw(rationals) for _ in range(n)) for _ in range(n))


@st.composite
def gram_kernel_pairs(draw):
    """Random rational G (full or diagonal) and B: unrelated, B = G**-1
    exactly, or that inverse with one entry of G or B bumped.  A bump off
    the diagonal of B against a diagonal G leaves the diagonal of G B exact."""
    n = draw(st.integers(1, 5))
    g, b = _square(draw, n), _square(draw, n)
    if draw(st.booleans()):
        g = checks._diagonal(draw(st.lists(rationals.filter(bool), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(("random", "inverse", "bumped")))
    if kind != "random":
        b = _exact_inverse(g) or b
    if kind == "bumped":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        bump = draw(st.fractions(-3, 3, max_denominator=9).filter(bool))
        which = draw(st.sampled_from(("g", "b")))
        rows = [list(row) for row in (g if which == "g" else b)]
        rows[i][j] += bump
        bumped = tuple(map(tuple, rows))
        g, b = (bumped, b) if which == "g" else (g, bumped)
    return g, b


@given(gram_kernel_pairs())
@settings(max_examples=200)
def test_integer_gram_times_kernel_matches_fraction_product(pair):
    """The integer G B = I check gives the verdict and detail of the naive
    ``Fraction`` product, for any G and B, symmetric or not."""
    g, b = pair
    base = checks.build_artefacts(LAGUERRE, 1)
    arts = base.replace(n=len(g), gram=GradedMatrix.of(LAGUERRE, g),
                   kernel=GradedMatrix.of(LAGUERRE, b))
    want = checks._diff("G B vs I", checks._diagonal((1,) * len(g)), _naive_matmul(g, b))
    assert checks.check_gram_times_kernel(arts) == want
    if not want:  # a pass is decided in integers alone
        with mock.patch.object(checks, "Fraction", side_effect=AssertionError("built G B")):
            assert checks.check_gram_times_kernel(arts) == ""


@st.composite
def kernel_inverse_forms(draw):
    """A random rational B and an integer form (T, p, d) of the inverse: B
    = d T / p exactly, or with one entry of B or of T bumped, or another
    pivot, or B its leading block one size smaller, or B unrelated.
    Negative pivots and scales that do not divide leave B with mixed row
    denominators."""
    n = draw(st.integers(1, 5))
    adjugate = [[draw(st.integers(-40, 40)) for _ in range(n)] for _ in range(n)]
    pivot = draw(st.integers(-30, 30).filter(bool))
    scale = draw(st.integers(1, 30))
    b = [[Fraction(scale * t, pivot) for t in row] for row in adjugate]
    kind = draw(st.sampled_from(("inverse", "bumped B", "bumped T", "pivot", "smaller", "random")))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "bumped B":
        b[i][j] += draw(st.fractions(-3, 3, max_denominator=9).filter(bool))
    elif kind == "bumped T":
        adjugate[i][j] += draw(st.integers(-3, 3).filter(bool))
    elif kind == "pivot":
        pivot = draw(st.integers(-30, 30).filter(lambda p: p not in (0, pivot)))
    elif kind == "smaller":
        b = [row[:n - 1] for row in b[:n - 1]]
    elif kind == "random":
        b = [list(row) for row in _square(draw, n)]
    return tuple(map(tuple, b)), tuple(map(tuple, adjugate)), pivot, scale


@given(kernel_inverse_forms())
@example(((), ((1,),), 1, 1))  # no rows of B to zip against T's one row
@settings(max_examples=300)
def test_integer_oracle_equivalence_matches_fraction_comparison(case):
    """The cross-multiplied B == d T / p check gives the verdict and detail
    of the naive comparison with the ``Fraction`` inverse, and a pass builds
    no ``Fraction``."""
    b, adjugate, pivot, scale = case
    n = len(adjugate)
    base = checks.build_artefacts(LAGUERRE, 1)
    arts = base.replace(n=n, kernel=GradedMatrix.of(LAGUERRE, b),
                   adjugate=adjugate, pivot=pivot, scale=scale)
    want = checks._diff("B vs Bareiss inverse", _oracle_inverse(arts), b)
    assert checks.check_oracle_equivalence(arts) == want
    if not want:
        with mock.patch.object(checks, "Fraction", side_effect=AssertionError("built a Fraction")):
            assert checks.check_oracle_equivalence(arts) == ""


@st.composite
def determinant_sides(draw):
    """Random nonzero norms, a triangular A as integer rows (row i has i
    entries, the last nonzero, over a denominator that need not divide
    them), and det(G): the identity holding (det(G) solved for), or det(G)
    bumped, or det(G) unrelated.  Negative norms and diagonal entries
    exercise the signs of the crosswise products."""
    n = draw(st.integers(1, 5))
    nonzero = st.builds(lambda q, negative: -q if negative else q,
                        st.fractions(Fraction(1, 30), 20, max_denominator=30), st.booleans())
    norms = tuple(draw(nonzero) for _ in range(n))
    coeffs = tuple((tuple(draw(st.integers(-40, 40)) for _ in range(i))
                    + (draw(st.integers(-40, 40).filter(bool)),), draw(st.integers(1, 30)))
                   for i in range(n))
    det_gram = prod(norms) / prod(Fraction(ints[-1], d) for ints, d in coeffs) ** 2
    kind = draw(st.sampled_from(("identity", "bumped", "random")))
    if kind == "bumped":
        det_gram += draw(st.fractions(-3, 3, max_denominator=9).filter(bool))
    elif kind == "random":
        det_gram = draw(rationals)
    return norms, coeffs, det_gram


@given(determinant_sides())
@settings(max_examples=200)
def test_integer_determinant_identity_matches_fraction_comparison(case):
    """The crosswise integer comparison gives the verdict and detail of the
    ``Fraction`` products prod(norms) and det(A)^2 det(G), and a pass
    compares no ``Fraction``s."""
    norms, coeffs, det_gram = case
    n = len(norms)
    base = checks.build_artefacts(LAGUERRE, 1)
    arts = base.replace(n=n, norms=norms, coeffs=coeffs, det_gram=det_gram)
    det_a = prod(Fraction(ints[-1], d) for ints, d in coeffs)
    want = checks._diff("prod(norms) vs det(A)^2 det(G)", prod(norms), det_a**2 * det_gram)
    assert checks.check_determinant_formula(arts) == want
    if not want:  # a pass is decided in integers alone

        def grade_only(what, *args, _diff=checks._diff):
            assert what.startswith("grade"), "compared the Fraction products"
            return _diff(what, *args)

        with mock.patch.object(checks, "_diff", grade_only):
            assert checks.check_determinant_formula(arts) == ""


def _leibniz_det(rows):
    n = len(rows)
    return sum((prod(rows[i][perm[i]] for i in range(n))
                * (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
                for perm in permutations(range(n))), Fraction(0))


def _leading_minors(rows):
    return [_leibniz_det([row[:k] for row in rows[:k]]) for k in range(1, len(rows) + 1)]


@st.composite
def corrupted_kernels(draw):
    """The artefacts of any family and size 1-5, with B left as built, or
    one entry of B, alone or with its mirror, set to 0, to a random
    rational, bumped, or set to the value that makes the leading minor
    through it vanish (with its mirror)."""
    family, n = draw(st.sampled_from(ALL_FAMILIES)), draw(st.integers(1, 5))
    a = checks.build_artefacts(family, n)
    rows = [list(row) for row in a.kernel.entries]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(("built", "zero", "random", "bumped", "vanish")))
    if kind == "built":
        return a
    mirror = draw(st.booleans())
    if kind == "vanish":  # the minor is affine in b_ii, with slope the minor before it
        j, mirror = i, True
        *before, last = _leading_minors(rows)[:i + 1]
        value = rows[i][i] - last / (before[-1] if before else 1)
    elif kind == "zero":
        value = Fraction(0)
    elif kind == "random":
        value = draw(rationals)
    else:
        value = rows[i][j] + draw(st.fractions(-3, 3, max_denominator=9).filter(bool))
    rows[i][j] = value
    if mirror:
        rows[j][i] = value
    return a.replace(kernel=GradedMatrix.of(family, rows, a.kernel.sqrtpi_power))


@given(corrupted_kernels())
@settings(max_examples=300, deadline=None)
def test_pd_and_det_checks_match_the_minors_route(a):
    """kernel-symmetry-pd and det-product give the verdict and detail of B's
    own leading minors (Leibniz determinants here), whether the oracle
    certifies B or not.  Where a leading minor of B is 0, the positive
    definiteness check names the first minor that is not positive, and
    det-product raises, as the oracle's elimination of B does."""
    b = a.kernel.entries
    minors = _leading_minors(b)
    signs = tuple((m > 0) - (m < 0) for m in minors)
    assert checks.check_kernel_shape(a) == (
        checks._diff("B vs B^T", tuple(zip(*b)), b)
        or checks._diff("sign of B's leading principal minor", (1,) * a.n, signs))
    if 0 in minors:
        with pytest.raises(SingularMatrixError):
            checks.check_det_product(a)
    else:
        assert checks.check_det_product(a) == checks._diff(
            "det(G) det(B)", 1, a.det_gram * minors[-1])


@given(corrupted_kernels())
@settings(max_examples=200, deadline=None)
def test_integer_reproducing_check_matches_the_project_route(a):
    """The integer reproducing check gives the verdict and detail of
    projecting each basis monomial through ``approx.project``, and a pass
    builds no ``Fraction``."""
    estimates = tuple(
        project(a.kernel, monomial_moment_vector(a.family, a.n, a.family.basis_power(k)))
        .coefficients for k in range(1, a.n + 1))
    want = checks._diff("estimate of monomial k, coefficient i",
                        checks._diagonal((1,) * a.n), estimates)
    assert checks.check_reproducing(a) == want
    if not want:
        with mock.patch.object(checks, "Fraction", side_effect=AssertionError("built a Fraction")):
            assert checks.check_reproducing(a) == ""


def test_corruption_reaches_only_the_oracle_equivalence_check():
    results = checks.run_checks(3, inject_corruption=True)
    assert {r.name for r in results if not r.passed} == {"oracle-equivalence"}
    assert all(not r.passed for r in results if r.name == "oracle-equivalence")


@pytest.mark.parametrize("n", (1, 4))
def test_misgraded_kernel_fails_the_grade_checks(n):
    """A Hermite kernel of grade 0 instead of -1 no longer cancels G's +1."""
    arts = checks.build_artefacts(HERMITE_EVEN, n)
    bad = arts.replace(kernel=arts.kernel.replace(sqrtpi_power=0))
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
    bad = arts.replace(gram=arts.gram.replace(sqrtpi_power=0))
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
    return GradedMatrix.of(matrix.family, rows, matrix.sqrtpi_power)


def _bump_kernel(a, i, j):
    return a.replace(kernel=_with_entry(a.kernel, i, j, a.kernel.entries[i][j] + SEVENTH))


# check name, tampering of the one artefact it reads, the detail it must give
NEGATIVE_CONTROLS = [
    pytest.param(
        "oracle-equivalence",
        lambda a: _bump_kernel(a, 0, 0),
        lambda a: f"B vs Bareiss inverse (1, 1): want {_oracle_inverse(a)[0][0]}, "
                  f"got {a.kernel.entries[0][0] + SEVENTH}",
        id="oracle-equivalence-B11",
    ),
    pytest.param(
        "oracle-equivalence",
        lambda a: a.replace(adjugate=(a.adjugate[0], (a.adjugate[1][0] + 1,) + a.adjugate[1][1:])
                          + a.adjugate[2:]),
        lambda a: f"B vs Bareiss inverse (2, 1): "
                  f"want {_oracle_inverse(a)[1][0] + Fraction(a.scale, a.pivot)}, "
                  f"got {a.kernel.entries[1][0]}",
        id="oracle-equivalence-T21",
    ),
    pytest.param(
        "oracle-equivalence",
        lambda a: a.replace(inverse_grade=a.inverse_grade + 1),
        lambda a: f"grade of B vs Bareiss inverse: want {a.inverse_grade + 1}, "
                  f"got {a.kernel.sqrtpi_power}",
        id="oracle-equivalence-grade",
    ),
    pytest.param(
        "gram-kernel-identity",
        lambda a: _bump_kernel(a, 0, 0),
        lambda a: f"G B vs I (1, 1): want 1, got {1 + a.gram.entries[0][0] * SEVENTH}",
        id="gram-kernel-identity-B11",
    ),
    pytest.param(
        "gram-kernel-identity",
        lambda a: a.replace(gram=_with_entry(a.gram, 1, 0, a.gram.entries[1][0] + SEVENTH)),
        lambda a: f"G B vs I (2, 1): want 0, got {SEVENTH * a.kernel.entries[0][0]}",
        id="gram-kernel-identity-G21",
    ),
    pytest.param(
        "orthogonality",
        lambda a: a.replace(norms=(a.norms[0] + SEVENTH,) + a.norms[1:]),
        lambda a: f"A G A^T vs diag(norms) (1, 1): want {a.norms[0] + SEVENTH}, got {a.norms[0]}",
        id="orthogonality-norm1",
    ),
    pytest.param(
        "orthogonality",
        lambda a: a.replace(agat=(a.agat[0], (a.agat[1][0] + SEVENTH,) + a.agat[1][1:])
                          + a.agat[2:]),
        lambda a: "A G A^T vs diag(norms) (2, 1): want 0, got 1/7",
        id="orthogonality-AGAT21",
    ),
    pytest.param(
        "determinant-identity",
        lambda a: a.replace(det_gram=2 * a.det_gram),
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
        # b22 = b12**2 / b11 keeps B symmetric and makes its second minor 0
        lambda a: a.replace(kernel=_with_entry(
            a.kernel, 1, 1, a.kernel.entries[0][1] ** 2 / a.kernel.entries[0][0])),
        lambda a: "sign of B's leading principal minor (2): want 1, got 0",
        id="kernel-symmetry-pd-minor2",
    ),
    pytest.param(
        "gram-hankel",
        lambda a: a.replace(gram=_with_entry(a.gram, 1, 0, a.gram.entries[1][0] + SEVENTH)),
        lambda a: f"G vs Hankel of its first row and last column (2, 1): "
                  f"want {a.gram.entries[0][1]}, got {a.gram.entries[1][0] + SEVENTH}",
        id="gram-hankel-G21",
    ),
    pytest.param(
        "det-product",
        lambda a: a.replace(det_gram=2 * a.det_gram),
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
