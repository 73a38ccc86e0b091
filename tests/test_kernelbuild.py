"""Kernel construction: examples, exact structure, and the closed-form
cross-checks including the machine-checked Legendre factor placement."""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest

from gramkernel.cli import MAX_SIZES
from gramkernel.families import (
    ALL_FAMILIES,
    HERMITE_EVEN,
    HERMITE_ODD,
    LAGUERRE,
    LEGENDRE_EVEN,
    LEGENDRE_ODD,
    coeff_matrix,
    coeff_rows,
    norm_vector,
)
from gramkernel.kernelbuild import build_kernel, closed_form_kernel
from gramkernel.oracle import gram_from_moments, invert_exact, leading_principal_minors


class TestBuildKernelExamples:
    def test_laguerre_2(self):
        k = build_kernel(LAGUERRE, 2)
        assert k.entries == ((Fraction(2), Fraction(-1)), (Fraction(-1), Fraction(1)))
        assert k.sqrtpi_power == 0

    def test_legendre_even_2(self):
        k = build_kernel(LEGENDRE_EVEN, 2)
        assert k.entries == (
            (Fraction(9, 8), Fraction(-15, 8)),
            (Fraction(-15, 8), Fraction(45, 8)),
        )

    def test_laguerre_1(self):
        assert build_kernel(LAGUERRE, 1).entries == ((Fraction(1),),)

    def test_hermite_even_1(self):
        k = build_kernel(HERMITE_EVEN, 1)
        assert k.entries == ((Fraction(1),),)
        assert k.sqrtpi_power == -1

    def test_hermite_entries_carry_grade(self):
        # b_11 = H_0(0)**2 / sqrt(pi) + H_2(0)**2 / (8 sqrt(pi)) = 3/2 / sqrt(pi):
        # the core 3/2 of the kernel's grade -1
        k = build_kernel(HERMITE_EVEN, 2)
        assert k.entries[0][0] == Fraction(3, 2)
        assert k.sqrtpi_power == -1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_kernel(LAGUERRE, 0)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("n", range(1, 11))
class TestKernelStructure:
    def test_symmetric(self, family, n):
        k = build_kernel(family, n)
        assert all(
            k.entries[i][j] == k.entries[j][i] for i in range(n) for j in range(n)
        )

    def test_positive_definite(self, family, n):
        minors = leading_principal_minors(build_kernel(family, n).entries)
        assert all(m > 0 for m in minors)

    def test_matches_oracle_inverse(self, family, n):
        """The central cross-validation: closed-form B == Bareiss G^-1."""
        kernel = build_kernel(family, n)
        inverse, _ = invert_exact(gram_from_moments(family, n))
        assert kernel.entries == inverse.entries
        assert kernel.sqrtpi_power == inverse.sqrtpi_power


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
def test_christoffel_darboux_form(family):
    """B equals sum_k (row k of A)^T (row k of A) / lambda_k."""
    n = 6
    kernel = build_kernel(family, n)
    a = coeff_matrix(family, n).entries
    lam = norm_vector(family, n)

    for i in range(n):
        for j in range(n):
            acc = Fraction(0)
            for k in range(n):
                acc += a[k][i] * a[k][j] / lam[k]
            assert acc == kernel.entries[i][j]


class TestKernelSweep:
    """The kernel of every size 1..12 against both independent constructions."""

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_every_size_matches_closed_form_and_oracle(self, family):
        for n in range(1, 13):
            kernel = build_kernel(family, n)
            closed = closed_form_kernel(family, n)
            inverse, _ = invert_exact(gram_from_moments(family, n))
            assert (kernel.family, kernel.n) == (family, n)
            assert kernel.entries == closed.entries == inverse.entries
            assert kernel.sqrtpi_power == closed.sqrtpi_power == inverse.sqrtpi_power

    @pytest.mark.parametrize(
        "family, n",
        ((LAGUERRE, 40), (LEGENDRE_EVEN, 30), (LEGENDRE_ODD, 35), (HERMITE_EVEN, 25),
         (HERMITE_ODD, 20)),
        ids=lambda v: getattr(v, "name", str(v)),
    )
    def test_large_sizes_match_closed_form(self, family, n):
        """The integer accumulation where its column scales and norm lcm are
        largest: the sizes of the ``point`` benchmark's kernel jobs."""
        kernel = build_kernel(family, n)
        closed = closed_form_kernel(family, n)
        assert (kernel.family, kernel.n) == (family, n)
        assert kernel.entries == closed.entries
        assert kernel.sqrtpi_power == closed.sqrtpi_power

    @pytest.mark.parametrize("max_n", (0, -3))
    def test_rejects_empty(self, max_n):
        with pytest.raises(ValueError):
            build_kernel(LAGUERRE, max_n)


def _sigma_kernel(family, n):
    """The upper triangle of B as ``b_ij = sum_{k >= j} a_ki a_kj / lambda_k``
    over A's integer rows, i <= j: column i of A cleared by e_i and the norms
    by D (the lcm of their numerators), one integer sum per entry over
    ``D e_i e_j``."""
    rows = coeff_rows(family, n)
    lam = norm_vector(family, n)
    d = lcm(*(q.numerator for q in lam))
    weights = [d // q.numerator * q.denominator for q in lam]
    cols = [[(row[i], e) for row, e in rows[i:]] for i in range(n)]  # column i from row i down
    scales = [lcm(*(e // gcd(c, e) for c, e in col)) for col in cols]
    ints = [[c * s // e for c, e in col] for col, s in zip(cols, scales)]
    weighted = [list(map(mul, col, weights[i:])) for i, col in enumerate(ints)]
    return [[Fraction(sum(map(mul, weighted[i][j - i:], ints[j])), d * scales[i] * scales[j])
             for j in range(i, n)] for i in range(n)]


def _assert_equals_sigma(family, n):
    kernel = build_kernel(family, n)
    assert (kernel.family, kernel.n, kernel.sqrtpi_power) == (family, n, -family.moment_grade)
    assert all(type(q) is Fraction for row in kernel.entries for q in row)
    assert [list(row[i:]) for i, row in enumerate(kernel.entries)] == _sigma_kernel(family, n)
    assert all(row[j] == kernel.entries[j][i] for i, row in enumerate(kernel.entries)
               for j in range(i))


class TestSigmaReference:
    """``build_kernel``'s two-row Christoffel-Darboux construction against
    the sum of A's rank-one terms, taken test-locally in integers."""

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_every_size_to_60_equals_the_sum(self, family):
        for n in range(1, 61):
            _assert_equals_sigma(family, n)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_the_kernel_ceiling_equals_the_sum(self, family):
        _assert_equals_sigma(family, MAX_SIZES["kernel"])


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("n", range(1, 9))
def test_closed_forms_match_generic_build(family, n):
    assert closed_form_kernel(family, n).entries == build_kernel(family, n).entries
    assert closed_form_kernel(family, n).sqrtpi_power == build_kernel(family, n).sqrtpi_power


class TestLegendreFactorPlacementErratum:
    """The (2k - 3/2) / (2k - 1/2) factors belong in the numerator.

    Keeping them as divisors (the as-printed reading) must disagree with the
    exact Gram inverse; the corrected placement must agree.  Both directions
    are asserted so the correction stays machine-checked.
    """

    @pytest.mark.parametrize("family", (LEGENDRE_EVEN, LEGENDRE_ODD), ids=lambda f: f.name)
    @pytest.mark.parametrize("n", range(2, 7))
    def test_printed_placement_fails_oracle(self, family, n):
        printed = closed_form_kernel(family, n, legendre_printed=True)
        inverse, _ = invert_exact(gram_from_moments(family, n))
        assert printed.entries != inverse.entries

    @pytest.mark.parametrize("family", (LEGENDRE_EVEN, LEGENDRE_ODD), ids=lambda f: f.name)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_corrected_placement_passes_oracle(self, family, n):
        corrected = closed_form_kernel(family, n)
        inverse, _ = invert_exact(gram_from_moments(family, n))
        assert corrected.entries == inverse.entries
