"""The abstract's claims as exact, machine-checked properties.

* "The Condition Numbers are readily shown to get very large with the size
  of the Gram matrices": every real positive definite Hankel matrix of
  size n has kappa_2 >= 3.21**(n-1) / (16 n) (B. Beckermann, Numer. Math.
  85, 2000).  Each family's Gram matrix is such a matrix (the
  ``gram-hankel`` check of ``verify``), and ||M||_2 <= ||M||_inf for a
  symmetric M, so the bound holds for the tabulated kappa_inf too.
* "The calculation of the error variances for ... the exponential show a
  significant improvement over the equivalent Taylor expansion
  variances": the Laguerre coefficients of exp(-x) under the weight
  exp(-x) are 2**-(k+1), so the estimate variance at size n is exactly
  1/(3 * 4**n), strictly below the Taylor comparator's.

* "... for the sine, cosine and the exponential show a significant
  improvement": on (-1, 1), integral P_l(x) e^{i pi x} dx = 2 i**l j_l(pi)
  (DLMF 10.54.2), so f = sin(pi x) (cos(pi x)) has Legendre coefficients
  (2l+1) j_l(pi) at the odd (even) degrees l, and the estimate variance at
  size n is the tail sum of 2 (2l+1) j_l(pi)**2 over the degrees of that
  parity beyond the basis.  The exact value, bracketed through a rational
  bracket of pi (``refdecimal.bounds``), equals that sum, computed by
  ``mpmath.besselj``, to 25 digits at every size to 40; by the same
  bracket it is positive, strictly decreasing, and below the Taylor
  comparator's at every size.
"""

from fractions import Fraction

import mpmath
import pytest
from refdecimal import bounds

from gramkernel.approx import COS_PI, EXP_NEG, SIN_PI, variance_rows
from gramkernel.conditioning import condition_table
from gramkernel.families import ALL_FAMILIES


def test_exp_neg_estimate_variance_is_one_third_of_a_power_of_four():
    for n, (taylor, estimate) in enumerate(variance_rows(EXP_NEG, 40), start=1):
        assert estimate == Fraction(1, 3 * 4**n)
        assert estimate < taylor


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
def test_condition_numbers_meet_the_hankel_lower_bound(family):
    for n, kappa in enumerate(condition_table(family, 60), start=1):
        assert 16 * n * kappa >= Fraction(321, 100) ** (n - 1)


def _bessel_tails(first_degree: int, max_size: int) -> list:
    """sum of 2 (2l+1) j_l(pi)**2 over l = first_degree + 2n, +2, ... for
    n = 0..max_size-1, at 600 bits; j_l(pi) = J_{l+1/2}(pi) / sqrt(2)."""
    terms, l = [], first_degree
    while l < first_degree + 2 * max_size or terms[-1] > mpmath.mpf(2) ** -1800:
        terms.append((2 * l + 1) * mpmath.besselj(l + mpmath.mpf(1) / 2, mpmath.pi) ** 2)
        l += 2
    return [mpmath.fsum(terms[n:]) for n in range(max_size)]


@pytest.mark.parametrize("target, first_degree", [(SIN_PI, 3), (COS_PI, 2)],
                         ids=["sin-pi", "cos-pi"])
def test_trig_estimate_variance_is_the_bessel_tail_and_beats_taylor(target, first_degree):
    rows = variance_rows(target, 40)
    with mpmath.workprec(600):
        tails = _bessel_tails(first_degree, 40)
        previous_lo = None
        for n, ((taylor, estimate), tail) in enumerate(zip(rows, tails), start=1):
            lo, hi = bounds(estimate, 4096)
            assert hi - lo <= lo * Fraction(1, 10**30), f"size {n}: bracket too wide"
            got = mpmath.mpf(lo.numerator) / lo.denominator
            assert abs(got - tail) <= tail * mpmath.mpf(10) ** -25, f"size {n}: {got} vs {tail}"
            assert lo > 0
            assert previous_lo is None or hi < previous_lo, f"size {n}: not decreasing"
            assert hi < bounds(taylor, 4096)[0], f"size {n}: not below Taylor"
            previous_lo = lo
