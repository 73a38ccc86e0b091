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

The trigonometric variance claims need certified decimal comparison and
are not checked here.
"""

from fractions import Fraction

import pytest

from gramkernel.approx import EXP_NEG, variance_rows
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
