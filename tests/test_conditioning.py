"""Infinity-norm condition numbers of the moment Gram matrices."""

from fractions import Fraction

import pytest

from gramkernel import conditioning
from gramkernel.conditioning import condition_number, condition_table, inf_norm
from gramkernel.families import (
    ALL_FAMILIES,
    HERMITE_EVEN,
    HERMITE_ODD,
    LAGUERRE,
    LEGENDRE_EVEN,
    LEGENDRE_ODD,
    coeff_matrix,
)
from gramkernel.kernelbuild import build_kernel


def F(p, q=1):
    return Fraction(p, q)


class TestInfNorm:
    def test_moment_gram(self):
        assert inf_norm(((F(1), F(1)), (F(1), F(2)))) == 3

    def test_signed_entries(self):
        assert inf_norm(((F(2), F(-1)), (F(-1), F(1)))) == 3

    def test_identity(self):
        eye = tuple(tuple(F(int(i == j)) for j in range(5)) for i in range(5))
        assert inf_norm(eye) == 1


class TestConditionNumber:
    def test_laguerre_2(self):
        assert condition_number(LAGUERRE, 2) == 9

    def test_legendre_odd_2(self):
        assert condition_number(LEGENDRE_ODD, 2) == F(112, 3)

    def test_hermite_even_2(self):
        assert condition_number(HERMITE_EVEN, 2) == F(9, 2)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_size_one_is_unity(self, family):
        assert condition_number(family, 1) == 1

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_exactly_rational_for_all_families(self, family):
        # Hermite grades must cancel: kappa is a Fraction, never graded
        for n in range(1, 11):
            kappa = condition_number(family, n)
            assert isinstance(kappa, Fraction)
            assert kappa >= 1

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_monotone_growth(self, family):
        values = [condition_number(family, n) for n in range(1, 11)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestConditionTable:
    def test_laguerre_first_three_rows(self):
        rows = condition_table(LAGUERRE, 3)
        assert [(r.size, r.kappa_exact) for r in rows] == [
            (1, F(1)),
            (2, F(9)),
            (3, F(288)),
        ]

    def test_legendre_even_size_four(self):
        last = condition_table(LEGENDRE_EVEN, 4)[-1]
        assert last.size == 4
        assert last.kappa_exact == 18150
        assert last.kappa_decimal == "18150"

    def test_hermite_odd_size_two_decimal(self):
        last = condition_table(HERMITE_ODD, 2)[-1]
        assert last.kappa_exact == F(147, 8)
        assert last.kappa_decimal == "18.375"

    def test_rows_strictly_increasing_sizes(self):
        sizes = [r.size for r in condition_table(LEGENDRE_ODD, 6)]
        assert sizes == sorted(set(sizes)) == list(range(1, 7))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            condition_table(LAGUERRE, 0)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_rows_equal_one_size_condition_numbers(self, family):
        """The running row sums against the matrix norms of each size, up to
        32, the largest size the benchmark's tables use."""
        rows = condition_table(family, 32)
        assert [r.size for r in rows] == list(range(1, 33))
        for row in rows:
            assert row.kappa_exact == condition_number(family, row.size)

    def test_builds_no_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("condition_table built a kernel matrix")

        monkeypatch.setattr(conditioning, "build_kernel", refuse)
        assert condition_table(LAGUERRE, 3)[-1].kappa_exact == 288

    def test_decimal_rendering_width(self):
        # at least 17 significant digits available on demand
        last = condition_table(HERMITE_ODD, 8)[-1].kappa_decimal
        digits = last.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) >= 16  # trailing zeros may legitimately strip


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
def test_checkerboard_signs(family):
    """The premise of the row-sum recurrence, at n = 40: a_ki (k >= i) is
    nonzero with one sign per row k times (-1)**i, and b_ij is nonzero with
    the sign (-1)**(i+j)."""
    n = 40
    a = coeff_matrix(family, n).entries
    for k, row in enumerate(a):
        row_sign = 1 if row[0] > 0 else -1
        assert all(row[i] * row_sign * (-1) ** i > 0 for i in range(k + 1))
    b = build_kernel(family, n).entries
    assert all(b[i][j] * (-1) ** (i + j) > 0 for i in range(n) for j in range(n))
