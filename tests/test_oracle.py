"""Moment Gram matrices and the fraction-free inversion that grounds them."""

import random
from fractions import Fraction

import pytest

from gramkernel.families import (
    ALL_FAMILIES,
    HERMITE_EVEN,
    LAGUERRE,
    LEGENDRE_ODD,
)
from gramkernel.kernelbuild import build_kernel
from gramkernel.oracle import (
    SingularMatrixError,
    bareiss_inverse,
    gram_from_moments,
    invert_exact,
    leading_principal_minors,
)


def F(p, q=1):
    return Fraction(p, q)


class TestGramFromMoments:
    def test_laguerre_2(self):
        g = gram_from_moments(LAGUERRE, 2)
        assert g.entries == ((F(1), F(1)), (F(1), F(2)))
        assert g.sqrtpi_power == 0

    def test_legendre_odd_2(self):
        g = gram_from_moments(LEGENDRE_ODD, 2)
        assert g.entries == ((F(2, 3), F(2, 5)), (F(2, 5), F(2, 7)))

    def test_hermite_even_2(self):
        g = gram_from_moments(HERMITE_EVEN, 2)
        assert g.entries == ((F(1), F(1, 2)), (F(1, 2), F(3, 4)))
        assert g.sqrtpi_power == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gram_from_moments(LAGUERRE, 0)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_hankel_structure(self, family):
        g = gram_from_moments(family, 8)
        for i in range(1, 8):
            for j in range(7):
                assert g.entries[i][j] == g.entries[i - 1][j + 1]


class TestBareissInverse:
    def test_two_by_two(self):
        inv, det = bareiss_inverse(((F(1), F(1)), (F(1), F(2))))
        assert inv == ((F(2), F(-1)), (F(-1), F(1)))
        assert det == 1

    def test_identity(self):
        eye = tuple(tuple(F(int(i == j)) for j in range(3)) for i in range(3))
        inv, det = bareiss_inverse(eye)
        assert inv == eye
        assert det == 1

    def test_fractional_gram(self):
        inv, det = bareiss_inverse(((F(2), F(2, 3)), (F(2, 3), F(2, 5))))
        assert inv == ((F(9, 8), F(-15, 8)), (F(-15, 8), F(45, 8)))
        assert det == F(16, 45)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            bareiss_inverse(((F(1), F(1)), (F(1), F(1))))
        with pytest.raises(SingularMatrixError):
            bareiss_inverse(((F(0),),))

    def test_random_spd_matrices_invert_exactly(self):
        """M^T M + I is positive definite; inverse times M must be exact I."""
        rng = random.Random(990011)
        for n in (2, 3, 5):
            raw = [
                [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                for _ in range(n)
            ]
            spd = [
                [
                    sum(raw[k][i] * raw[k][j] for k in range(n))
                    + (1 if i == j else 0)
                    for j in range(n)
                ]
                for i in range(n)
            ]
            inv, det = bareiss_inverse(tuple(tuple(r) for r in spd))
            assert det != 0
            for i in range(n):
                for j in range(n):
                    acc = sum(spd[i][k] * inv[k][j] for k in range(n))
                    assert acc == (1 if i == j else 0)

    def test_minors_match_pivots(self):
        g = gram_from_moments(LAGUERRE, 5)
        minors = leading_principal_minors(g.entries)
        # brute-force leading minors by cofactor expansion
        def det_rec(m):
            k = len(m)
            if k == 1:
                return m[0][0]
            total = Fraction(0)
            for j in range(k):
                sub = [row[:j] + row[j + 1 :] for row in m[1:]]
                total += (-1) ** j * m[0][j] * det_rec(sub)
            return total

        for size in range(1, 6):
            block = [list(g.entries[i][:size]) for i in range(size)]
            assert minors[size - 1] == det_rec(block)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("n", range(1, 11))
class TestInvertExact:
    def test_inverse_times_gram_is_identity(self, family, n):
        g = gram_from_moments(family, n)
        inverse, _ = invert_exact(g)
        for i in range(n):
            for j in range(n):
                acc = sum(
                    (g.entries[i][k] * inverse.entries[k][j] for k in range(n)),
                    Fraction(0),
                )
                assert acc == (1 if i == j else 0)

    def test_grade_negated(self, family, n):
        g = gram_from_moments(family, n)
        inverse, det = invert_exact(g)
        assert inverse.sqrtpi_power == -g.sqrtpi_power
        assert det == leading_principal_minors(g.entries)[-1]

    def test_matches_kernel_build(self, family, n):
        inverse, _ = invert_exact(gram_from_moments(family, n))
        assert inverse.entries == build_kernel(family, n).entries

    def test_det_product_is_one(self, family, n):
        g = gram_from_moments(family, n)
        inverse, det_g = invert_exact(g)
        det_b = leading_principal_minors(inverse.entries)[-1]
        # det(G) has grade n * G's grade and det(B) n * B's grade
        assert det_g * det_b == 1
        assert n * g.sqrtpi_power + n * inverse.sqrtpi_power == 0
