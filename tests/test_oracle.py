"""Moment Gram matrices and the fraction-free inversion that grounds them."""

import random
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from gramkernel.families import (
    ALL_FAMILIES,
    HERMITE_EVEN,
    LAGUERRE,
    LEGENDRE_ODD,
    GradedMatrix,
    monomial_moment,
)
from gramkernel.kernelbuild import build_kernel
from gramkernel.oracle import (
    SingularMatrixError,
    bareiss_inverse,
    gram_from_moments,
    invert_exact,
    leading_inverses,
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

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_every_entry_is_the_moment_of_its_power(self, family):
        """The rows, windows of one moment vector, equal the moments of
        x**(p_i + p_j) looked up one entry at a time, at every size to 40."""
        for n in range(1, 41):
            powers = [family.basis_power(i) for i in range(1, n + 1)]
            want = tuple(tuple(monomial_moment(family, p + q) for q in powers) for p in powers)
            g = gram_from_moments(family, n)
            assert (g.family, g.n, g.entries, g.sqrtpi_power) == (
                family, n, want, family.moment_grade)


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
        """Every route through the elimination names the zero pivot's step."""
        for entries, step in (
            (((F(1), F(1)), (F(1), F(1))), 2),
            (((F(0),),), 1),
            (((F(0), F(1, 2)), (F(1, 2), F(3))), 1),
        ):
            message = f"^zero pivot at elimination step {step}$"
            gram = GradedMatrix.of(LAGUERRE, entries)
            for route in (bareiss_inverse, leading_principal_minors,
                          lambda e: next(leading_inverses(e))):
                with pytest.raises(SingularMatrixError, match=message):
                    route(entries)
            with pytest.raises(SingularMatrixError, match=message):
                invert_exact(gram)

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


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
def test_one_elimination_gives_every_leading_inverse(family):
    """The sweep of G_12 against three references at every n <= 12: the
    back-substitution inverse, the leading minors and the closed-form
    kernel.  Size n is an integer n x n adjugate T, its pivot p and the
    scale d, with G_n**-1 = d T / p and det G_n = p / d**n."""
    gram_12 = gram_from_moments(family, 12)
    dets = []
    for n, (adjugate, pivot, d) in enumerate(leading_inverses(gram_12.entries), start=1):
        gram = gram_from_moments(family, n)
        reference, reference_det = bareiss_inverse(gram.entries)
        assert [len(row) for row in adjugate] == [n] * n
        assert all(type(t) is int for row in adjugate for t in row)
        inverse = tuple(tuple(Fraction(d * t, pivot) for t in row) for row in adjugate)
        det = Fraction(pivot, d**n)
        assert inverse == reference == build_kernel(family, n).entries
        assert det == reference_det == leading_principal_minors(gram.entries)[-1]
        dets.append(det)
    assert tuple(dets) == leading_principal_minors(gram_12.entries)
    assert invert_exact(gram_12) == (
        GradedMatrix.of(family, inverse, -gram_12.sqrtpi_power), det)


def _leibniz_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod((rows[i][perm[i]] for i in range(n)), start=Fraction(1))
    return total


# zeros, negative entries and mixed denominators
rationals = st.one_of(st.just(Fraction(0)), st.fractions(-20, 20, max_denominator=30))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 4))
    return tuple(tuple(draw(rationals) for _ in range(n)) for _ in range(n))


@given(square_matrices())
@settings(max_examples=200)
def test_integer_minors_match_leibniz_determinants(entries):
    """The integer-cleared Bareiss minors equal the Leibniz determinants of
    the leading blocks; a vanishing one stops the elimination at its step."""
    minors = [_leibniz_det([row[:k] for row in entries[:k]]) for k in range(1, len(entries) + 1)]
    if 0 in minors:
        step = minors.index(0) + 1
        with pytest.raises(SingularMatrixError, match=f"^zero pivot at elimination step {step}$"):
            leading_principal_minors(entries)
    else:
        assert leading_principal_minors(entries) == tuple(minors)
