"""Exact scalar layer: rationals, pi-Laurent ring, numeric rendering."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from gramkernel.exactscalar import (
    PiLaurent,
    decimal_str,
    eval_pilaurent,
    gamma_ratio,
    to_bigfloat,
)


class TestGammaRatio:
    def test_empty_product(self):
        assert gamma_ratio(Fraction(1, 2), 0) == 1

    def test_single_factor(self):
        assert gamma_ratio(Fraction(3, 2), 1) == Fraction(3, 2)

    def test_two_factors(self):
        # Gamma(7/2)/Gamma(3/2) = (3/2)(5/2)
        assert gamma_ratio(Fraction(3, 2), 2) == Fraction(15, 4)

    def test_integer_base(self):
        # Gamma(5)/Gamma(2) = 2*3*4
        assert gamma_ratio(2, 3) == 24

    @given(
        k=st.integers(min_value=1, max_value=9),
        s=st.integers(min_value=0, max_value=20),
        t=st.integers(min_value=0, max_value=20),
    )
    def test_rising_product_splits(self, k, s, t):
        """gamma_ratio(x, s+t) == gamma_ratio(x, s) * gamma_ratio(x+s, t)."""
        x = Fraction(k, 2)
        assert gamma_ratio(x, s + t) == gamma_ratio(x, s) * gamma_ratio(x + s, t)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            gamma_ratio(Fraction(1, 3), 1)
        with pytest.raises(ValueError):
            gamma_ratio(Fraction(-1, 2), 1)

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            gamma_ratio(Fraction(1, 2), -1)


class TestRationalRoundTrip:
    @given(
        a=st.fractions(max_denominator=10**6),
        b=st.fractions(max_denominator=10**6).filter(lambda q: q != 0),
    )
    def test_divide_multiply(self, a, b):
        assert (a / b) * b == a


small_fracs = st.fractions(max_denominator=50)
pilaurents = st.dictionaries(
    st.integers(min_value=-4, max_value=4), small_fracs, max_size=4
).map(PiLaurent)


class TestPiLaurent:
    def test_construction_drops_zeros(self):
        p = PiLaurent({0: 1, 2: 0})
        assert p.terms == {0: Fraction(1)}

    def test_immutable(self):
        p = PiLaurent({1: 1})
        with pytest.raises(AttributeError):
            p._terms = {}

    @given(a=pilaurents, b=pilaurents, c=pilaurents)
    @settings(max_examples=60)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    def test_str_forms(self):
        assert str(PiLaurent()) == "0"
        assert str(PiLaurent(Fraction(1, 3))) == "1/3"
        assert str(PiLaurent({1: 1})) == "1*pi"
        assert str(PiLaurent({-3: -12, -1: 2})) == "-12*pi^-3 + 2*pi^-1"


class TestEvalPiLaurent:
    def test_empty_sum(self):
        assert eval_pilaurent(PiLaurent(), 256) == 0

    def test_constant(self):
        assert eval_pilaurent(PiLaurent(1), 256) == 1

    def test_two_over_pi(self):
        v = eval_pilaurent(PiLaurent({-1: 2}), 256)
        with mp.workprec(320):
            assert abs(v - 2 / mp.pi) < mpf(2) ** -250

    def test_fraction_is_its_constant_sum(self):
        for q in (Fraction(1, 3), Fraction(-22, 7), Fraction(0)):
            for bits in (128, 256):
                assert eval_pilaurent(q, bits) == eval_pilaurent(PiLaurent(q), bits)

    def test_precision_floor_enforced(self):
        with pytest.raises(ValueError):
            eval_pilaurent(PiLaurent(1), 64)
        with pytest.raises(ValueError):
            to_bigfloat(Fraction(1, 3), 100)

    def test_precisions_agree_to_sixty_digits(self):
        rng = random.Random(20240221)
        for _ in range(5):
            terms = {
                rng.randint(-10, 10): Fraction(rng.randint(-999, 999), rng.randint(1, 999))
                for _ in range(10)
            }
            p = PiLaurent(terms)
            lo = eval_pilaurent(p, 256)
            hi = eval_pilaurent(p, 512)
            if hi == 0:
                assert lo == 0
                continue
            with mp.workprec(600):
                rel = abs(lo - hi) / abs(hi)
            assert rel < mpf(10) ** -60


# positive integers of up to 400 bits, built from ten 40-bit limbs: drawn
# whole, hypothesis favours short or power-of-two values that never round
long_ints = st.lists(
    st.integers(min_value=0, max_value=2**40 - 1), min_size=1, max_size=10
).map(lambda limbs: sum(x << (40 * i) for i, x in enumerate(limbs)) or 1)


class TestToBigfloat:
    @given(p=long_ints, q=long_ints, negative=st.booleans())
    @settings(max_examples=200)
    def test_correctly_rounded(self, p, q, negative):
        """Within half an ulp of p/q at 128 bits, the error computed in
        Fraction arithmetic from the result's sign, mantissa and exponent."""
        x = Fraction(-p if negative else p, q)
        sign, man, exp, _ = to_bigfloat(x, 128)._mpf_
        got = (-1) ** sign * man * Fraction(2) ** exp
        e = p.bit_length() - q.bit_length()
        if abs(x) < Fraction(2) ** e:
            e -= 1  # now 2**e <= |x| < 2**(e+1)
        assert abs(got - x) <= Fraction(2) ** (e - 128)


class TestDecimalStr:
    def test_terminating_values_render_exactly(self):
        assert decimal_str(Fraction(9, 2), 17) == "4.5"
        assert decimal_str(Fraction(147, 8), 17) == "18.375"
        assert decimal_str(Fraction(96251817955797, 2), 17) == "48125908977898.5"

    def test_repeating_value(self):
        assert decimal_str(Fraction(112, 3), 17) == "37.333333333333333"

    def test_half_even_rounding(self):
        assert decimal_str(Fraction(1, 8), 2) == "0.12"  # 0.125 ties to even
        assert decimal_str(Fraction(3, 8), 2) == "0.38"  # 0.375 ties to even

    def test_carry_into_new_digit(self):
        assert decimal_str(Fraction(9999, 10000), 3) == "1"

    def test_scientific_for_extremes(self):
        assert decimal_str(Fraction(1, 10**30), 3) == "1e-30"
        assert decimal_str(Fraction(-1, 10**30), 3) == "-1e-30"

    def test_zero_and_integers(self):
        assert decimal_str(Fraction(0), 17) == "0"
        assert decimal_str(Fraction(288), 17) == "288"

    def test_round_trip_at_precision(self):
        # parsing the rendered string recovers the value rounded at 17 digits
        q = Fraction(2916645511, 1792)
        s = decimal_str(q, 17)
        assert abs(Fraction(s) - q) < Fraction(1, 10**9)
