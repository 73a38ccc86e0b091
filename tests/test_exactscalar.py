"""Exact scalar layer: rationals, pi-Laurent ring, numeric rendering."""

import operator
import random
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, nstr
from mpmath.libmp import from_rational, round_nearest
from refdecimal import bounds, render

from gramkernel.approx import TARGETS, variance_rows
from gramkernel.exactscalar import (
    SIG_DIGITS,
    PiLaurent,
    _certified_digits,
    _pi_bracket,
    _pi_power,
    _render,
    _round_decimal,
    _round_rational,
    certified_decimal_str,
    decimal_str,
    enclose,
    eval_pilaurent,
    mpf_decimal_str,
    to_bigfloat,
)


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
        assert dict(p.items()) == {0: Fraction(1)}

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

    def test_pi_free_value_is_interchangeable_with_its_fraction(self):
        half = Fraction(1, 2)
        assert len({half, PiLaurent(half)}) == 1
        assert {half: "half"}.get(PiLaurent(half)) == "half"
        assert {PiLaurent(): "zero"}[Fraction(0)] == "zero"
        assert len({PiLaurent({1: half}), half}) == 2

    @given(p=pilaurents, q=small_fracs, m=st.integers(min_value=-4, max_value=4))
    def test_equal_values_hash_equal(self, p, q, m):
        """p == q implies hash(p) == hash(q), across both carriers and for
        the results of arithmetic, pi-free and zero results included."""
        equal = (
            (PiLaurent(q), q), (p, PiLaurent(dict(p.items()))), (p - p + q, q),
            (p * q - q * p, 0), (p + q - p, q), ((p + 1) * (p - 1), p * p - 1),
            (PiLaurent.pi_power(m, q) * PiLaurent.pi_power(-m), q), (-(-p), p),
        )
        for a, b in ((p, q),) + equal:
            if a == b:
                assert hash(a) == hash(b)
        assert all(a == b for a, b in equal)

    def test_str_forms(self):
        assert str(PiLaurent()) == "0"
        assert str(PiLaurent(Fraction(1, 3))) == "1/3"
        assert str(PiLaurent({1: 1})) == "1*pi"
        assert str(PiLaurent({-3: -12, -1: 2})) == "-12*pi^-3 + 2*pi^-1"


def _as_dict(p: PiLaurent) -> dict:
    """p's terms, checking that items() is ascending, nonzero and Fraction-valued."""
    items = list(p.items())
    assert [m for m, _ in items] == sorted({m for m, _ in items})
    assert all(type(q) is Fraction and q != 0 for _, q in items)
    return dict(items)


def _sparse_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, q in b.items():
        out[m] = out.get(m, 0) + q
    return {m: q for m, q in out.items() if q}


def _sparse_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, qa in a.items():
        for mb, qb in b.items():
            out[ma + mb] = out.get(ma + mb, 0) + qa * qb
    return {m: q for m, q in out.items() if q}


# gappy exponents over the range the trig targets reach (pi**-79 at size 40)
gappy = st.dictionaries(
    st.integers(min_value=-80, max_value=80),
    st.fractions(max_denominator=10**12).filter(lambda q: q != 0),
    max_size=8,
)


@st.composite
def operand_pairs(draw):
    """Two sparse operands; b often cancels some of a's terms exactly."""
    a = draw(gappy)
    cancelled = draw(st.sets(st.sampled_from(sorted(a)))) if a else set()
    b = draw(gappy)
    b.update({m: -a[m] for m in cancelled})
    return a, b


class TestDenseForm:
    """The canonical dense form against naive sparse dict arithmetic."""

    @given(pair=operand_pairs(), q=st.fractions(max_denominator=10**6))
    @settings(max_examples=200)
    def test_arithmetic_matches_sparse_reference(self, pair, q):
        a, b = pair
        pa, pb = PiLaurent(a), PiLaurent(b)
        neg_b = {m: -x for m, x in b.items()}
        scalar = {0: q} if q else {}
        assert _as_dict(pa) == a
        assert _as_dict(-pb) == neg_b
        assert _as_dict(pa + pb) == _sparse_add(a, b)
        assert _as_dict(pa - pb) == _sparse_add(a, neg_b)
        assert _as_dict(pa * pb) == _sparse_mul(a, b)
        assert _as_dict(q + pa) == _as_dict(pa + q) == _sparse_add(a, scalar)
        assert _as_dict(q - pb) == _sparse_add(scalar, neg_b)
        assert _as_dict(pb - q) == _sparse_add(b, {0: -q} if q else {})
        assert _as_dict(q * pa) == _as_dict(pa * q) == _sparse_mul(a, scalar)

    @given(a=gappy, r=st.one_of(st.sampled_from((0, -1, Fraction(0), Fraction(-3, 2))),
                                st.integers(), st.fractions(max_denominator=10**12)))
    @settings(max_examples=200)
    def test_rational_operand_equals_the_lifted_operation(self, a, r):
        """An int or Fraction operand, on either side of ``+``, ``-`` and ``*``,
        gives the canonical triple and hash of the operation with r lifted
        to a PiLaurent first."""
        p, lifted = PiLaurent(a), PiLaurent(r)
        for op in (operator.add, operator.sub, operator.mul):
            for got, want in ((op(p, r), op(p, lifted)), (op(r, p), op(lifted, p))):
                assert type(got) is PiLaurent
                assert got._v == want._v and hash(got) == hash(want)

    @given(a=gappy)
    def test_round_trip_through_items(self, a):
        p = PiLaurent(a)
        assert PiLaurent(dict(p.items())) == p
        assert hash(PiLaurent(dict(p.items()))) == hash(p)
        assert eval(repr(p), {"PiLaurent": PiLaurent, "Fraction": Fraction}) == p

    @given(a=gappy)
    def test_cancelling_sum_is_zero(self, a):
        p = PiLaurent(a)
        for zero in (p - p, p + -p, p * 0, -p + p):
            assert not zero and zero == 0 == PiLaurent()
            assert hash(zero) == hash(Fraction(0)) and str(zero) == "0"
            assert _as_dict(zero) == {}

    @given(m=st.integers(min_value=-80, max_value=80), q=st.fractions(max_denominator=10**6),
           r=st.fractions(max_denominator=10**6))
    def test_pi_free_results_equal_their_fraction(self, m, q, r):
        p = PiLaurent.pi_power(m, q) * PiLaurent.pi_power(-m, r) + PiLaurent.pi_power(m, q)
        p -= PiLaurent.pi_power(m, q)
        assert p == q * r and hash(p) == hash(q * r)
        assert _as_dict(p) == ({0: q * r} if q * r else {})


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


def _mpmath_eval_pilaurent(p, precision_bits):
    """The plain mpmath loop eval_pilaurent must match bit for bit: a
    Fraction per term, rounded by ``from_rational``, times pi raised anew."""
    if not isinstance(p, PiLaurent):
        p = PiLaurent(p)
    with mp.workprec(precision_bits + 16):
        pi_val = +mp.pi
        acc = mpf(0)
        for m, q in p.items():
            q_val = mp.make_mpf(from_rational(q.numerator, q.denominator, mp.prec, round_nearest))
            acc += q_val * pi_val**m
    with mp.workprec(precision_bits):
        return +acc


def _cancelling_pilaurents(rng, count):
    """Dense products minus a nearby value, with exponents up to +-160:
    large terms whose sum is small, as in the variance tables."""
    out = []
    for _ in range(count):
        u, v = (
            PiLaurent({m: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
                       for m in range(-80, 81, rng.randint(1, 4))})
            for _ in range(2)
        )
        w = u * v
        near = PiLaurent({m: q.limit_denominator(10**rng.randint(3, 12)) for m, q in w.items()})
        out.append(w - near)
    return out


class TestEvalPiLaurentBitIdentity:
    BITS = (128, 200, 256, 512, 1024)

    def test_random_cancelling_sums(self):
        for p in _cancelling_pilaurents(random.Random(16), 6):
            assert p and min(m for m, _ in p.items()) < -100
            for bits in self.BITS:
                assert eval_pilaurent(p, bits)._mpf_ == _mpmath_eval_pilaurent(p, bits)._mpf_

    def test_variance_table_values(self):
        for target in TARGETS.values():
            for pair in variance_rows(target, 24):
                for value in pair:
                    for bits in (128, 256, 1000):
                        got = eval_pilaurent(value, bits)._mpf_
                        assert got == _mpmath_eval_pilaurent(value, bits)._mpf_

    @given(q=st.fractions(), bits=st.integers(min_value=128, max_value=1024))
    @settings(max_examples=200)
    def test_fractions(self, q, bits):
        assert eval_pilaurent(q, bits)._mpf_ == _mpmath_eval_pilaurent(q, bits)._mpf_

    def test_pi_power_is_mpmath_power(self):
        for wp in (144, 272, 1040):
            for m in (-160, -7, -1, 0, 1, 2, 3, 64, 161):
                with mp.workprec(wp):
                    want = ((+mp.pi) ** m)._mpf_
                assert _pi_power(wp, m) == want


@st.composite
def exact_ties(draw):
    """odd * 2**k / 2**j with ``odd`` of prec + 1 bits: exactly halfway
    between two neighbouring prec-bit floats."""
    prec = draw(st.integers(min_value=2, max_value=2048))
    odd = draw(st.integers(min_value=2**prec, max_value=2 ** (prec + 1) - 1)) | 1
    p = odd << draw(st.integers(min_value=0, max_value=64))
    return draw(st.sampled_from((p, -p))), 1 << draw(st.integers(min_value=0, max_value=4096)), prec


class TestRoundRational:
    @given(p=st.integers(min_value=-2**2100, max_value=2**2100),
           q=st.integers(min_value=1, max_value=2**2100),
           prec=st.integers(min_value=2, max_value=2048))
    @settings(max_examples=300)
    def test_equals_from_rational(self, p, q, prec):
        assert _round_rational(p, q, prec) == from_rational(p, q, prec, round_nearest)

    @given(exact_ties())
    @settings(max_examples=300)
    def test_exact_ties(self, tie):
        p, q, prec = tie
        assert _round_rational(p, q, prec) == from_rational(p, q, prec, round_nearest)

    def test_zero_and_small_signed_values(self):
        for p in range(-40, 41):
            for q in range(1, 20):
                for prec in (2, 3, 5, 53):
                    assert _round_rational(p, q, prec) == from_rational(p, q, prec, round_nearest)


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

    @given(
        q=st.one_of(
            st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
            st.builds(lambda k: Fraction(10) ** k, st.integers(-60, 60)),
            st.builds(lambda k, d: Fraction(10) ** k * (1 - Fraction(1, d)),
                      st.integers(-60, 60), st.integers(2, 10**45)),
        ),
        sig_digits=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=300)
    def test_value_is_decimal_division_half_even(self, q, sig_digits):
        """The rendered value is q correctly rounded to sig_digits digits."""
        ctx = Context(prec=sig_digits, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)
        want = ctx.divide(Decimal(q.numerator), Decimal(q.denominator))
        assert Fraction(decimal_str(q, sig_digits)) == Fraction(want)

    def test_round_trip_at_precision(self):
        # parsing the rendered string recovers the value rounded at 17 digits
        q = Fraction(2916645511, 1792)
        s = decimal_str(q, 17)
        assert abs(Fraction(s) - q) < Fraction(1, 10**9)


def _exact(x: mpf) -> Fraction:
    """The exact binary value of a finite mpf, read off its raw fields."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


def _half_away(v: Fraction, digits: int = 17) -> Fraction:
    """v rounded half away from zero to ``digits`` significant digits, in
    Fraction and integer arithmetic only."""
    if not v:
        return v
    a = abs(v)
    e = len(str(a.numerator)) - len(str(a.denominator))
    if a < Fraction(10) ** e:
        e -= 1  # now 10**e <= a < 10**(e+1)
    scale = Fraction(10) ** (digits - 1 - e)
    n, rem = divmod(a * scale, 1)
    return (1 if v > 0 else -1) * (n + (2 * rem >= 1)) / scale


@st.composite
def random_mpfs(draw):
    """An mpf of 53-2048 bits with a fully random mantissa and a decimal
    exponent within about +-300."""
    bits = draw(st.integers(min_value=53, max_value=2048))
    man = draw(st.randoms(use_true_random=False)).getrandbits(bits) | 1 << (bits - 1)
    exp = draw(st.integers(min_value=-997, max_value=997)) - bits
    with mp.workprec(bits):
        return mpf((-man if draw(st.booleans()) else man, exp))


@st.composite
def near_ties(draw):
    """A decimal string halfway between two 17-digit values -- a 5 at digit
    18 -- then zeros and one digit, read at 128 bits: its binary value lies
    just off the tie, on either side."""
    digits = draw(st.text("0123456789", min_size=16, max_size=16))
    zeros = draw(st.integers(min_value=0, max_value=12))
    text = (f"{draw(st.sampled_from(('', '-')))}{draw(st.integers(1, 9))}.{digits}5{'0' * zeros}"
            f"{draw(st.integers(0, 9))}e{draw(st.integers(-300, 300))}")
    with mp.workprec(128):
        return mpf(text)


class TestMpfDecimalStr:
    def test_rounds_the_exact_value_where_nstr_misrounds(self):
        """Two near-ties that ``nstr`` rounds the wrong way: it truncates to a
        few guard bits, so a value just past a decimal tie reads as below it."""
        with mp.workprec(128):
            fixed, scientific = mpf("594787115997649815000004e-16"), mpf("634535209798347565000003e-36")
        assert mpf_decimal_str(fixed) == "59478711.599764982"
        assert mpf_decimal_str(scientific) == "6.3453520979834757e-13"
        for x in (fixed, scientific):
            assert Fraction(mpf_decimal_str(x)) == _half_away(_exact(x))

    @given(x=st.one_of(random_mpfs(), near_ties()))
    @settings(max_examples=400, deadline=None)
    def test_value_is_half_away_rounding_of_the_exact_value(self, x):
        assert Fraction(mpf_decimal_str(x)) == _half_away(_exact(x))

    @pytest.mark.parametrize("text, want", [
        ("0", "0.0"),
        ("1", "1.0"),
        ("-1", "-1.0"),
        ("1e-5", "1.0e-5"),
        ("-1.5e-5", "-1.5e-5"),
        ("1e-4", "0.0001"),
        ("-1.25e-4", "-0.000125"),
        ("1e16", "10000000000000000.0"),
        ("-1.5e16", "-15000000000000000.0"),
        ("1e17", "1.0e+17"),
        ("2.5e17", "2.5e+17"),
        ("9.99999999999999999999", "10.0"),
        ("-9.99999999999999999999e16", "-1.0e+17"),
        ("0.1", "0.1"),
        ("1e300", "1.0e+300"),
    ])
    def test_spelling_at_the_format_edges(self, text, want):
        """Zero, whole numbers, both signs, decimal exponents -5, -4, 16 and
        17, and a carry into a new leading digit, spelled as ``nstr`` does."""
        with mp.workprec(128):
            x = mpf(text)
        assert mpf_decimal_str(x) == want == nstr(x, 17)

    def test_spelling_equals_nstr_wherever_nstr_is_right(self):
        """On a seeded sample over decimal exponents -9..20 (both layouts),
        the string is ``nstr``'s wherever ``nstr`` has the right digits."""
        rng = random.Random(20261019)
        compared = 0
        for _ in range(3000):
            bits = rng.randint(53, 512)
            with mp.workprec(bits):
                x = mpf((rng.getrandbits(bits) * rng.choice((1, -1)), rng.randint(-30, 66) - bits))
            if Fraction(nstr(x, 17)) == _half_away(_exact(x)):
                assert mpf_decimal_str(x) == nstr(x, 17)
                compared += 1
        assert compared > 2900

    def test_non_finite_raises(self):
        for x in (mpf("inf"), mpf("-inf"), mpf("nan")):
            with pytest.raises(ValueError, match="non-finite"):
                mpf_decimal_str(x)


def test_pi_bracket_holds_pi_at_every_precision():
    """lo < pi * 2**p < hi with hi - lo 1 or 2, pi taken from mpmath at 2p
    bits, for every p from 8 to 4096, for the precisions above 4096 that
    Ziv's loop reaches from 128 and from 256 bits, and at p = 11790, the
    first p where pi * 2**p lies within Machin's error bound above an
    integer (frac 7.9e-6 against a bound of 1.0e-5), so a high end taken
    from the low end of that bound falls below pi."""
    ziv = [11790]
    for p in (128, 256):
        while p <= 12000:
            ziv, p = ziv + [p] * (p > 4096), p * 3 // 2
    for p in [*range(8, 4097), *ziv]:
        lo, hi = _pi_bracket.__wrapped__(p)  # uncached, so the cache stays small
        with mp.workprec(2 * p):
            pi_scaled = mp.pi * mpf(2) ** p
            assert lo < pi_scaled < hi, p
        assert hi - lo in (1, 2), p


@st.composite
def signed_pilaurents(draw):
    """A PiLaurent of either sign with pi exponents from -6 to 6, so that
    negative low exponents put pi into ``enclose``'s interval denominator;
    about one in six is free of pi.  Small integer coefficients leave little
    slack between the value and the ends, so a step that rounds inward shows."""
    exponents = st.integers(-6, 6) if draw(st.integers(0, 5)) else st.just(0)
    coefficients = st.integers(-3, 3) | st.fractions(-50, 50, max_denominator=10**6)
    return PiLaurent(draw(st.dictionaries(exponents, coefficients, min_size=1, max_size=8)))


class TestEnclose:
    """``enclose(value, p)`` is ``(lo, hi, q)``, q > 0, with lo/q <= value <=
    hi/q, exact where the value is free of pi, and narrower at 2p than at p."""

    @given(value=signed_pilaurents(), p=st.integers(8, 600))
    @example(value=PiLaurent({-3: 1, -1: -2}), p=8)  # negative, pi only below the line
    @example(value=PiLaurent({0: 1, 1: 1, 2: 1}), p=10)  # 1 + pi + pi**2: the high end is tight
    @example(value=PiLaurent({-1: Fraction(1, 7), 2: -1}), p=64)
    @example(value=PiLaurent({-2: 3, 1: -1}) + Fraction(1, 3), p=128)  # 3/pi**2 + 1/3 - pi < 0
    @settings(max_examples=300, deadline=None)
    def test_holds_the_value_and_narrows(self, value, p):
        b_lo, b_hi = bounds(value, 4096)  # mpmath's pi to 4096 bits, bracketed
        widths = []
        for bits in (p, 2 * p):
            lo, hi, q = enclose(value, bits)
            assert q > 0 and Fraction(lo, q) <= b_lo <= b_hi <= Fraction(hi, q)
            assert (lo == hi) == (b_lo == b_hi)
            widths.append(Fraction(hi - lo, q))
        assert widths[1] < widths[0] or widths == [0, 0]

    @given(value=st.one_of(st.integers(-50, 50), st.fractions(-50, 50, max_denominator=10**6)),
           p=st.integers(8, 600))
    @example(value=Fraction(0), p=8)
    @settings(max_examples=200, deadline=None)
    def test_a_value_free_of_pi_is_its_own_ratio(self, value, p):
        """A Fraction, an int or a PiLaurent free of pi encloses exactly as
        ``(num, num, den)``, its ratio in lowest terms, at every p."""
        num, den = Fraction(value).as_integer_ratio()
        for v in (value, PiLaurent(value)):
            assert enclose(v, p) == (num, num, den)


@st.composite
def cancelling_values(draw):
    """A PiLaurent with a pi term minus a rational within 2**-bits of it, so
    up to about 2000 bits cancel; nonzero, since pi is transcendental."""
    terms = draw(st.dictionaries(st.integers(-8, 8), st.fractions(-50, 50, max_denominator=10**6),
                                 min_size=1, max_size=6))
    value = PiLaurent(terms)
    if not any(m for m, _ in value.items()):
        value = value + PiLaurent.pi_power(draw(st.sampled_from((-3, -2, -1, 1, 2))))
    bits = draw(st.integers(0, 2000))
    lo, _ = bounds(value, bits + 64)
    return value - Fraction(lo.numerator * 2**bits // lo.denominator, 2**bits)


class TestCertifiedDecimal:
    @given(value=cancelling_values(), start=st.sampled_from((128, 256, 1000)))
    @example(value=PiLaurent({-4: 3, -2: Fraction(-1, 7), 2: 5}) - Fraction(227, 7), start=128)
    @example(value=PiLaurent({-3: 1, 1: Fraction(-1, 9)}) + Fraction(1, 3), start=128)
    @settings(max_examples=150, deadline=None)
    def test_equals_an_exact_bracket_at_4096_bits(self, value, start):
        lo, hi = bounds(value, 4096)
        want = render(lo, half_even=False)
        assert render(hi, half_even=False) == want, "the 4096-bit bracket must decide"
        text, bits = certified_decimal_str(value, start)
        assert text == want
        assert bits >= start

    @pytest.mark.parametrize("value, text", [
        (Fraction(0), "0.0"), (PiLaurent(), "0.0"), (Fraction(-3, 2), "-1.5"),
        (PiLaurent(Fraction(1, 3)), "0.33333333333333333"), (PiLaurent({1: 1}), "3.1415926535897932"),
        (PiLaurent({-1: -2}), "-0.63661977236758134")])
    def test_exact_and_simple_values(self, value, text):
        assert certified_decimal_str(value, 128) == (text, 128)


@st.composite
def radius_cases(draw):
    """(p, q, radius): |p|/q at or near a 17-digit rounding boundary, at or
    near a power of ten, or anywhere, with a radius of up to a few units of
    the 17th digit."""
    kind = draw(st.sampled_from(("half", "decade", "any")))
    unit = 10 ** draw(st.integers(0, 25))  # of the 18th digit of p
    if kind == "half":
        p = (10 * draw(st.integers(10**16, 10**17 - 1)) + 5) * unit
    elif kind == "decade":
        p = 10**18 * unit
    else:
        p = draw(st.integers(10**17, 10**19)) * unit
    p += draw(st.integers(-30 * unit, 30 * unit))
    return (draw(st.sampled_from((1, -1))) * p, 10 ** draw(st.integers(0, 60)),
            draw(st.integers(0, 40 * unit)))


class TestRoundDecimalWithRadius:
    """``_round_decimal`` with a radius answers only where every value within
    it rounds alike, and refuses only where a boundary or zero is that close."""

    @given(radius_cases())
    @example((10**30 + 10**13, 10**30, 2 * 10**13))  # 1 + 1e-17, down to 1 - 1e-17
    @example((-(10**30 + 10**13), 10**30, 2 * 10**13))
    @example((10**30 - 10**13, 10**30, 4 * 10**12))  # 1 - 1e-17 +- 4e-18: decided
    @example((15, 10, 0))  # an exact tie with no radius rounds half away from zero
    @settings(max_examples=500, deadline=None)
    def test_decides_exactly_where_the_ends_round_alike(self, case):
        p, q, radius = case
        found = _round_decimal(p, q, SIG_DIGITS, False, radius)
        ends = [_round_decimal(end, q, SIG_DIGITS, False) if end else None
                for end in (p - radius, p, p + radius)]
        if found:
            assert ends == [found] * 3 and (p - radius) * (p + radius) > 0
            assert _certified_digits(p, radius, q) == _render(p, q, SIG_DIGITS, False, ".0")
        else:
            wider = (p - radius - 1, p + radius + 1)
            assert 0 in (p - radius, p + radius) or wider[0] * wider[1] <= 0 or \
                len({_render(end, q, SIG_DIGITS, False, "") for end in wider}) == 2
            assert _certified_digits(p, radius, q) is None

    def test_the_lower_decade_is_a_boundary(self):
        """1 + 1e-17 and 1 - 1e-17 print differently, though both lie within
        half a unit of the 17th digit of 1.0000000000000000."""
        assert _render(10**17 + 1, 10**17, SIG_DIGITS, False, ".0") == "1.0"
        assert _render(10**17 - 1, 10**17, SIG_DIGITS, False, ".0") == "0.99999999999999999"
        assert _round_decimal(10**17 + 1, 10**17, SIG_DIGITS, False, 2) is None
        assert _round_decimal(10**17 + 1, 10**17, SIG_DIGITS, False, 1) == ("1" + "0" * 16, 0)
