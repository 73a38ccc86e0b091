"""Projection, Taylor comparators, and exact error variances.

Every exact moment and variance is held against high-precision adaptive
quadrature (>= 30 significant digits).  The half-line integrals are
truncated at x = 200: the integrands carry exp(-x) or exp(-2x), so the
dropped tail is below 200**k * exp(-200) < 1e-40 for every power used here.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache
from operator import mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import cos, exp, mp, mpf, pi, quad, sin
from mpmath.libmp import mpf_cos, mpf_mul, mpf_pi, mpf_sin, round_nearest
from refdecimal import FUNCTIONS, decimal_render, function_reference, reference

from gramkernel import approx, checks, exactscalar
from gramkernel.approx import (
    COS_PI,
    EXP_NEG,
    SIN_PI,
    TARGETS,
    ApproxPolynomial,
    MomentVector,
    TargetFunction,
    error_variance,
    eval_polynomial,
    function_moments,
    monomial_moment_vector,
    project,
    sample_grid,
    target_by_name,
    target_value,
    taylor_comparator,
    taylor_polynomial,
    variance_rows,
)
from gramkernel.exactscalar import (
    DEFAULT_PRECISION_BITS,
    SIG_DIGITS,
    PiLaurent,
    _raw_ratio,
    _render,
    _round_rational,
    decimal_str,
    eval_pilaurent,
    mpf_decimal_str,
)
from gramkernel.families import ALL_FAMILIES, LAGUERRE, LEGENDRE_EVEN, LEGENDRE_ODD, GradedMatrix
from gramkernel.kernelbuild import build_kernel

ALL_TARGETS = (SIN_PI, COS_PI, EXP_NEG)

# f(x) = x on (-1, 1), a target outside TARGETS: integral x * y**k dy = 2/(k+2)
# for odd k, and |f|^2 = 2/3.  It lies in the legendre-odd span at every size.
# Its grid, exact at every precision, is the README's custom target's.
IDENTITY = TargetFunction(
    "x", LEGENDRE_ODD, Fraction(2, 3),
    moments=lambda k_max: {k: Fraction(2, k + 2) for k in range(1, k_max + 1, 2)},
    taylor_term=lambda k: Fraction(1 if k == 0 else 0),
    grid=lambda nums, den, w: ((num, num, den) for num in nums),
)


def _grid(x):
    """One point x, a Fraction or the exact value of an mpf, in the evaluators'
    form ([num], den)."""
    num, den = x.as_integer_ratio() if isinstance(x, Fraction) else _raw_ratio(x._mpf_)
    return [num], den


@lru_cache(maxsize=None)
def _mpf_coefficients(poly, bits):
    """Each coefficient as the sum of its q_m * pi**m by mpmath at ``bits``."""
    with mp.workprec(bits):
        return [sum((mpf(q.numerator) / q.denominator * pi**m
                     for m, q in (c.items() if isinstance(c, PiLaurent) else [(0, c)])), mpf(0))
                for c in poly.coefficients]


def _mpf_poly(poly, y, bits):
    """The polynomial at an mpf y by mpmath at ``bits``: Horner on
    :func:`_mpf_coefficients`.  Independent of ``eval_polynomial``."""
    with mp.workprec(bits):
        acc, y_stride = mpf(0), y**poly.family.stride
        for c in reversed(_mpf_coefficients(poly, bits)):
            acc = acc * y_stride + c
        return acc * y**poly.family.offset


def _exact_value(poly, x: Fraction):
    """The polynomial's exact value at x, a Fraction or the exact value of an mpf."""
    return sum(_terms(poly, poly.coefficients, x), Fraction(0))


def kernel_estimate(target, n):
    kernel = build_kernel(target.natural_family, n)
    return project(kernel, function_moments(target, n))


class TestFunctionMoments:
    def test_exp_neg_first_two(self):
        m = function_moments(EXP_NEG, 2)
        assert m.entries == (PiLaurent(Fraction(1, 2)), PiLaurent(Fraction(1, 4)))

    def test_exp_neg_general_form(self):
        import math

        m = function_moments(EXP_NEG, 9)
        for i, entry in enumerate(m.entries, start=1):
            assert entry == PiLaurent(Fraction(math.factorial(i - 1), 2**i))

    def test_sin_first_moment(self):
        m = function_moments(SIN_PI, 1)
        assert m.entries == (PiLaurent({-1: 2}),)

    def test_sin_second_moment(self):
        # I_3 = 2/pi - 3*2/pi^2 * I_1 = 2/pi - 12/pi^3
        m = function_moments(SIN_PI, 2)
        assert m.entries[1] == PiLaurent({-1: 2, -3: -12})

    def test_cos_first_moments(self):
        m = function_moments(COS_PI, 2)
        assert m.entries[0] == PiLaurent()
        assert m.entries[1] == PiLaurent({-2: -4})  # J_2 = -(2/pi) I_1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            function_moments(SIN_PI, 0)

    def test_quadrature_oracle(self):
        """Trig and exponential moments match 256-bit quadrature to >= 30 digits."""
        with mp.workprec(300):
            sin_m = function_moments(SIN_PI, 8)
            for i, entry in enumerate(sin_m.entries, start=1):
                k = 2 * i - 1
                ref = quad(lambda y: y**k * sin(pi * y), [-1, 0, 1])
                got = eval_pilaurent(entry, 300)
                assert abs(got - ref) <= abs(ref) * mpf(10) ** -30

            cos_m = function_moments(COS_PI, 8)
            for i, entry in enumerate(cos_m.entries, start=2):
                # skip J_0 = 0 (quadrature returns a pure roundoff residue)
                if i == 2:
                    assert entry == PiLaurent()
                    continue
                k = 2 * (i - 2)
                ref = quad(lambda y: y**k * cos(pi * y), [-1, 0, 1])
                got = eval_pilaurent(entry, 300)
                assert abs(got - ref) <= abs(ref) * mpf(10) ** -30

            exp_m = function_moments(EXP_NEG, 8)
            for i, entry in enumerate(exp_m.entries, start=1):
                k = i - 1
                ref = quad(lambda y: y**k * exp(-2 * y), [0, 50, 200])
                got = eval_pilaurent(entry, 300)
                assert abs(got - ref) <= abs(ref) * mpf(10) ** -30


class TestProject:
    def test_constant_projection(self):
        est = kernel_estimate(EXP_NEG, 1)
        assert est.coefficients == (PiLaurent(Fraction(1, 2)),)

    def test_two_term_projection(self):
        est = kernel_estimate(EXP_NEG, 2)
        assert est.coefficients == (
            PiLaurent(Fraction(3, 4)),
            PiLaurent(Fraction(-1, 4)),
        )

    def test_eight_term_projection_coefficients(self):
        est = kernel_estimate(EXP_NEG, 8)
        want = [
            Fraction(255, 256),
            Fraction(-247, 256),
            Fraction(219, 512),
            Fraction(-163, 1536),
            Fraction(31, 2048),
            Fraction(-37, 30720),
            Fraction(1, 20480),
            Fraction(-1, 1290240),
        ]
        assert list(est.coefficients) == want
        assert all(type(c) is Fraction for c in est.coefficients)

    def test_family_mismatch_rejected(self):
        kernel = build_kernel(LEGENDRE_EVEN, 2)
        with pytest.raises(ValueError):
            project(kernel, function_moments(SIN_PI, 2))

    def test_size_mismatch_rejected(self):
        kernel = build_kernel(LAGUERRE, 3)
        with pytest.raises(ValueError):
            project(kernel, function_moments(EXP_NEG, 2))

    def test_uncancelled_grade_rejected(self):
        from gramkernel.families import HERMITE_EVEN

        kernel = build_kernel(HERMITE_EVEN, 2)
        moments = monomial_moment_vector(HERMITE_EVEN, 2, 0)
        project(kernel, moments)  # grades -1 and +1 cancel
        with pytest.raises(ValueError):
            project(kernel.replace(sqrtpi_power=0), moments)


def _summed_projection(kernel, moments):
    """c = B m as one exact sum per row, the reference for :func:`project`."""
    return tuple(sum(map(mul, moments.entries, row), 0) for row in kernel.entries)


def _assert_projects_like_sums(kernel, moments):
    got, want = project(kernel, moments).coefficients, _summed_projection(kernel, moments)
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


rationals = st.one_of(st.just(Fraction(0)), st.fractions(-20, 20, max_denominator=30))
# a zero, and sparse sums over negative and non-adjacent pi exponents
pi_laurents = st.one_of(
    st.just(PiLaurent(0)),
    st.dictionaries(st.integers(-9, 5), rationals, max_size=4).map(PiLaurent),
)


@st.composite
def kernels_and_moments(draw):
    """A random rational kernel and moment vector, Fraction-only or mixed."""
    family, n = draw(st.sampled_from(ALL_FAMILIES)), draw(st.integers(1, 6))
    entries = tuple(tuple(draw(rationals) for _ in range(n)) for _ in range(n))
    kernel = GradedMatrix.of(family, entries, -family.moment_grade)
    scalars = draw(st.sampled_from((rationals, st.one_of(rationals, pi_laurents), pi_laurents)))
    return kernel, MomentVector(family, tuple(draw(scalars) for _ in range(n)))


class TestProjectMatchesFractionSums:
    """The cleared integer product equals the exact sums in value and type."""

    @given(kernels_and_moments())
    @settings(max_examples=200, deadline=None)
    def test_random_kernels_and_moments(self, case):
        _assert_projects_like_sums(*case)

    @given(kernels_and_moments(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_replaced_entries_are_cleared_afresh(self, case, data):
        """A kernel replaced with other integers over another denominator,
        of either sign, is reduced afresh and projects with its own entries."""
        kernel, moments = case
        project(kernel, moments)
        ints = tuple(tuple(data.draw(st.integers(-60, 60)) for _ in range(kernel.n))
                     for _ in range(kernel.n))
        den = data.draw(st.integers(-30, 30).filter(bool))
        replaced = kernel.replace(ints=ints, den=den)
        assert replaced.entries == tuple(tuple(Fraction(a, den) for a in row) for row in ints)
        _assert_projects_like_sums(replaced, moments)

    @pytest.mark.parametrize("target", ALL_TARGETS, ids=lambda t: t.name)
    def test_built_in_targets(self, target):
        for n in range(1, 31):
            kernel = build_kernel(target.natural_family, n)
            _assert_projects_like_sums(kernel, function_moments(target, n))


# integer rows over a positive denominator, which need not be the rows' lowest
def integer_rows(max_len):
    return st.lists(st.tuples(st.lists(st.integers(-60, 60), max_size=max_len),
                              st.integers(1, 30)), max_size=4)


def _row_sums(rows, values):
    return [sum((Fraction(a, d) * v for a, v in zip(ints, values)), Fraction(0))
            for ints, d in rows]


@st.composite
def rows_and_values(draw):
    """Integer rows (over their denominators) of any length up to one past
    the values, and values that are Fraction-only, mixed or PiLaurent-only."""
    n = draw(st.integers(0, 6))
    scalars = draw(st.sampled_from((rationals, st.one_of(rationals, pi_laurents), pi_laurents)))
    return draw(integer_rows(n + 1)), [draw(scalars) for _ in range(n)]


class TestClearedDots:
    @given(rows_and_values())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_exact_sums_in_value_and_type(self, case):
        """Each row's result is the sum of its products with the values it
        reads: a Fraction exactly when none of them is a PiLaurent."""
        rows, values = case
        got = approx._dots(rows, values)
        want = _row_sums(rows, values)
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_rational_values_equal_the_pi_exponent_path(self, data):
        """On values free of PiLaurents (Fractions and ints, zeros and mixed
        denominators), with rows as long as the values or shorter, the
        cleared-once path returns what the pi-exponent path returns when a
        PiLaurent no row reads is appended: equal values, all Fractions."""
        values = data.draw(st.lists(st.one_of(rationals, st.integers(-9, 9)), max_size=6))
        rows = data.draw(integer_rows(len(values)))
        got = approx._dots(rows, values)
        want = approx._dots(rows, values + [PiLaurent({1: 1})])
        assert got == want == _row_sums(rows, values)
        assert all(type(v) is Fraction for v in got + want)


class TestTaylorPolynomial:
    def test_exp_eight_terms(self):
        import math

        tay = taylor_polynomial(EXP_NEG, 8)
        want = [Fraction((-1) ** k, math.factorial(k)) for k in range(8)]
        assert list(tay.coefficients) == want
        assert all(type(c) is Fraction for c in tay.coefficients)
        assert tay.family is LAGUERRE

    def test_sin_single_term(self):
        tay = taylor_polynomial(SIN_PI, 1)
        assert tay.coefficients == (PiLaurent({1: 1}),)  # pi * x
        assert tay.family is LEGENDRE_ODD

    def test_cos_two_terms(self):
        tay = taylor_polynomial(COS_PI, 2)
        assert tay.coefficients == (
            PiLaurent(1),
            PiLaurent({2: Fraction(-1, 2)}),
        )
        assert tay.family is LEGENDRE_EVEN


class TestTaylorComparator:
    def test_sin_keeps_size_terms(self):
        assert len(taylor_comparator(SIN_PI, 4).coefficients) == 4

    def test_exp_keeps_size_terms(self):
        assert len(taylor_comparator(EXP_NEG, 4).coefficients) == 4

    def test_cos_runs_through_degree_two_size(self):
        # even series cut after x**(2*size): one extra term
        comp = taylor_comparator(COS_PI, 2)
        assert len(comp.coefficients) == 3
        assert comp.coefficients[2] == PiLaurent({4: Fraction(1, 24)})


class TestErrorVariance:
    def test_exp_kernel_size_two(self):
        var = error_variance(EXP_NEG, kernel_estimate(EXP_NEG, 2))
        assert var == PiLaurent(Fraction(1, 48))

    def test_exp_taylor_size_two(self):
        var = error_variance(EXP_NEG, taylor_comparator(EXP_NEG, 2))
        assert var == PiLaurent(Fraction(5, 6))

    def test_exp_kernel_size_one(self):
        # 1/3 - (1/2)^2
        var = error_variance(EXP_NEG, kernel_estimate(EXP_NEG, 1))
        assert var == PiLaurent(Fraction(1, 12))

    def test_exp_variances_are_pure_rationals(self):
        for n in range(1, 9):
            for poly in (kernel_estimate(EXP_NEG, n), taylor_comparator(EXP_NEG, n)):
                var = error_variance(EXP_NEG, poly)
                assert type(var) is Fraction

    def test_family_mismatch_rejected(self):
        with pytest.raises(ValueError):
            error_variance(SIN_PI, kernel_estimate(EXP_NEG, 2))

    @pytest.mark.parametrize("target", ALL_TARGETS, ids=lambda t: t.name)
    def test_kernel_variance_equals_reduced_form(self, target):
        """General formula collapses to |f|^2 - m^T B m for kernel estimates."""
        for n in (1, 2, 4):
            kernel = build_kernel(target.natural_family, n)
            moments = function_moments(target, n)
            var = error_variance(target, project(kernel, moments))
            mbm = PiLaurent()
            for i in range(n):
                for j in range(n):
                    mbm = mbm + moments.entries[i] * moments.entries[j] * kernel.entries[i][j]
            assert var == target.squared_integral - mbm

    @pytest.mark.parametrize("target", ALL_TARGETS, ids=lambda t: t.name)
    def test_positive(self, target):
        for n in range(1, 9):
            var = error_variance(target, kernel_estimate(target, n))
            assert bool(var)
            assert eval_pilaurent(var, 256) > 0
            var_t = error_variance(target, taylor_comparator(target, n))
            assert eval_pilaurent(var_t, 256) > 0

    @pytest.mark.parametrize("target", ALL_TARGETS, ids=lambda t: t.name)
    def test_kernel_variance_strictly_improves(self, target):
        nums = [eval_pilaurent(error_variance(target, kernel_estimate(target, n)), 256)
                for n in range(1, 9)]
        assert all(b < a for a, b in zip(nums, nums[1:]))

    @pytest.mark.parametrize("target", ALL_TARGETS, ids=lambda t: t.name)
    def test_projection_is_optimal_under_perturbation(self, target):
        """Any single-coefficient nudge of +/- 1/1000 strictly hurts."""
        n = 4
        est = kernel_estimate(target, n)
        base = error_variance(target, est)
        base_num = eval_pilaurent(base, 320)
        rng = random.Random(55001)
        for _ in range(20):
            idx = rng.randrange(n)
            sign = rng.choice((1, -1))
            bumped = list(est.coefficients)
            bumped[idx] = bumped[idx] + PiLaurent(Fraction(sign, 1000))
            poly = ApproxPolynomial(est.family, tuple(bumped))
            worse = error_variance(target, poly)
            assert eval_pilaurent(worse, 320) > base_num

    def test_quadrature_oracle(self):
        """Exact variances match 300-bit quadrature of the residual."""
        with mp.workprec(300):
            cases = [
                (SIN_PI, kernel_estimate(SIN_PI, 3), [-1, 0, 1],
                 lambda y: sin(pi * y)),
                (SIN_PI, taylor_comparator(SIN_PI, 2), [-1, 0, 1],
                 lambda y: sin(pi * y)),
                (COS_PI, taylor_comparator(COS_PI, 2), [-1, 0, 1],
                 lambda y: cos(pi * y)),
                (COS_PI, kernel_estimate(COS_PI, 3), [-1, 0, 1],
                 lambda y: cos(pi * y)),
                (EXP_NEG, taylor_comparator(EXP_NEG, 3), [0, 50, 200],
                 lambda y: exp(-y)),
                (EXP_NEG, kernel_estimate(EXP_NEG, 3), [0, 50, 200],
                 lambda y: exp(-y)),
            ]
            for target, poly, interval, f in cases:
                var = error_variance(target, poly)
                got = eval_pilaurent(var, 300)
                weight = (lambda y: exp(-y)) if target is EXP_NEG else (lambda y: mpf(1))
                ref = quad(lambda y: (f(y) - _mpf_poly(poly, y, 320)) ** 2 * weight(y), interval)
                assert abs(got - ref) <= abs(ref) * mpf(10) ** -30


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("n", range(1, 9))
def test_reproducing_property(family, n):
    """Projecting an in-span monomial returns exactly that monomial."""
    kernel = build_kernel(family, n)
    for k in range(1, n + 1):
        moments = monomial_moment_vector(family, n, family.basis_power(k))
        est = project(kernel, moments)
        for i, c in enumerate(est.coefficients, start=1):
            assert c == PiLaurent(1 if i == k else 0)


class TestEvalPolynomial:
    def test_taylor_at_zero(self):
        tay = taylor_comparator(EXP_NEG, 8)
        assert eval_polynomial(tay, [0], 1) == ["1.0"]

    def test_estimate_at_zero(self):
        est = kernel_estimate(EXP_NEG, 8)
        assert eval_polynomial(est, [0], 1) == ["0.99609375"]  # 255/256, exactly

    def test_odd_polynomial_at_zero(self):
        """Exactly 0, which no enclosure of a pi-Laurent value decides."""
        est = kernel_estimate(SIN_PI, 3)
        assert eval_polynomial(est, [0, 1], 1)[0] == "0.0"

    def test_estimate_at_one_matches_coefficient_sum(self):
        est = kernel_estimate(EXP_NEG, 8)
        assert eval_polynomial(est, [1], 1) == [reference(sum(est.coefficients, Fraction(0)))]

    def test_sin_estimate_tracks_function(self):
        """Each value is the oracle's decimal of the exact estimate, within
        1e-6 of sin(pi x)."""
        est = kernel_estimate(SIN_PI, 6)
        for num, value in zip((1, 2, 3), eval_polynomial(est, [1, 2, 3], 4)):
            x = Fraction(num, 4)
            assert value == reference(_exact_value(est, x))
            f = Fraction(function_reference("sin-pi", x))
            assert abs(Fraction(value) - f) < Fraction(1, 10**6)


@lru_cache(maxsize=None)
def _poly(target, n, kind):
    return kernel_estimate(target, n) if kind == "estimate" else taylor_comparator(target, n)


def _exact(v: mpf) -> Fraction:
    m, e = v.man_exp  # of |v|
    return int(mp.sign(v)) * Fraction(m) * Fraction(2) ** e


def _terms(poly, coefficients, x) -> list[Fraction]:
    """The exact terms ``c_k x**p_k`` at the exact value of x."""
    xq = x if isinstance(x, Fraction) else _exact(x)
    return [c * xq ** poly.family.basis_power(k) for k, c in enumerate(coefficients, start=1)]


@st.composite
def polynomial_points(draw, targets=ALL_TARGETS):
    """A target's estimate or Taylor comparator, and an x in the target's
    window (a Fraction, or an mpf of 53-400 bits)."""
    target = draw(st.sampled_from(targets))
    poly = _poly(target, draw(st.integers(1, 14)), draw(st.sampled_from(("estimate", "taylor"))))
    lo, hi = (0, 12) if target is EXP_NEG else (-1, 1)
    x = draw(st.fractions(lo, hi, max_denominator=10**9))
    if draw(st.booleans()):
        with mp.workprec(draw(st.integers(53, 400))):
            x = mpf(x.numerator) / x.denominator
    return poly, x


class TestEvalPolynomialIsExact:
    """Every value is the polynomial's exact value at x correctly rounded to
    17 significant digits."""

    @given(polynomial_points(targets=(SIN_PI, COS_PI)))
    @settings(max_examples=150, deadline=None)
    def test_pi_laurent_values_are_the_oracles(self, case):
        poly, x = case
        assert eval_polynomial(poly, *_grid(x)) == [reference(_exact_value(poly, x))]

    def test_a_rational_value_is_rounded_from_its_exact_value(self):
        """pi x - pi x**3 is 0 at x = 1, where no enclosure decides a sign,
        and 1.00000000000000005 + pi x**2 - pi x**4 is that decimal tie at
        x = 1: past the precision cap each is rounded from its exact value,
        the tie half away from zero.  At x = 1/2 both are transcendental."""
        zero = ApproxPolynomial(LEGENDRE_ODD, (PiLaurent({1: 1}), PiLaurent({1: -1})))
        tie = ApproxPolynomial(LEGENDRE_EVEN, (
            PiLaurent(Fraction(100000000000000005, 10**17)), PiLaurent({1: 1}), PiLaurent({1: -1})))
        for poly, text in ((zero, "0.0"), (tie, "1.0000000000000001")):
            assert eval_polynomial(poly, [1, 2], 2) == [
                reference(_exact_value(poly, Fraction(1, 2))), text]

    @given(polynomial_points(targets=(EXP_NEG,)))
    @settings(max_examples=150, deadline=None)
    def test_rational_coefficients_round_like_the_exact_value(self, case):
        """Fraction coefficients are not rounded at all: the value is the
        exact value of the polynomial at x, rendered."""
        poly, x = case
        assert eval_polynomial(poly, *_grid(x)) == [reference(_exact_value(poly, x))]

    @pytest.mark.parametrize("x", [mpf("inf"), mpf("-inf"), mpf("nan"), float("inf")], ids=str)
    def test_non_finite_x_raises(self, x):
        """A non-finite x has no (num, den) to evaluate at: reading it raises."""
        with pytest.raises(ValueError, match="non-finite"):
            eval_polynomial(taylor_comparator(EXP_NEG, 3), *_grid(mpf(x)))


# The per-sample reference for plotdata's columns.  A value is computed by
# mpmath at 1024 and at 1280 bits and its decimal taken where both render
# alike by ``decimal`` (the refdecimal oracle's rule, at lower precisions), else from the
# refdecimal oracle itself; exp-neg's polynomial values are exact Fractions.
# At an exact zero of sin or cos, f is the float mp.sin(mp.pi * x) or
# mp.cos(mp.pi * x) at ``DEFAULT_PRECISION_BITS``.
REFERENCE_F = {"sin-pi": lambda x: mp.sin(mp.pi * x), "cos-pi": lambda x: mp.cos(mp.pi * x)}


def _agreed_decimal(evaluate, oracle):
    texts = set()
    for bits in (1024, 1280):
        with mp.workprec(bits):
            sign, man, exp, _ = evaluate()._mpf_
        texts.add(decimal_render((-1) ** sign * man << max(exp, 0), 1 << max(-exp, 0),
                                 SIG_DIGITS, False, ".0"))
    return texts.pop() if len(texts) == 1 else oracle()


def _poly_reference(poly, x: Fraction) -> str:
    if all(isinstance(c, Fraction) for c in poly.coefficients):
        return reference(_exact_value(poly, x))
    return _agreed_decimal(lambda: _mpf_poly(poly, mpf(x.numerator) / x.denominator, mp.prec),
                           lambda: reference(_exact_value(poly, x)))


def _is_zero(target, x: Fraction) -> bool:
    return x.denominator == {"sin-pi": 1, "cos-pi": 2}.get(target.name)


def _f_reference(target, x: Fraction) -> str:
    if _is_zero(target, x):
        with mp.workprec(DEFAULT_PRECISION_BITS):
            return mpf_decimal_str(REFERENCE_F[target.name](mpf(x.numerator) / x.denominator))
    return _agreed_decimal(lambda: FUNCTIONS[target.name](mpf(x.numerator) / x.denominator),
                           lambda: function_reference(target.name, x))


@st.composite
def window_ends(draw, magnitudes=(1, 3, 20)):
    """A window end: integer, or with a denominator up to 10**29."""
    den = draw(st.sampled_from((1, 7, 100, 10**6, 10**29)) | st.integers(1, 10**29))
    bound = draw(st.sampled_from(magnitudes)) * den
    return Fraction(draw(st.integers(-bound, bound)), den)


@st.composite
def plot_windows(draw):
    xmin, xmax = draw(window_ends()), draw(window_ends())
    assume(xmin != xmax)
    return min(xmin, xmax), max(xmin, xmax), draw(st.integers(2, 257))


class TestPlotGrid:
    """plotdata's one integer grid: every sample a numerator over one shared
    denominator, evaluated with no Fraction or mpmath wrapper per sample."""

    @given(st.sampled_from(ALL_TARGETS), st.integers(1, 20), plot_windows())
    @settings(max_examples=80, deadline=None)
    def test_columns_equal_the_per_sample_reference(self, target, size, window):
        """Every polynomial value is its exact value at x, correctly rounded
        where it holds pi, and every f decimal is f(x) correctly rounded,
        but for the float noise of 256 bits at an exact zero of sin or cos."""
        xmin, xmax, samples = window
        nums, den = sample_grid(xmin, xmax, samples)
        xs = [Fraction(num, den) for num in nums]
        for kind in ("estimate", "taylor"):
            poly = _poly(target, size, kind)
            assert eval_polynomial(poly, nums, den) == [_poly_reference(poly, x) for x in xs]
        assert target_value(target, nums, den) == [_f_reference(target, x) for x in xs]

    @given(plot_windows())
    @settings(max_examples=150, deadline=None)
    def test_grid_runs_from_xmin_to_xmax(self, window):
        xmin, xmax, samples = window
        nums, den = sample_grid(xmin, xmax, samples)
        assert len(nums) == samples and den > 0
        assert Fraction(nums[0], den) == xmin and Fraction(nums[-1], den) == xmax
        step = (xmax - xmin) / (samples - 1)
        for i in (1, samples // 2, samples - 2):
            assert Fraction(nums[i], den) == xmin + i * step

    @given(window_ends(magnitudes=(1, 10**6)), st.integers(1, 10**40))
    @example(Fraction(100000000000000005, 10**20), 3)  # 17-digit ties, to even: down
    @example(Fraction(-123456789012345625, 10**20), 10**30 + 1)
    @example(Fraction(100000000000000015, 10**20), 7)  # up
    @example(Fraction(999999999999999995, 10**20), 1)  # up, carrying into a new digit
    @settings(max_examples=200, deadline=None)
    def test_unreduced_x_renders_as_the_reduced_fraction(self, x, k):
        num, den = x.as_integer_ratio()
        assert _render(num * k, den * k, SIG_DIGITS, True, "") == decimal_str(x)


def _enclosure_faults(target, nums, den, enclosures) -> list[tuple[int, str]]:
    """(i, fault) for every sample whose enclosure (lo, hi, q) misses f(x) by
    mpmath at 4096 bits, or is wider than the proof in ``approx`` allows: with
    W = 128 + the bit length of the sample count and at most 40 series terms
    (for W <= 160), a trig value is within R_i <= 229 (i + 1) units of
    2**-W, and exp(-x) within 16 (i + 1) units of a mantissa of W bits, so of
    2**(7-W) (i + 1) lo relative to lo."""
    w = 128 + len(nums).bit_length()
    out = []
    for i, (num, (lo, hi, q)) in enumerate(zip(nums, enclosures)):
        with mp.workprec(4096):
            value = _exact(FUNCTIONS[target.name](mpf(num) / den))
        if not Fraction(lo, q) <= value <= Fraction(hi, q):
            out.append((i, "misses f"))
        if (hi - lo) * (1 << w) > (i + 1) * (229 * 2 * q if target is not EXP_NEG else lo << 7):
            out.append((i, "wider than proved"))
    return out


@st.composite
def enclosure_windows(draw):
    """A target, and a window with end denominators up to 10**6 and 2-600 samples."""
    target = draw(st.sampled_from(ALL_TARGETS))
    bound = draw(st.sampled_from((1, 20, 10**6)))
    ends = [Fraction(draw(st.integers(-bound * den, bound * den)), den)
            for den in (draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6)))]
    assume(ends[0] != ends[1])
    return target, min(ends), max(ends), draw(st.integers(2, 600))


class TestGridEnclosures:
    """``target.grid`` brackets f at every sample within its proved width."""

    @given(enclosure_windows())
    @example((COS_PI, Fraction(-1, 2), Fraction(1, 2), 512))  # the benchmark's exact zeros
    @example((EXP_NEG, Fraction(-10**6), Fraction(-999999), 100))  # e**(10**6) and on
    @example((EXP_NEG, Fraction(999999), Fraction(10**6), 2))
    @settings(max_examples=30, deadline=None)
    def test_each_enclosure_holds_f_within_its_proved_width(self, case):
        target, xmin, xmax, samples = case
        nums, den = sample_grid(xmin, xmax, samples)
        assert _enclosure_faults(target, nums, den, target.grid(nums, den, 128)) == []

    @pytest.mark.parametrize("target", ALL_TARGETS, ids=lambda t: t.name)
    def test_an_enclosure_narrowed_or_widened_by_one_unit_fails(self, target):
        """Negative control of the check: one end moved one unit past f(x),
        or the width one unit over the proved bound, is reported."""
        nums, den = sample_grid(Fraction(-7, 3), Fraction(5, 2), 9)
        good = list(target.grid(nums, den, 128))
        lo, hi, q = good[4]
        with mp.workprec(4096):
            scaled = _exact(FUNCTIONS[target.name](mpf(nums[4]) / den)) * q
        w = 128 + len(nums).bit_length()
        bound = 5 * (229 * 2 * q if target is not EXP_NEG else lo << 7) >> w
        for bad, fault in (((math.floor(scaled) + 1, hi, q), "misses f"),
                           ((lo, math.ceil(scaled) - 1, q), "misses f"),
                           ((hi - bound - 1, hi, q), "wider than proved")):
            assert (4, fault) in _enclosure_faults(target, nums, den, good[:4] + [bad] + good[5:])


class TestValuesOffTheGrid:
    """f where the grid's enclosure decides no decimal: refined at one x, or
    at an exact zero of sin or cos, the float a float evaluation returns."""

    @pytest.mark.parametrize("bits", (128, 200, 256, 300, 333, 512))
    def test_an_exact_zero_prints_the_float_of_a_float_evaluation(self, bits):
        """At each zero 0 < |x| <= 20 the residue, signed by g'(pi x), prints
        as libmp's p-bit sin or cos of y = round(round(pi) x) does, and is
        sin(y - pi x) correctly rounded, by mpmath at 4096 bits; at 256 bits
        it is the decimal ``target_value`` prints."""
        for target, g in ((SIN_PI, mpf_sin), (COS_PI, mpf_cos)):
            phase, slope = target.zero
            for k in range(-20, 21):
                x = phase + k
                if not x:
                    continue
                num, den = x.as_integer_ratio()
                y = mpf_mul(mpf_pi(bits, round_nearest), _round_rational(num, den, bits), bits,
                            round_nearest)
                want = mpf_decimal_str(mp.make_mpf(g(y, bits, round_nearest)))
                n, q = approx._float_residue(x, bits)
                assert _render(slope * (-1) ** (k & 1) * n, q, SIG_DIGITS, False, ".0") == want
                if bits == DEFAULT_PRECISION_BITS:
                    assert target_value(target, range(num, num + 1), den) == [want]
                with mp.workprec(4096):
                    residue = mp.sin(mp.make_mpf(y) - mp.pi * num / den)
                with mp.workprec(bits):
                    assert Fraction(n, q) == _exact(+residue)

    @given(st.sampled_from(ALL_TARGETS), window_ends(magnitudes=(1, 20)), window_ends(),
           st.integers(2, 9))
    @settings(max_examples=30, deadline=None)
    def test_samples_the_grid_leaves_open_are_refined(self, target, xmin, xmax, samples):
        """With every enclosure of a grid of two or more samples widened to
        [-2**200, 2**200], each f decimal comes from the grid of its x alone,
        refined in Ziv's loop, and is still the reference's."""
        assume(xmin != xmax)
        xmin, xmax = min(xmin, xmax), max(xmin, xmax)

        def wide_grid(nums, den, w):
            if len(nums) == 1:
                return target.grid(nums, den, w)
            return ((-1 << 200, 1 << 200, 1) for _ in nums)

        wide = target.replace(grid=wide_grid)
        nums, den = sample_grid(xmin, xmax, samples)
        assert target_value(wide, nums, den) == [_f_reference(target, Fraction(num, den))
                                                 for num in nums]


    @pytest.mark.parametrize("target", ALL_TARGETS, ids=lambda t: t.name)
    @pytest.mark.parametrize("w", (256, 384, 576, 2048))
    def test_the_grid_of_one_x_holds_f_and_narrows_with_w(self, target, w):
        """The one route that refines f at one x: the grid of that x alone
        at w bits holds f(x), by mpmath at 4096 bits, within a width below
        1531 units of 2**-w (relative to lo for exp-neg), so Ziv's loop,
        which raises w, ends.  The bound is the proofs' in ``approx``: one
        trig sample at W = w + 1 bits is within 5K + 26 units of 2**-W, K
        the series terms, and K <= 301 as 301! > 2**2049; exp-neg's width
        is 8a units of its W-bit mantissa, a below 6."""
        for x in (Fraction(0), Fraction(1, 3), Fraction(-7, 2), Fraction(20), Fraction(-20),
                  Fraction(199, 10), Fraction(-123457, 10**6), Fraction(1, 10**30 + 1),
                  Fraction(-10**29 + 1, 10**28)):
            a, b = x.as_integer_ratio()
            lo, hi, q = next(target.grid(range(a, a + 1), b, w))
            with mp.workprec(4096):
                value = _exact(FUNCTIONS[target.name](mpf(a) / b))
            assert Fraction(lo, q) <= value <= Fraction(hi, q), x
            assert (hi - lo) << w < 1531 * (lo if target is EXP_NEG else q), x

    def test_the_readme_grid_only_record_prints_x(self):
        """The README's custom target has a grid and no other rule for f.
        At x = 0 zero lies in its exact enclosure, so the grid of x alone
        decides it: ``0.0``; every other x prints its own decimal."""
        nums, den = sample_grid(Fraction(-1), Fraction(1), 9)
        got = target_value(IDENTITY, nums, den)
        assert got[4] == "0.0"
        assert got == [reference(Fraction(num, den)) for num in nums]


class TestTargets:
    def test_registry(self):
        assert set(TARGETS) == {"sin-pi", "cos-pi", "exp-neg"}
        assert target_by_name("exp-neg") is EXP_NEG
        with pytest.raises(ValueError):
            target_by_name("tan-pi")

    def test_natural_families(self):
        assert SIN_PI.natural_family is LEGENDRE_ODD
        assert COS_PI.natural_family is LEGENDRE_EVEN
        assert EXP_NEG.natural_family is LAGUERRE

    def test_squared_integrals(self):
        # int_-1^1 sin^2(pi x) = int_-1^1 cos^2(pi x) = 1; int_0^inf e^-3x = 1/3
        assert SIN_PI.squared_integral == PiLaurent(1)
        assert COS_PI.squared_integral == PiLaurent(1)
        assert EXP_NEG.squared_integral == PiLaurent(Fraction(1, 3))
        with mp.workprec(256):
            ref = quad(lambda y: sin(pi * y) ** 2, [-1, 0, 1])
            assert abs(ref - 1) < mpf(10) ** -40
            ref = quad(lambda y: exp(-y) ** 2 * exp(-y), [0, 50, 200])
            assert abs(ref - mpf(1) / 3) < mpf(10) ** -40

    def test_target_values(self):
        assert target_value(EXP_NEG, range(1), 1) == ["1.0"]
        assert target_value(SIN_PI, range(1, 2), 2) == ["1.0"]
        assert target_value(COS_PI, range(1, 2), 1) == ["-1.0"]
        assert target_value(EXP_NEG, range(-3, 4, 3), 1) == [
            "20.085536923187668", "1.0", "0.049787068367863943"]


class TestVarianceRows:
    """variance_rows (Bessel's identity, prefix Taylor form) against the
    general quadratic form evaluated from scratch at every size."""

    @pytest.mark.parametrize("target", ALL_TARGETS + (IDENTITY,), ids=lambda t: t.name)
    def test_rows_equal_error_variance_at_every_size(self, target):
        rows = variance_rows(target, 14)
        assert len(rows) == 14
        for n, (taylor_var, estimate_var) in enumerate(rows, start=1):
            assert taylor_var == error_variance(target, taylor_comparator(target, n))
            assert estimate_var == error_variance(target, kernel_estimate(target, n))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            variance_rows(EXP_NEG, 0)


class TestRationalsStayFractions:
    """A value without pi is a Fraction: no PiLaurent is built on its way."""

    @pytest.fixture
    def constructions(self, monkeypatch):
        """Counts every PiLaurent made: the constructor and every arithmetic
        result go through the one normalising step, ``exactscalar._reduced``."""
        count = [0]

        def counted(*args, _reduced=exactscalar._reduced):
            count[0] += 1
            return _reduced(*args)

        monkeypatch.setattr(exactscalar, "_reduced", counted)
        return count

    def test_counter_sees_pi_values(self, constructions):
        variance_rows(SIN_PI, 2)
        assert constructions[0] > 0

    def test_counter_sees_arithmetic_results(self, constructions):
        a = PiLaurent.pi_power(1, Fraction(1, 3))
        for op in (lambda: a + a, lambda: a * a, lambda: -a, lambda: a - 1, lambda: 1 - a,
                   lambda: 2 * a, lambda: a + Fraction(1, 2)):
            before = constructions[0]
            op()
            assert constructions[0] > before

    def test_check_reproducing(self, monkeypatch, constructions):
        coefficients = []

        def recorded(*args, _project=checks.project):
            estimate = _project(*args)
            coefficients.extend(estimate.coefficients)
            return estimate

        monkeypatch.setattr(checks, "project", recorded)
        for family in ALL_FAMILIES:
            assert not checks.check_reproducing(checks.build_artefacts(family, 4))
        assert len(coefficients) == len(ALL_FAMILIES) * 4 * 4
        assert all(type(c) is Fraction for c in coefficients)
        assert constructions[0] == 0

    def test_project(self, constructions):
        est = project(build_kernel(LAGUERRE, 8), function_moments(EXP_NEG, 8))
        assert all(type(c) is Fraction for c in est.coefficients)
        assert constructions[0] == 0

    def test_variance_rows(self, constructions):
        rows = variance_rows(EXP_NEG, 8)
        assert all(type(v) is Fraction for pair in rows for v in pair)
        assert constructions[0] == 0

    def test_cos_pi_size_one_variance(self):
        # J_0 = 0 carries no pi, so the size-1 estimate variance is |f|^2 = 1
        estimate_variance = variance_rows(COS_PI, 1)[0][1]
        assert type(estimate_variance) is Fraction and estimate_variance == 1

    def test_cos_pi_size_one_project(self):
        estimate = project(build_kernel(LEGENDRE_EVEN, 1), function_moments(COS_PI, 1))
        assert estimate.coefficients == (0,)
        assert type(estimate.coefficients[0]) is Fraction


class TestTargetRecord:
    def test_new_target_is_one_record(self):
        assert IDENTITY.name not in TARGETS
        for n in range(1, 7):
            estimate = kernel_estimate(IDENTITY, n)
            assert estimate.coefficients == tuple(PiLaurent(int(k == 0)) for k in range(n))
            var = error_variance(IDENTITY, estimate)
            assert var == PiLaurent(0) and eval_pilaurent(var, 256) == 0
            tay_var = error_variance(IDENTITY, taylor_comparator(IDENTITY, n))
            assert tay_var == PiLaurent(0)
        assert target_value(IDENTITY, range(1, 2), 4) == ["0.25"]
