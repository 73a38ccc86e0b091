"""Projection, Taylor comparators, and exact error variances.

Every exact moment and variance is held against high-precision adaptive
quadrature (>= 30 significant digits).  The half-line integrals are
truncated at x = 200: the integrands carry exp(-x) or exp(-2x), so the
dropped tail is below 200**k * exp(-200) < 1e-40 for every power used here.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import cos, exp, mp, mpf, pi, quad, sin
from mpmath.libmp import from_rational, round_nearest

from gramkernel import checks, exactscalar
from gramkernel.approx import (
    COS_PI,
    EXP_NEG,
    SIN_PI,
    TARGETS,
    ApproxPolynomial,
    TargetFunction,
    error_variance,
    eval_polynomial,
    function_moments,
    monomial_moment_vector,
    project,
    target_by_name,
    target_value,
    taylor_comparator,
    taylor_polynomial,
    variance_rows,
)
from gramkernel.exactscalar import PiLaurent, eval_pilaurent
from gramkernel.families import ALL_FAMILIES, LAGUERRE, LEGENDRE_EVEN, LEGENDRE_ODD
from gramkernel.kernelbuild import build_kernel

ALL_TARGETS = (SIN_PI, COS_PI, EXP_NEG)

# f(x) = x on (-1, 1), a target outside TARGETS: integral x * y**k dy = 2/(k+2)
# for odd k, and |f|^2 = 2/3.  It lies in the legendre-odd span at every size.
IDENTITY = TargetFunction(
    "x", LEGENDRE_ODD, Fraction(2, 3),
    moments=lambda k_max: {k: Fraction(2, k + 2) for k in range(1, k_max + 1, 2)},
    taylor_term=lambda k: Fraction(1 if k == 0 else 0),
    value=lambda x: x,
)


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
        from dataclasses import replace

        from gramkernel.families import HERMITE_EVEN

        kernel = build_kernel(HERMITE_EVEN, 2)
        moments = monomial_moment_vector(HERMITE_EVEN, 2, 0)
        project(kernel, moments)  # grades -1 and +1 cancel
        with pytest.raises(ValueError):
            project(replace(kernel, sqrtpi_power=0), moments)


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
        var, _ = error_variance(EXP_NEG, kernel_estimate(EXP_NEG, 2))
        assert var == PiLaurent(Fraction(1, 48))

    def test_exp_taylor_size_two(self):
        var, _ = error_variance(EXP_NEG, taylor_comparator(EXP_NEG, 2))
        assert var == PiLaurent(Fraction(5, 6))

    def test_exp_kernel_size_one(self):
        # 1/3 - (1/2)^2
        var, _ = error_variance(EXP_NEG, kernel_estimate(EXP_NEG, 1))
        assert var == PiLaurent(Fraction(1, 12))

    def test_exp_variances_are_pure_rationals(self):
        for n in range(1, 9):
            for poly in (kernel_estimate(EXP_NEG, n), taylor_comparator(EXP_NEG, n)):
                var, _ = error_variance(EXP_NEG, poly)
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
            var, _ = error_variance(target, project(kernel, moments))
            mbm = PiLaurent()
            for i in range(n):
                for j in range(n):
                    mbm = mbm + moments.entries[i] * moments.entries[j] * kernel.entries[i][j]
            assert var == target.squared_integral - mbm

    @pytest.mark.parametrize("target", ALL_TARGETS, ids=lambda t: t.name)
    def test_positive(self, target):
        for n in range(1, 9):
            var, num = error_variance(target, kernel_estimate(target, n))
            assert bool(var)
            assert num > 0
            var_t, num_t = error_variance(target, taylor_comparator(target, n))
            assert num_t > 0

    @pytest.mark.parametrize("target", ALL_TARGETS, ids=lambda t: t.name)
    def test_kernel_variance_strictly_improves(self, target):
        nums = [error_variance(target, kernel_estimate(target, n))[1] for n in range(1, 9)]
        assert all(b < a for a, b in zip(nums, nums[1:]))

    @pytest.mark.parametrize("target", ALL_TARGETS, ids=lambda t: t.name)
    def test_projection_is_optimal_under_perturbation(self, target):
        """Any single-coefficient nudge of +/- 1/1000 strictly hurts."""
        n = 4
        est = kernel_estimate(target, n)
        base, _ = error_variance(target, est)
        base_num = eval_pilaurent(base, 320)
        rng = random.Random(55001)
        for _ in range(20):
            idx = rng.randrange(n)
            sign = rng.choice((1, -1))
            bumped = list(est.coefficients)
            bumped[idx] = bumped[idx] + PiLaurent(Fraction(sign, 1000))
            poly = ApproxPolynomial(est.family, tuple(bumped))
            worse, _ = error_variance(target, poly)
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
                var, _ = error_variance(target, poly)
                got = eval_pilaurent(var, 300)
                weight = (lambda y: exp(-y)) if target is EXP_NEG else (lambda y: mpf(1))
                ref = quad(
                    lambda y: (f(y) - eval_polynomial(poly, [y], 320)[0]) ** 2 * weight(y),
                    interval,
                )
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
        assert eval_polynomial(tay, [0])[0] == 1

    def test_estimate_at_zero(self):
        est = kernel_estimate(EXP_NEG, 8)
        v = eval_polynomial(est, [0])[0]
        assert v == mpf(255) / 256

    def test_odd_polynomial_at_zero(self):
        est = kernel_estimate(SIN_PI, 3)
        assert eval_polynomial(est, [0])[0] == 0

    def test_estimate_at_one_matches_coefficient_sum(self):
        est = kernel_estimate(EXP_NEG, 8)
        exact = sum(est.coefficients, Fraction(0))
        got = eval_polynomial(est, [1])[0]
        with mp.workprec(300):
            want = mpf(exact.numerator) / exact.denominator
            assert abs(got - want) < mpf(2) ** -240

    def test_sin_estimate_tracks_function(self):
        est = kernel_estimate(SIN_PI, 6)
        with mp.workprec(256):
            for x in (mpf(1) / 4, mpf(1) / 2, mpf(3) / 4):
                assert abs(eval_polynomial(est, [x])[0] - sin(pi * x)) < mpf("1e-6")


@lru_cache(maxsize=None)
def _poly(target, n, kind):
    return kernel_estimate(target, n) if kind == "estimate" else taylor_comparator(target, n)


def _exact(v: mpf) -> Fraction:
    m, e = v.man_exp  # of |v|
    return int(mp.sign(v)) * Fraction(m) * Fraction(2) ** e


def _rounded(q: Fraction, bits: int) -> mpf:
    return mp.make_mpf(from_rational(q.numerator, q.denominator, bits, round_nearest))


def _terms(poly, coefficients, x) -> list[Fraction]:
    """The exact terms ``c_k x**p_k`` at the exact value of x."""
    xq = x if isinstance(x, Fraction) else _exact(x)
    return [c * xq ** poly.family.basis_power(k) for k, c in enumerate(coefficients, start=1)]


@st.composite
def polynomial_points(draw, targets=ALL_TARGETS):
    """A target's estimate or Taylor comparator, an x in the target's
    window (a Fraction, or an mpf of 53-400 bits) and a precision."""
    target = draw(st.sampled_from(targets))
    poly = _poly(target, draw(st.integers(1, 14)), draw(st.sampled_from(("estimate", "taylor"))))
    lo, hi = (0, 12) if target is EXP_NEG else (-1, 1)
    x = draw(st.fractions(lo, hi, max_denominator=10**9))
    if draw(st.booleans()):
        with mp.workprec(draw(st.integers(53, 400))):
            x = mpf(x.numerator) / x.denominator
    return poly, x, draw(st.sampled_from((128, 256, 333)))


class TestEvalPolynomialIsExact:
    """Each value is the correctly rounded value of the polynomial on its
    coefficients as rounded once at ``bits + 16``; nothing else rounds."""

    @given(polynomial_points())
    @settings(max_examples=150, deadline=None)
    def test_one_rounding_of_the_rounded_coefficients(self, case):
        poly, x, bits = case
        rounded = [_exact(eval_pilaurent(c, bits + 16)) for c in poly.coefficients]
        assert eval_polynomial(poly, [x], bits)[0] == _rounded(sum(_terms(poly, rounded, x)), bits)

    @given(polynomial_points(targets=(EXP_NEG,)))
    @settings(max_examples=150, deadline=None)
    def test_rational_coefficients_round_like_the_exact_value(self, case):
        """Fraction coefficients: each is rounded within ``2**-(bits + 15)``
        of itself, so the value lies between the correct roundings of the
        exact value minus and plus that error over all terms.  Wherever the
        error cannot reach a rounding boundary, the two are one value: the
        exact value correctly rounded."""
        poly, x, bits = case
        terms = _terms(poly, poly.coefficients, x)
        exact, slack = sum(terms), sum(map(abs, terms)) / 2 ** (bits + 15)
        got = eval_polynomial(poly, [x], bits)[0]
        assert _rounded(exact - slack, bits) <= got <= _rounded(exact + slack, bits)

    @pytest.mark.parametrize("x", [mpf("inf"), mpf("-inf"), mpf("nan"), float("inf")], ids=str)
    def test_non_finite_x_raises(self, x):
        with pytest.raises(ValueError, match="non-finite"):
            eval_polynomial(taylor_comparator(EXP_NEG, 3), [Fraction(1), x])


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
        assert target_value(EXP_NEG, [0])[0] == 1
        assert abs(target_value(SIN_PI, [mpf(1) / 2])[0] - 1) < mpf("1e-70")
        assert abs(target_value(COS_PI, [1])[0] + 1) < mpf("1e-70")


class TestVarianceRows:
    """variance_rows (Bessel's identity, prefix Taylor form) against the
    general quadratic form evaluated from scratch at every size."""

    @pytest.mark.parametrize("target", ALL_TARGETS + (IDENTITY,), ids=lambda t: t.name)
    def test_rows_equal_error_variance_at_every_size(self, target):
        rows = variance_rows(target, 14)
        assert len(rows) == 14
        for n, (taylor_var, estimate_var) in enumerate(rows, start=1):
            assert taylor_var == error_variance(target, taylor_comparator(target, n))[0]
            assert estimate_var == error_variance(target, kernel_estimate(target, n))[0]

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
            var, num = error_variance(IDENTITY, estimate)
            assert var == PiLaurent(0) and num == 0
            tay_var, _ = error_variance(IDENTITY, taylor_comparator(IDENTITY, n))
            assert tay_var == PiLaurent(0)
        assert target_value(IDENTITY, [Fraction(1, 4)])[0] == mpf(1) / 4
