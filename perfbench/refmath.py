"""Reference values computed apart from the program under test.

Nothing here imports ``gramkernel``.  Gram matrices come from textbook
moment formulas, their inverses from sympy's exact ``DomainMatrix`` over
QQ, the trigonometric moments from their power series at high binary
precision, and decimal expectations from exact rational rounding.  The
output checks in ``verdict.py`` compare the program's printed values
against these.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from mpmath import mp, mpf
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

# Working precision of every non-rational reference value, in bits.
REF_BITS = 2200
SIG_DIGITS = 17

# family name -> (weight, stride, offset); basis element i (0-based) is
# x**(stride*i + offset)
FAMILIES = {
    "laguerre": ("laguerre", 1, 0),
    "legendre-even": ("legendre", 2, 0),
    "legendre-odd": ("legendre", 2, 1),
    "hermite-even": ("hermite", 2, 0),
    "hermite-odd": ("hermite", 2, 1),
}

# target name -> family whose weight and parity it matches
TARGET_FAMILY = {"exp-neg": "laguerre", "sin-pi": "legendre-odd", "cos-pi": "legendre-even"}


def power(family: str, i: int) -> int:
    _, stride, offset = FAMILIES[family]
    return stride * i + offset


def moment(weight: str, k: int) -> Fraction:
    """Rational core of the integral of x**k * w(x); the Hermite moments
    carry one more factor sqrt(pi), which cancels out of every check."""
    if weight == "laguerre":  # integral_0^inf x^k e^-x dx = k!
        return Fraction(factorial(k))
    if k % 2:
        return Fraction(0)
    if weight == "legendre":  # integral_-1^1 x^k dx
        return Fraction(2, k + 1)
    # integral x^k e^(-x^2) dx = Gamma(k/2 + 1/2) = sqrt(pi) * prod_{j=1}^{k/2} (j - 1/2)
    core = Fraction(1)
    for j in range(1, k // 2 + 1):
        core *= Fraction(2 * j - 1, 2)
    return core


def gram(family: str, n: int) -> list[list[Fraction]]:
    """Rational core of the size-n monomial Gram matrix."""
    weight = FAMILIES[family][0]
    return [[moment(weight, power(family, i) + power(family, j)) for j in range(n)]
            for i in range(n)]


def inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by sympy's DomainMatrix over QQ."""
    n = len(rows)
    dm = DomainMatrix([[QQ(q.numerator, q.denominator) for q in row] for row in rows], (n, n), QQ)
    return [[Fraction(int(q.numerator), int(q.denominator)) for q in row]
            for row in dm.inv().to_list()]


def inf_norm(rows) -> Fraction:
    return max(sum((abs(q) for q in row), Fraction(0)) for row in rows)


@lru_cache(maxsize=None)
def kappa(family: str, n: int) -> Fraction:
    """Infinity-norm condition number of the size-n Gram matrix (grades cancel)."""
    g = gram(family, n)
    return inf_norm(g) * inf_norm(inverse(g))


def gram_identity_holds(family: str, b: list[list[Fraction]]) -> bool:
    """G * B == I exactly, in integers over one common denominator each."""
    n = len(b)
    g = gram(family, n)
    dg = _lcm_den(g)
    db = _lcm_den(b)
    gi = [[int(q * dg) for q in row] for row in g]
    bi = [[int(q * db) for q in row] for row in b]
    bt = list(zip(*bi))
    scale = dg * db
    for i in range(n):
        for j in range(n):
            if sum(x * y for x, y in zip(gi[i], bt[j])) != (scale if i == j else 0):
                return False
    return True


def _lcm_den(rows) -> int:
    out = 1
    for row in rows:
        for q in row:
            out = lcm(out, q.denominator)
    return out


# ----------------------------------------------------------------- targets


@lru_cache(maxsize=None)
def _trig_moment(target: str, k: int, prec: int) -> mpf:
    shift = 1 if target == "sin-pi" else 0
    pi2 = mp.pi**2
    coeff = mp.pi**shift  # signed coefficient of y**d in the series of f
    total = mpf(0)
    d = shift
    tiny = mpf(2) ** (-prec - 8)
    while True:
        term = coeff / (k + d + 1) * 2
        total += term
        if abs(term) < tiny and d > k:
            return total
        coeff *= -pi2 / ((d + 1) * (d + 2))
        d += 2


def trig_moment(target: str, k: int) -> mpf:
    """integral_-1^1 y**k f(y) dy for f = sin(pi y) (odd k) or cos(pi y)
    (even k), summed from the power series of f at the working precision."""
    return _trig_moment(target, k, mp.prec)


def target_moments(target: str, n: int):
    """Moments of the target against its family's first n basis powers:
    exact Fractions for exp-neg, mpf (call under ``mp.workprec``) otherwise."""
    family = TARGET_FAMILY[target]
    if target == "exp-neg":  # integral_0^inf y^k e^-y e^-y dy = k!/2^(k+1)
        return [Fraction(factorial(k), 2 ** (k + 1)) for k in range(n)]
    return [trig_moment(target, power(family, i)) for i in range(n)]


def squared_norm(target: str):
    """integral f**2 w over the domain: 1/3 for exp-neg, 1 for sin and cos."""
    return Fraction(1, 3) if target == "exp-neg" else mpf(1)


def taylor_coefficients(target: str, size: int):
    """Maclaurin coefficients on the family's basis powers, as the variance
    table compares them: ``size`` terms, but ``size + 1`` for cos-pi (the
    comparator runs through degree 2*size)."""
    if target == "exp-neg":
        return [Fraction((-1) ** k, factorial(k)) for k in range(size)]
    pi = +mp.pi
    if target == "sin-pi":
        return [(-1) ** k * pi ** (2 * k + 1) / factorial(2 * k + 1) for k in range(size)]
    return [(-1) ** k * pi ** (2 * k) / factorial(2 * k) for k in range(size + 1)]


def exact_taylor_terms(target: str, size: int) -> list[dict[int, Fraction]]:
    """The same Taylor coefficients as exact pi-Laurent terms {exponent: q}."""
    if target == "exp-neg":
        return [{0: Fraction((-1) ** k, factorial(k))} for k in range(size)]
    if target == "sin-pi":
        return [{2 * k + 1: Fraction((-1) ** k, factorial(2 * k + 1))} for k in range(size)]
    return [{2 * k: Fraction((-1) ** k, factorial(2 * k))} for k in range(size + 1)]


def projection(target: str, n: int):
    """Least-squares coefficients c = G^-1 m on the first n basis powers."""
    g = gram(TARGET_FAMILY[target], n)
    b = inverse(g)
    m = target_moments(target, n)
    return [sum((b[i][j] * m[j] for j in range(n)), type(m[0])(0)) for i in range(n)]


def error_variance(target: str, coeffs) -> object:
    """integral (f - p)**2 w for p = sum_k coeffs[k] x**p_k, from
    |f|^2 - 2 c.m + c^T G c."""
    n = len(coeffs)
    g = gram(TARGET_FAMILY[target], n)
    m = target_moments(target, n)
    var = squared_norm(target)
    for k in range(n):
        var -= 2 * coeffs[k] * m[k]
        for j in range(n):
            var += coeffs[k] * coeffs[j] * g[k][j]
    return var


def estimate_variance(target: str, n: int):
    """Variance of the kernel estimate: |f|^2 - m^T G^-1 m."""
    g = gram(TARGET_FAMILY[target], n)
    b = inverse(g)
    m = target_moments(target, n)
    var = squared_norm(target)
    for i in range(n):
        var -= m[i] * sum((b[i][j] * m[j] for j in range(n)), type(m[0])(0))
    return var


def target_value(target: str, x: Fraction):
    """f(x) at the working precision; exactly 0 where sin(pi x) or
    cos(pi x) vanishes (integer, resp. half-odd-integer x)."""
    if target == "sin-pi" and x.denominator == 1:
        return Fraction(0)
    if target == "cos-pi" and x.denominator == 2:
        return Fraction(0)
    xv = to_mpf(x)
    if target == "sin-pi":
        return mp.sin(mp.pi * xv)
    if target == "cos-pi":
        return mp.cos(mp.pi * xv)
    return mp.exp(-xv)


def to_mpf(q) -> mpf:
    """Round an exact Fraction (or pass an mpf) at the working precision."""
    if isinstance(q, Fraction):
        return mpf(q.numerator) / q.denominator
    return +q


def poly_value(target: str, coeffs, x: Fraction) -> mpf:
    """sum_k coeffs[k] * x**p_k at the working precision."""
    family = TARGET_FAMILY[target]
    xv = to_mpf(x)
    return sum((to_mpf(c) * xv ** power(family, k) for k, c in enumerate(coeffs)), mpf(0))


# ------------------------------------------------------- decimal rendering


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    sign, man, exp, _ = mpf(value)._mpf_
    q = Fraction(man * 2**exp) if exp >= 0 else Fraction(man, 2**-exp)
    return -q if sign else q


def decimal_ok(text: str, value) -> bool:
    """True when ``text`` is ``value`` rounded to at most ``SIG_DIGITS``
    significant digits (either neighbour of an exact tie).

    ``value`` is an exact Fraction, or an mpf whose own relative error
    (at ``REF_BITS``) is far below the slack allowed here.
    """
    try:
        shown = Decimal(text)
    except ArithmeticError:
        return False
    if not shown.is_finite():
        return False
    if len(shown.normalize().as_tuple().digits) > SIG_DIGITS:
        return False
    exact = isinstance(value, Fraction)
    v = _to_fraction(value)
    t = Fraction(shown)
    if v == 0:
        return t == 0
    a = abs(v)
    e = len(str(a.numerator)) - len(str(a.denominator))
    while Fraction(10) ** e > a:
        e -= 1
    while Fraction(10) ** (e + 1) <= a:
        e += 1
    half_ulp = Fraction(10) ** (e - SIG_DIGITS + 1) / 2
    slack = Fraction(0) if exact else a / 2 ** (REF_BITS - 64)
    return abs(t - v) <= half_ulp + slack
