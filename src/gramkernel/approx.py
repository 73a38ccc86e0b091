"""Projection of target functions onto the kernel span, and error variances.

A target f is represented by its weighted moments against the family's basis
monomials, ``m_i = integral f(y) y**p_i w(y) dy``, kept exact: ``Fraction``
for exp(-x) on the half-line, pi-Laurent for sin(pi x)/cos(pi x) on (-1, 1)
(closed by-parts recurrences).  The kernel estimate is then c = B m, the
weighted least-squares projection onto the span, and the error variance

    integral (f - p)**2 w = |f|^2 - 2 sum_k p_k m_k + sum_kl p_k p_l g_kl

is exact for any polynomial p over the same basis, Taylor truncations
included; it is a ``Fraction`` whenever p and the moments are.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import mul
from typing import Callable, Iterator, Mapping

from mpmath import mp, mpf

from .exactscalar import (
    DEFAULT_PRECISION_BITS,
    Exact,
    PiLaurent,
    _check_precision,
    eval_pilaurent,
    working_mpf,
)
from .families import (
    Family,
    GradedMatrix,
    LAGUERRE,
    LEGENDRE_EVEN,
    LEGENDRE_ODD,
    coeff_matrix,
    moment_cores,
    norm_vector,
)
from .oracle import gram_from_moments


def _sin_integrals(k_max: int) -> dict[int, PiLaurent]:
    """I_k = integral_{-1}^{1} y**k sin(pi y) dy for odd k <= k_max.

    By parts twice: I_1 = 2/pi and I_k = 2/pi - k(k-1)/pi**2 * I_{k-2}.
    """
    out = {1: PiLaurent.pi_power(-1, 2)}
    for k in range(3, k_max + 1, 2):
        out[k] = PiLaurent.pi_power(-1, 2) + out[k - 2] * PiLaurent.pi_power(
            -2, -Fraction(k * (k - 1))
        )
    return out


def _cos_integrals(m_max: int) -> dict[int, Exact]:
    """J_m = integral_{-1}^{1} y**m cos(pi y) dy for even m <= m_max.

    The sine boundary terms vanish at +/-1, leaving J_0 = 0 and
    J_m = -(m/pi) * I_{m-1}.
    """
    sin_i = _sin_integrals(m_max - 1 if m_max >= 1 else 0)
    out: dict[int, Exact] = {0: Fraction(0)}  # J_0 has no pi: a Fraction
    for m in range(2, m_max + 1, 2):
        out[m] = sin_i[m - 1] * PiLaurent.pi_power(-1, -Fraction(m))
    return out


@dataclass(frozen=True)
class TargetFunction:
    """A function to be approximated: the one record of everything the
    package knows about it.

    * ``natural_family`` -- the basis whose parity and weight it matches;
    * ``squared_integral`` -- its exact squared weighted L2 norm;
    * ``moments(k_max)`` -- the exact weighted moments
      ``integral f(y) y**k w(y) dy`` of the family's basis powers
      ``k <= k_max``, keyed by ``k``;
    * ``taylor_term(k)`` -- the exact Maclaurin coefficient of the k-th
      (0-based) basis element;
    * ``value(x)`` -- f(x) at mpmath's working precision;
    * ``comparator_extra_terms`` -- Taylor terms the tabulated comparator
      keeps beyond ``size`` (see :func:`taylor_comparator`).

    Exact values are ``Fraction`` where no pi appears, else ``PiLaurent``;
    estimates and variances follow, so a rational target's are ``Fraction``.
    """

    name: str
    natural_family: Family
    squared_integral: Exact
    moments: Callable[[int], Mapping[int, Exact]]
    taylor_term: Callable[[int], Exact]
    value: Callable[[mpf], mpf]
    comparator_extra_terms: int = 0


SIN_PI = TargetFunction(
    "sin-pi", LEGENDRE_ODD, Fraction(1),
    moments=_sin_integrals,
    taylor_term=lambda k: PiLaurent.pi_power(2 * k + 1, Fraction((-1) ** k, factorial(2 * k + 1))),
    value=lambda x: mp.sin(mp.pi * x),
)
COS_PI = TargetFunction(
    "cos-pi", LEGENDRE_EVEN, Fraction(1),
    moments=_cos_integrals,
    taylor_term=lambda k: PiLaurent.pi_power(2 * k, Fraction((-1) ** k, factorial(2 * k))),
    value=lambda x: mp.cos(mp.pi * x),
    comparator_extra_terms=1,
)
EXP_NEG = TargetFunction(
    "exp-neg", LAGUERRE, Fraction(1, 3),
    # integral_0^inf y**k e^-y * e^-y dy = k! / 2**(k+1)
    moments=lambda k_max: {k: Fraction(factorial(k), 2 ** (k + 1)) for k in range(k_max + 1)},
    taylor_term=lambda k: Fraction((-1) ** k, factorial(k)),
    value=lambda x: mp.exp(-x),
)

TARGETS = {t.name: t for t in (SIN_PI, COS_PI, EXP_NEG)}


def target_by_name(name: str) -> TargetFunction:
    try:
        return TARGETS[name]
    except KeyError:
        raise ValueError(
            f"unknown target {name!r}; expected one of {sorted(TARGETS)}"
        ) from None


def target_value(
    target: TargetFunction, xs, precision_bits: int = DEFAULT_PRECISION_BITS
) -> list[mpf]:
    """Numeric f(x) at the requested precision, for every x in ``xs``."""
    _check_precision(precision_bits)
    with mp.workprec(precision_bits):
        return [target.value(working_mpf(x)) for x in xs]


@dataclass(frozen=True)
class MomentVector:
    """Exact moments of some target against a family's basis monomials.

    Every entry is a core of the family's ``moment_grade``, which cancels
    against the kernel's negated grade under projection.
    """

    family: Family
    entries: tuple[Exact, ...]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ApproxPolynomial:
    """Polynomial on a family's basis powers: coefficient k multiplies
    ``x**(stride*k + offset)``."""

    family: Family
    coefficients: tuple[Exact, ...]

    def __len__(self) -> int:
        return len(self.coefficients)


def function_moments(target: TargetFunction, n: int) -> MomentVector:
    """Exact moments m_i of the target against its natural family, i = 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    fam = target.natural_family
    ints = target.moments(fam.basis_power(n))
    return MomentVector(fam, tuple(ints[fam.basis_power(i)] for i in range(1, n + 1)))


def monomial_moment_vector(family: Family, n: int, power: int) -> MomentVector:
    """Moments of the target x**power against the family basis.

    Entry i is the weighted moment of x**(p_i + power).  Used to exercise
    the reproducing property: projecting an in-span monomial must return it
    exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return MomentVector(family, moment_cores(family, n, power))


def project(kernel: GradedMatrix, moments: MomentVector) -> ApproxPolynomial:
    """Kernel estimate c = B m, the weighted least-squares projection."""
    if kernel.family != moments.family:
        raise ValueError(
            f"kernel family {kernel.family.name} != moment family {moments.family.name}"
        )
    if kernel.n != len(moments):
        raise ValueError(f"kernel size {kernel.n} != moment vector length {len(moments)}")
    if kernel.sqrtpi_power + moments.family.moment_grade != 0:
        raise ValueError("sqrt(pi) grades do not cancel under projection")
    coeffs = tuple(sum(map(mul, moments.entries, row), 0) for row in kernel.entries)
    return ApproxPolynomial(kernel.family, coeffs)


def taylor_polynomial(target: TargetFunction, n: int) -> ApproxPolynomial:
    """Maclaurin truncation to the first n basis powers of the natural family.

    Coefficient k is the target's exact ``taylor_term(k)``, k = 0..n-1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    terms = tuple(target.taylor_term(k) for k in range(n))
    return ApproxPolynomial(target.natural_family, terms)


def taylor_comparator(target: TargetFunction, size: int) -> ApproxPolynomial:
    """The Taylor truncation the variance tables compare against at ``size``.

    On the symmetric domains the tabulated comparator cuts the series after
    degree 2*size: for sin-pi that is the same ``size`` odd terms, but for
    cos-pi it keeps ``size + 1`` even terms (through x**(2*size)).  On the
    half-line it is the plain ``size``-term truncation.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    return taylor_polynomial(target, size + target.comparator_extra_terms)


def _prefix_variances(
    target: TargetFunction,
    coefficients: tuple[Exact, ...],
    moments: MomentVector,
    gram: GradedMatrix,
) -> Iterator[Exact]:
    """Error variance of every prefix ``p_1..p_k`` of ``coefficients``.

    Adding term k to ``|f|^2 - 2 p.m + p^T G p`` adds
    ``p_k (2 sum_{l<k} p_l g_kl + p_k g_kk - 2 m_k)``, so each prefix costs
    O(k) over the one before.  ``moments`` and ``gram`` must be at least as
    long as ``coefficients``.
    """
    if gram.sqrtpi_power != 0:
        raise AssertionError("built-in targets live on grade-0 Gram matrices")
    var = target.squared_integral
    for k, p_k in enumerate(coefficients):
        row = gram.entries[k]
        cross = sum(map(mul, coefficients[:k], row), 0)
        var = var + p_k * (cross * 2 + p_k * row[k] - moments.entries[k] * 2)
        yield var


def error_variance(
    target: TargetFunction,
    poly: ApproxPolynomial,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> tuple[Exact, mpf]:
    """Weighted squared L2 error of ``poly`` against the target, exact.

    Returns the exact value together with its numeric rendering.
    The general form ``|f|^2 - 2 p.m + p^T G p`` is evaluated for every
    kind of polynomial, as the last of its prefix variances.
    """
    if poly.family != target.natural_family:
        raise ValueError(
            f"polynomial family {poly.family.name} does not match target {target.name}"
        )
    n = len(poly)
    moments = function_moments(target, n)
    gram = gram_from_moments(target.natural_family, n)
    for var in _prefix_variances(target, poly.coefficients, moments, gram):
        pass
    return var, eval_pilaurent(var, precision_bits)


def variance_rows(target: TargetFunction, max_size: int) -> list[tuple[Exact, Exact]]:
    """Exact (Taylor, kernel estimate) error variances for sizes 1..max_size.

    Entry ``n - 1`` is the pair for size n.  The Taylor column is the
    prefix variance of :func:`taylor_comparator`; the estimate column
    follows Bessel's identity ``var_n = var_{n-1} - (a_n . m)**2 / lambda_n``
    from the orthogonal-polynomial rows ``a_n`` and norms ``lambda_n``,
    which equals the general form at ``c = B_n m``.  Moments, Gram matrix
    and coefficient matrix are each built once, at the largest size.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    fam = target.natural_family
    taylor = taylor_comparator(target, max_size).coefficients
    n = len(taylor)
    moments = function_moments(target, n)
    gram = gram_from_moments(fam, n)
    extra = target.comparator_extra_terms
    tay = list(_prefix_variances(target, taylor, moments, gram))[extra:]

    a = coeff_matrix(fam, max_size).entries
    lam = norm_vector(fam, max_size)
    est = []
    var = target.squared_integral
    for k in range(max_size):
        proj = sum(map(mul, moments.entries[: k + 1], a[k]), 0)
        var = var - proj * proj * (1 / lam[k])
        est.append(var)
    return list(zip(tay, est))


def eval_polynomial(
    poly: ApproxPolynomial, xs, precision_bits: int = DEFAULT_PRECISION_BITS
) -> list[mpf]:
    """Horner evaluation at working precision, for every x in ``xs``.

    The polynomial is ``x**offset * sum_k c_k (x**stride)**k``, so Horner
    runs in ``t = x**stride``.  The exact coefficients are rounded once, at
    ``precision_bits + 16``, for all of ``xs``; each value is then rounded
    to ``precision_bits``.
    """
    _check_precision(precision_bits)
    stride, offset = poly.family.stride, poly.family.offset
    cs = [eval_pilaurent(c, precision_bits + 16) for c in reversed(poly.coefficients)]
    accs = []
    with mp.workprec(precision_bits + 16):
        for x in xs:
            xv = working_mpf(x)
            t = xv**stride
            acc = mpf(0)
            for c in cs:
                acc = acc * t + c
            acc *= xv**offset
            accs.append(acc)
    with mp.workprec(precision_bits):
        return [+acc for acc in accs]
