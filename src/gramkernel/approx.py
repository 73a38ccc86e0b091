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

from collections.abc import Callable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial, lcm
from operator import mul

from .exactscalar import (
    DEFAULT_PRECISION_BITS,
    SIG_DIGITS,
    Exact,
    PiLaurent,
    _certified_digits,
    _pi_bracket,
    _raw_ratio,
    _reduced,
    _render,
    _round_rational,
    _triple,
    _ziv_decimal,
    enclose,
)
from .families import (
    Family,
    GradedMatrix,
    LAGUERRE,
    LEGENDRE_EVEN,
    LEGENDRE_ODD,
    Record,
    _cleared,
    coeff_rows,
    monomial_moment,
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


class TargetFunction(Record):
    """A function to be approximated: the one record of everything the
    package knows about it.

    * ``natural_family`` -- the basis whose parity and weight it matches;
    * ``squared_integral`` -- its exact squared weighted L2 norm;
    * ``moments(k_max)`` -- the exact weighted moments
      ``integral f(y) y**k w(y) dy`` of the family's basis powers
      ``k <= k_max``, keyed by ``k``;
    * ``taylor_term(k)`` -- the exact Maclaurin coefficient of the k-th
      (0-based) basis element;
    * ``grid(nums, den, w)`` -- integers ``(lo, hi, q)`` with lo/q <= f(x)
      <= hi/q at every x = num/den, num in the range ``nums``, by a
      recurrence along the grid at w bits plus the bit length of the sample
      count; at one x, the width shrinks like 2**-w as w grows;
    * ``comparator_extra_terms`` -- Taylor terms the tabulated comparator
      keeps beyond ``size`` (see :func:`taylor_comparator`);
    * ``zero`` -- for f(x) = g(pi x) with g sin or cos, ``(phase, slope)``:
      f vanishes exactly at x = phase + k, k an integer, where g' is
      slope * (-1)**k (see :func:`_float_residue`).

    Exact values are ``Fraction`` where no pi appears, else ``PiLaurent``;
    estimates and variances follow, so a rational target's are ``Fraction``.
    """

    name: str
    natural_family: Family
    squared_integral: Exact
    moments: Callable[[int], Mapping[int, Exact]]
    taylor_term: Callable[[int], Exact]
    grid: Callable[[range, int, int], Iterator[tuple[int, int, int]]]
    comparator_extra_terms: int = 0
    zero: tuple[Fraction, int] | None = None


def _cis_pi(t: Fraction, w: int) -> tuple[int, int, int]:
    """Integers (C, S, E) with |(C, S) - 2**w (cos pi t, sin pi t)| <= E,
    Euclidean, for a rational t.

    Proof, in units of 2**-w.  With k the integer nearest 2t, t' = t - k/2
    is in [-1/4, 1/4], and (cos, sin)(pi t) is (cos, sin)(pi |t'|) with the
    sine negated when t' < 0, then turned by k quarter turns: exact sign
    changes and swaps.  As lo <= pi 2**w <= lo + 2 (:func:`_pi_bracket`),
    A = floor(|t'| lo) is within 2 of 2**w pi |t'|, so a = A / 2**w <= pi/4
    < 0.79, and (cos a, sin a) is within 2 of the value at pi |t'|, as
    x -> (cos x, sin x) has speed 1.  T_0 = 2**w and T_j = floor(T_{j-1} A /
    (j 2**w)) err from 2**w a**j / j! by at most 0.79 e + 1 if T_{j-1} errs
    by e, so never by 5 or more.  The sums stop at the first T_K = 0: its
    true term is then below 5, and the true terms from K on shrink by 0.79
    per step, so the omitted tail is below 5 / 0.21 < 24.  The K kept terms
    err by at most 5K, so E = 5K + 26.
    """
    k = round(2 * t)
    t -= Fraction(k, 2)
    big = abs(t.numerator) * _pi_bracket(w)[0] // t.denominator
    c = s = j = 0
    term = 1 << w
    while term:
        if j & 1:
            s += -term if j & 2 else term
        else:
            c += -term if j & 2 else term
        j += 1
        term = term * big // (j << w)
    if t < 0:
        s = -s
    for _ in range(k % 4):
        c, s = -s, c
    return c, s, 5 * j + 26


def _cis_pi_grid(nums: range, den: int, w: int) -> Iterator[tuple[int, int, int, int]]:
    """(C, S, R, W) at every x = num/den, num in ``nums``, with
    |(C, S) - 2**W (cos pi x, sin pi x)| <= R, Euclidean, W = w + the
    bit length of the sample count.

    The grid turns by one fixed rotation r = cis(pi step / den) per sample,
    taken after the first.  Both the first value and r are :func:`_cis_pi`'s,
    within E_0 and E_r units (of 2**-W).  Proof that sample i is within
    R_i = E_0 + i (E_r + 3): with z_i the true value and Z_i, Q the integer
    vectors, Z_i Q / 2**W - 2**W z_i r = (Z_i - 2**W z_i) Q / 2**W + z_i
    (Q - 2**W r), whose norm is at most R_i (1 + E_r 2**-W) + E_r, as |z_i|
    = 1 and |Q| <= 2**W + E_r; flooring both coordinates adds less than
    sqrt(2).  With R_i E_r < 2**W (both stay below 2**40 here),
    R_{i+1} = R_i + E_r + 3 holds.
    """
    if not nums:
        return
    w += len(nums).bit_length()
    c, s, radius = _cis_pi(Fraction(nums.start, den), w)
    yield c, s, radius, w
    rc, rs, step_error = _cis_pi(Fraction(nums.step, den), w)
    for _ in nums[1:]:
        c, s, radius = (c * rc - s * rs) >> w, (c * rs + s * rc) >> w, radius + step_error + 3
        yield c, s, radius, w


def _exp_neg(y: Fraction, w: int) -> tuple[int, int, int]:
    """Integers (M, k, a), 2**(w-1) <= M < 2**w, with M 2**k = exp(-y) (1 + d)
    and |d| <= a 2**(1-w), for a rational y.

    Proof, in units u' = 2**(1-v) of the relative error at v = w + j + 8
    bits, where |y| / 2**j < 1/2.  Z = floor(|z| 2**v) for z = y / 2**j, and
    T_0 = 2**v, T_i = floor(T_{i-1} Z / (i 2**v)) err from 2**v |z|**i / i!
    by less than 2 (each step halves the error and adds below 1); the sum
    of (-sign z)**i T_i stops at the first T_K = 0, so it errs from
    2**v exp(-Z / 2**v) by at most 2K + 4 (the tail is below 2 + 1 + ...)
    and from 2**v exp(-z) by 2 more (exp' < 2 on |x| < 1/2).  As exp(-z) >
    1/2, that is a relative error of at most a_0 = 2K + 6 units.  Each of
    the j squarings floors the square to v bits, so (1 + d)**2 (1 - f) with
    0 <= f < u' bounds the new error by 2a + 1 + a**2 u' units, so by
    2a + 2 + floor(a**2 u').  Flooring to w bits at the end adds below one
    unit of 2**(1-w): a = floor(a 2**(w - v)) + 2.
    """
    j = (-(-abs(y.numerator) // y.denominator)).bit_length() + 1
    v = w + j + 8
    big = (abs(y.numerator) << v) // (y.denominator << j)
    m = i = 0
    term = 1 << v
    while term:
        m += -term if y > 0 and i & 1 else term
        i += 1
        term = term * big // (i << v)
    k, a = -v, 2 * i + 6
    for _ in range(j):
        m *= m
        shift = m.bit_length() - v
        m, k, a = m >> shift, 2 * k + shift, 2 * a + 2 + (a * a >> v - 1)
    return m >> j + 8, k + j + 8, (a >> j + 8) + 2


def _mantissa_bracket(m: int, k: int, a: int) -> tuple[int, int, int]:
    """(lo, hi, q) holding v, from M 2**k = v (1 + d) with |d| <= a 2**(1-W)
    <= 1/2 and 2**(W-1) <= M < 2**W: as M |d| < 2a and 1 - |d| <= 1/(1 + d)
    <= 1 + 2|d|, v lies in [(M - 2a) 2**k, (M + 4a) 2**k], so in the
    symmetric [(M - 4a) 2**k, (M + 4a) 2**k] returned."""
    lo, hi = m - 4 * a, m + 4 * a
    return (lo << k, hi << k, 1) if k >= 0 else (lo, hi, 1 << -k)


def _exp_neg_grid(nums: range, den: int, w: int) -> Iterator[tuple[int, int, int]]:
    """Enclosures (lo, hi, q) of exp(-x) at every x = num/den, num in ``nums``.

    The grid multiplies by one fixed ratio exp(-step / den) per sample,
    taken after the first, in mantissa and exponent form at W = w + the bit
    length of the sample count, so exp(10**6) and exp(-10**6) are in range.
    Both the first value and the ratio are :func:`_exp_neg`'s, within a_0
    and b units of 2**(1-W) relative.  Each product floored to W bits gives
    (1 + d)(1 + e)(1 - f), 0 <= f < 2**(1-W), so sample i is within a_i =
    a_0 + i (b + 1) units while a_i b 2**(1-W) <= 1, which holds as both
    stay below 2**40; :func:`_mantissa_bracket` encloses each sample.
    """
    if not nums:
        return
    w += len(nums).bit_length()
    m, k, a = _exp_neg(Fraction(nums.start, den), w)
    yield _mantissa_bracket(m, k, a)
    ratio, ratio_k, b = _exp_neg(Fraction(nums.step, den), w)
    for _ in nums[1:]:
        m *= ratio
        shift = m.bit_length() - w
        m, k, a = m >> shift, k + ratio_k + shift, a + b + 1
        yield _mantissa_bracket(m, k, a)


@lru_cache(maxsize=None)
def _rounded_pi(p: int) -> int:
    """pi correctly rounded to nearest at p bits, as the integer M = pi
    2**(p-2) rounded: the integer nearest t = pi 2**(p-2) is floor(t + 1/2),
    and t lies in [lo, hi] / 2**g for :func:`_pi_bracket`'s ends at p - 2 + g
    bits; once both ends give the same integer, so does t.  t is no tie, as
    pi is irrational, so g doubles until they do."""
    g = 32
    while True:
        lo, hi = _pi_bracket(p - 2 + g)
        half = 1 << g - 1
        if lo + half >> g == hi + half >> g:
            return lo + half >> g
        g *= 2


def _float_residue(x: Fraction, p: int) -> tuple[int, int]:
    """sin(y - pi x) correctly rounded to nearest at p bits, as integers
    (n, q), where y = round_p(round_p(pi) x) is pi x as one p-bit float
    product makes it, for x = a/b an exact zero of sin or cos (b <= 2).

    g(y) for g = sin or cos is then what a p-bit float evaluation prints at
    that zero: with g(pi x) = 0, g(pi x + e) = g'(pi x) sin e exactly.
    ``target_value`` prints it at p = ``DEFAULT_PRECISION_BITS``.  Its loop
    decides a binary rounding; every decimal rounding is ``_ziv_decimal``'s.

    Proof.  y = s 2**t is exact (:func:`_round_rational` of an exact
    product).  With lo <= pi 2**w <= hi (:func:`_pi_bracket`) and w >= -t,
    Y = y b 2**w is an integer and e = y - pi x lies in [Y - a hi, Y - a lo]
    / (b 2**w), the ends swapped for a < 0.  As |sin e - e| <= |e|**3 / 6,
    widening both ends by ceil(m**3 / (6 Q**2)), for m the larger end's
    magnitude over Q = b 2**w, holds sin e.  Rounding to nearest is
    monotone, so when both ends round alike at p bits, sin e rounds so too.
    As pi x is a multiple of pi/2, sin e is +-sin y or +-cos y, which
    Lindemann's theorem makes transcendental for the rational y != 0, so it
    is no tie; and the width shrinks like 2**-w, so w grows by half until
    the ends agree.
    """
    if not x:
        return 0, 1
    a, b = x.as_integer_ratio()
    sign, man, t, _ = _round_rational(_rounded_pi(p) * a, b << p - 2, p)
    w = max(p, -t) + 64
    while True:
        lo, hi = _pi_bracket(w)
        y, q = (-man if sign else man) * b << w + t, b << w
        e_lo, e_hi = (y - a * hi, y - a * lo) if a > 0 else (y - a * lo, y - a * hi)
        cube = -(-max(-e_lo, e_hi) ** 3 // (6 * q * q))
        rounded = _round_rational(e_lo - cube, q, p)
        if rounded == _round_rational(e_hi + cube, q, p):
            return _raw_ratio(rounded)
        w += w // 2


SIN_PI = TargetFunction(
    "sin-pi", LEGENDRE_ODD, Fraction(1),
    moments=_sin_integrals,
    taylor_term=lambda k: PiLaurent.pi_power(2 * k + 1, Fraction((-1) ** k, factorial(2 * k + 1))),
    grid=lambda nums, den, w: ((s - r, s + r, 1 << v) for _, s, r, v in _cis_pi_grid(nums, den, w)),
    zero=(Fraction(0), 1),
)
COS_PI = TargetFunction(
    "cos-pi", LEGENDRE_EVEN, Fraction(1),
    moments=_cos_integrals,
    taylor_term=lambda k: PiLaurent.pi_power(2 * k, Fraction((-1) ** k, factorial(2 * k))),
    grid=lambda nums, den, w: ((c - r, c + r, 1 << v) for c, _, r, v in _cis_pi_grid(nums, den, w)),
    comparator_extra_terms=1,
    zero=(Fraction(1, 2), -1),
)
EXP_NEG = TargetFunction(
    "exp-neg", LAGUERRE, Fraction(1, 3),
    # integral_0^inf y**k e^-y * e^-y dy = k! / 2**(k+1)
    moments=lambda k_max: {k: Fraction(factorial(k), 2 ** (k + 1)) for k in range(k_max + 1)},
    taylor_term=lambda k: Fraction((-1) ** k, factorial(k)),
    grid=_exp_neg_grid,
)

TARGETS = {t.name: t for t in (SIN_PI, COS_PI, EXP_NEG)}


def target_by_name(name: str) -> TargetFunction:
    try:
        return TARGETS[name]
    except KeyError:
        raise ValueError(
            f"unknown target {name!r}; expected one of {sorted(TARGETS)}"
        ) from None


def sample_grid(xmin: Fraction, xmax: Fraction, samples: int) -> tuple[range, int]:
    """``samples`` evenly spaced x from xmin = a/b to xmax = c/d, both included, as
    numerators over one denominator: x_i = (a d n + i (c b - a d)) / (b d n), n = samples - 1."""
    (a, b), (c, d), n = xmin.as_integer_ratio(), xmax.as_integer_ratio(), samples - 1
    return range(a * d * n, c * b * n + 1, c * b - a * d), b * d * n


def target_value(target: TargetFunction, nums: range, den: int) -> list[str]:
    """f(x) at every x = num/den, num in the range ``nums`` (den > 0), as the
    decimal ``plotdata`` prints: f(x) correctly rounded, from the sample's
    enclosure along the grid (``target.grid`` at 128 bits) or, where that
    holds a rounding boundary, from Ziv's loop (:func:`_ziv_decimal`) over
    the grid of x alone (a rational x gives no decimal tie and, off the
    exact zeros, no zero, by Niven's and Lindemann's theorems).

    At an exact zero of sin(pi x) or cos(pi x) other than x = 0, the decimal
    is that of the float a ``DEFAULT_PRECISION_BITS`` evaluation
    g(round(round(pi) x)) returns (:func:`_float_residue`), not 0.
    """
    return [_certified_digits(lo + hi, hi - lo, 2 * q) or _value_at(target, Fraction(num, den))
            for num, (lo, hi, q) in zip(nums, target.grid(nums, den, 128))]


def _value_at(target: TargetFunction, x: Fraction) -> str:
    """``target_value``'s decimal at one x that the grid left undecided."""
    if target.zero and (x - target.zero[0]).denominator == 1:
        n, q = _float_residue(x, DEFAULT_PRECISION_BITS)
        slope = target.zero[1] * (-1) ** (int(x - target.zero[0]) & 1)
        return _render(slope * n, q, SIG_DIGITS, False, ".0")
    a, b = x.as_integer_ratio()
    return _ziv_decimal(lambda w: next(target.grid(range(a, a + 1), b, w)),
                        DEFAULT_PRECISION_BITS)[0]


class MomentVector(Record):
    """Exact moments of some target against a family's basis monomials.

    Every entry is a core of the family's ``moment_grade``, which cancels
    against the kernel's negated grade under projection.
    """

    family: Family
    entries: tuple[Exact, ...]

    def __len__(self) -> int:
        return len(self.entries)


class ApproxPolynomial(Record):
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
    return MomentVector(family, tuple(monomial_moment(family, family.basis_power(i) + power)
                                      for i in range(1, n + 1)))


def _dots(rows, values: Sequence[Exact]) -> list[Exact]:
    """``sum_i ints[i] * values[i] / d`` for each cleared row ``(ints, d)``
    of ``rows`` (see ``GradedMatrix.cleared_rows``), over the first
    ``len(ints)`` values.

    The values are split into integer rows over their pi exponents on one
    common denominator, so each result is integer dot products and one
    reduction.  A result is a ``Fraction`` when none of the values it reads
    is a ``PiLaurent``, as a sum of their products would be, else a
    ``PiLaurent``.  When no value is a ``PiLaurent`` the values are cleared
    once and each result is one integer dot product.
    """
    if not any(isinstance(v, PiLaurent) for v in values):
        ints, den = _cleared(values)
        return [Fraction(sum(map(mul, row, ints)), d * den) for row, d in rows]
    triples = [_triple(v) for v in values]
    low = min([0] + [t[0] for t in triples])
    den = lcm(*[t[2] for t in triples])
    cols = [[(lo - low + j, n * (den // d)) for j, n in enumerate(nums) if n]
            for lo, nums, d in triples]
    width = max([1 - low] + [lo - low + len(nums) for lo, nums, _ in triples])
    first_pi = next((i for i, v in enumerate(values) if isinstance(v, PiLaurent)), len(values))
    rational = [col[0][1] if col else 0 for col in cols[:first_pi]]  # Fractions: exponent 0 only
    out = []
    for ints, d in rows:
        if min(len(ints), len(values)) <= first_pi:  # reads no PiLaurent
            out.append(Fraction(sum(map(mul, ints, rational)), d * den))
            continue
        acc = [0] * width
        for a, col in zip(ints, cols):
            if a:
                for j, n in col:
                    acc[j] += a * n
        out.append(_reduced(low, acc, d * den))
    return out


def project(kernel: GradedMatrix, moments: MomentVector) -> ApproxPolynomial:
    """Kernel estimate c = B m, the weighted least-squares projection.

    One :func:`_dots` over the kernel's cached cleared rows.  Coefficients
    are ``PiLaurent`` if any moment is, else ``Fraction``.
    """
    if kernel.family != moments.family:
        raise ValueError(
            f"kernel family {kernel.family.name} != moment family {moments.family.name}"
        )
    if kernel.n != len(moments):
        raise ValueError(f"kernel size {kernel.n} != moment vector length {len(moments)}")
    if kernel.sqrtpi_power + moments.family.moment_grade != 0:
        raise ValueError("sqrt(pi) grades do not cancel under projection")
    return ApproxPolynomial(kernel.family, tuple(_dots(kernel.cleared_rows, moments.entries)))


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

    Adding term k to ``|f|^2 - 2 p.m + p^T G p`` adds ``p_k x_k`` with
    ``x_k = 2 sum_{l<k} p_l g_kl + p_k g_kk - 2 m_k``.  Every x_k is one
    :func:`_dots` row over ``p_0, m_0, p_1, m_1, ...`` built from the Gram
    matrix's cleared rows, so each prefix costs two exact operations over
    the one before.  ``moments`` and ``gram`` must be at least as long as
    ``coefficients``.
    """
    if gram.sqrtpi_power != 0:
        raise AssertionError("built-in targets live on grade-0 Gram matrices")
    values = [v for pair in zip(coefficients, moments.entries) for v in pair]
    rows = [([a for g in ints[:k] for a in (2 * g, 0)] + [ints[k], -2 * d], d)
            for k, (ints, d) in enumerate(gram.cleared_rows[: len(coefficients)])]
    var = target.squared_integral
    for p_k, x_k in zip(coefficients, _dots(rows, values)):
        var = var + p_k * x_k
        yield var


def error_variance(target: TargetFunction, poly: ApproxPolynomial) -> Exact:
    """Weighted squared L2 error of ``poly`` against the target, exact.

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
    return var


def variance_rows(target: TargetFunction, max_size: int) -> list[tuple[Exact, Exact]]:
    """Exact (Taylor, kernel estimate) error variances for sizes 1..max_size.

    Entry ``n - 1`` is the pair for size n.  The Taylor column is the
    prefix variance of :func:`taylor_comparator`; the estimate column
    follows Bessel's identity ``var_n = var_{n-1} - (a_n . m)**2 / lambda_n``
    from the orthogonal-polynomial rows ``a_n`` and norms ``lambda_n``,
    which equals the general form at ``c = B_n m``; the projections
    ``a_n . m`` are one :func:`_dots`.  Moments, Gram matrix
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

    projections = _dots(coeff_rows(fam, max_size), moments.entries)
    est, var = [], target.squared_integral
    for proj, lam in zip(projections, norm_vector(fam, max_size)):
        var = var - proj * proj * (1 / lam)
        est.append(var)
    return list(zip(tay, est))


def _horner(ints: list[int], num: int, stride: int, offset: int) -> int:
    """``sum_k ints[k] * num**(stride*(n-1-k) + offset)``, n = len(ints)."""
    num_stride, acc = num**stride, ints[0]
    for c in ints[1:]:
        acc = acc * num_stride + c
    return acc * num**offset


def _on_one_denominator(values, den_stride: int) -> list[int]:
    """Value k times ``den_stride**k``: Horner in num**stride then keeps one
    shared denominator."""
    out, power = [], 1
    for v in values:
        out.append(v * power)
        power *= den_stride
    return out


def _scaled_bracket(c: Exact, p: int) -> tuple[int, int]:
    """Integers c_lo <= c 2**p <= c_hi, from ``enclose(c, p)``."""
    lo, hi, q = enclose(c, p)
    return (lo << p) // q, -((-hi << p) // q)


def eval_polynomial(poly: ApproxPolynomial, nums, den: int) -> list[str]:
    """The polynomial at every x = num/den, num in ``nums`` (den > 0), as the
    decimal ``plotdata`` prints: the exact value correctly rounded to
    ``SIG_DIGITS`` significant digits, half away from zero ("1.0").

    Each coefficient, scaled by ``den**(stride*(n-1-k))`` onto one shared
    denominator, is an integer, so each Horner step in ``num**stride`` is
    one exact integer multiply-add, and a polynomial with ``Fraction``
    coefficients is rendered from its exact value.  Pi-Laurent ones are
    certified in one Ziv loop (A. Ziv, ACM TOMS 17(3), 1991) for all samples
    from p = ``DEFAULT_PRECISION_BITS``: once per p, each coefficient is
    bracketed as c_lo <= c 2**p <= c_hi (:func:`_scaled_bracket`), Horner
    runs on the midpoints c_lo + c_hi over 2**(p+1), and the same Horner on
    the radii c_hi - c_lo at the largest pending |num| bounds every pending
    sample's error (midpoint-radius arithmetic, S. M. Rump, BIT 39, 1999).
    A sample is decided where neither zero nor a rounding boundary lies
    within that bound (:func:`_certified_digits`); the rest run again at
    p * 3/2.  An odd polynomial at x = 0 is exactly 0.  Past
    ``_RATIONAL_CHECK_BITS`` a sample left open, which may be a rational
    zero or tie that no bracket decides, is handed to the per-value loop
    (:func:`_ziv_decimal`) over its exact value at x, which renders a
    rational value exactly.
    """
    stride, offset = poly.family.stride, poly.family.offset
    den_stride = den**stride
    shared = den_stride ** (len(poly) - 1) * den**offset
    if all(isinstance(c, Fraction) for c in poly.coefficients):
        coeffs = [c.as_integer_ratio() for c in reversed(poly.coefficients)]
        scale = lcm(*(q for _, q in coeffs))
        ints = _on_one_denominator([p * (scale // q) for p, q in coeffs], den_stride)
        return [_render(_horner(ints, num, stride, offset), scale * shared, SIG_DIGITS, False, ".0")
                for num in nums]
    out: list = ["0.0" if offset and not num else None for num in nums]
    pending = [i for i, v in enumerate(out) if v is None]
    p = DEFAULT_PRECISION_BITS
    while pending:
        brackets = [_scaled_bracket(c, p) for c in reversed(poly.coefficients)]
        mids = _on_one_denominator([lo + hi for lo, hi in brackets], den_stride)
        radii = _on_one_denominator([hi - lo for lo, hi in brackets], den_stride)
        radius = _horner(radii, max(abs(nums[i]) for i in pending), stride, offset)
        q = shared << p + 1
        for i in pending:
            out[i] = _certified_digits(_horner(mids, nums[i], stride, offset), radius, q)
            if out[i] is None and p > _RATIONAL_CHECK_BITS:
                x = Fraction(nums[i], den)
                value = sum((c * x ** poly.family.basis_power(k)
                             for k, c in enumerate(poly.coefficients, 1)), Fraction(0))
                out[i] = _ziv_decimal(partial(enclose, value), p)[0]
        pending = [i for i in pending if out[i] is None]
        p += p // 2
    return out


# Far past the precision any built-in sample has needed (729 bits).
_RATIONAL_CHECK_BITS = 16384
