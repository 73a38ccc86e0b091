"""Exact scalar arithmetic for kernel construction.

Everything downstream (coefficient matrices, Gram inverses, error variances)
is assembled from two exact carriers, and a value's type is its rationality:

* plain rationals (``fractions.Fraction``) for every value that involves no
  pi -- all of exp(-x)'s moments, Taylor terms, estimates and variances
  included; the one irrational factor, the sqrt(pi) of the Hermite weight,
  is a per-family grade stored once per matrix
  (``GradedMatrix.sqrtpi_power``), never per scalar,
* :class:`PiLaurent` -- a finite sum ``sum_m q_m * pi**m`` with rational
  ``q_m``, used only where a pi power can appear: the trigonometric
  targets' moments, Taylor terms and everything computed from them.  It is
  stored dense, as integer numerators for consecutive pi exponents over one
  denominator, in a canonical form private to this module.

No command evaluates anything through ``mpmath``.  Every certified decimal
comes from one enclosure shape, integers ``(lo, hi, q)`` with lo/q <= value
<= hi/q, and one loop, :func:`_ziv_decimal` (Ziv's), which tightens the
enclosure until every value in it prints alike.  :func:`enclose` gives such
an enclosure of a pi-Laurent value from an integer bracket of pi
(:func:`_pi_bracket`), and ``approx``'s targets give them for f.  The one
binary rounding left, :func:`_round_rational` (integers p/q correctly
rounded to nearest at any precision), serves ``plotdata``'s f at the exact
zeros of sin and cos.  The ``mpmath`` helpers (:func:`eval_pilaurent`,
:func:`to_bigfloat`, :func:`working_mpf`, :func:`mpf_decimal_str`) remain
for the tests and import ``mpmath`` only when called.

Every printed decimal's digits come from one routine, :func:`_round_decimal`:
an exact rational, or the exact binary value of a float, rounded in integers
by one ``divmod`` against a power of ten.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, lcm
from operator import eq
from typing import Iterator, Mapping, Union

DEFAULT_PRECISION_BITS = 256
MIN_PRECISION_BITS = 128
SIG_DIGITS = 17  # of every decimal the package prints

RationalLike = Union[int, Fraction]


def _check_precision(precision_bits: int) -> None:
    if precision_bits < MIN_PRECISION_BITS:
        raise ValueError(
            f"precision_bits must be >= {MIN_PRECISION_BITS}, got {precision_bits}"
        )


def _triple(x: Union[RationalLike, "PiLaurent"]) -> tuple:
    """The canonical triple of a PiLaurent (see :func:`_reduced`); an int or
    Fraction is read as its exponent-0 triple, not lifted to a PiLaurent."""
    if isinstance(x, PiLaurent):
        return x._v
    return 0, (x.numerator,) if x else (), x.denominator


def _exact_operand(op):
    """Run ``op`` on the canonical triples of both operands, so each operation
    makes one :func:`_reduced` call.  Any type but PiLaurent, int and Fraction
    is NotImplemented."""
    def method(self, other):
        if isinstance(other, (PiLaurent, int, Fraction)):
            return op(self._v, _triple(other))
        return NotImplemented
    return method


def _negated(v: tuple) -> tuple:
    low, nums, den = v
    return low, tuple(-n for n in nums), den


def _add(a: tuple, b: tuple) -> "PiLaurent":
    (la, na, da), (lb, nb, db) = a, b
    low, g = min(la, lb), gcd(da, db)
    out = [0] * (max(la + len(na), lb + len(nb)) - low)
    for start, nums, scale in ((la - low, na, db // g), (lb - low, nb, da // g)):
        for i, n in enumerate(nums, start):
            out[i] += n * scale
    return _reduced(low, out, da // g * db)


def _mul(a: tuple, b: tuple) -> "PiLaurent":
    (la, na, da), (lb, nb, db) = a, b
    nonzero_b = [(j, y) for j, y in enumerate(nb) if y]
    out = [0] * (len(na) + len(nb) - 1)
    for i, x in enumerate(na):
        if x:
            for j, y in nonzero_b:
                out[i + j] += x * y
    return _reduced(la + lb, out, da * db)


class PiLaurent:
    """A finite formal sum ``sum_m q_m * pi**m`` with exact rational ``q_m``.

    ``m`` ranges over (possibly negative) integers.  The value is the
    canonical triple ``(low, nums, den)`` for ``sum_i nums[i] * pi**(low+i)
    / den`` (see :func:`_reduced`), so ``==`` is one tuple comparison and
    ``+``/``*`` are integer alignment or convolution and one gcd.
    Instances are immutable.  The package brackets them outward
    (:func:`enclose`); only the tests' :func:`eval_pilaurent` rounds them.
    """

    __slots__ = ("_v",)

    def __new__(cls, terms: Union[RationalLike, Mapping[int, RationalLike], None] = None):
        if isinstance(terms, (int, Fraction)):
            terms = {0: terms}
        qs = {int(m): Fraction(q) for m, q in (terms or {}).items()}
        low, den = min(qs, default=0), lcm(*(q.denominator for q in qs.values()))
        nums = [0] * (max(qs, default=0) - low + 1)
        for m, q in qs.items():
            nums[m - low] = q.numerator * (den // q.denominator)
        return _reduced(low, nums, den)

    def __setattr__(self, name, value):
        raise AttributeError("PiLaurent is immutable")

    @classmethod
    def pi_power(cls, m: int, coefficient: RationalLike = 1) -> "PiLaurent":
        return cls({m: coefficient})

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """Nonzero (exponent, coefficient) pairs in ascending exponent order."""
        low, nums, den = self._v
        return ((low + i, Fraction(n, den)) for i, n in enumerate(nums) if n)

    __add__ = __radd__ = _exact_operand(_add)
    __sub__ = _exact_operand(lambda a, b: _add(a, _negated(b)))
    __rsub__ = _exact_operand(lambda a, b: _add(_negated(a), b))
    __mul__ = __rmul__ = _exact_operand(_mul)
    __eq__ = _exact_operand(eq)

    def __neg__(self):
        return self * -1

    def __bool__(self) -> bool:
        return bool(self._v[1])

    def __hash__(self) -> int:
        # equal values hash equal: a pi-free value (low 0, at most one term) as its Fraction
        low, nums, den = self._v
        return hash(Fraction(sum(nums), den) if low == 0 and len(nums) <= 1 else self._v)

    def __str__(self) -> str:
        parts = []
        for m, q in self.items():
            mag = str(abs(q)) + ("" if m == 0 else "*pi" if m == 1 else f"*pi^{m}")
            parts.append(f"{'-' if q < 0 else '+'} {mag}" if parts else ("-" if q < 0 else "") + mag)
        return " ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"PiLaurent({dict(self.items())!r})"


def _reduced(low: int, nums, den: int) -> PiLaurent:
    """The one constructor: ``sum_i nums[i] * pi**(low+i) / den`` for den > 0, in
    canonical form -- zero end terms dropped, reduced by one ``gcd(den, *nums)``,
    and ``(0, (), 1)`` for zero."""
    nz = [i for i, n in enumerate(nums) if n]
    kept = nums[nz[0]:nz[-1] + 1] if nz else ()
    g = gcd(den, *kept)
    p = object.__new__(PiLaurent)
    object.__setattr__(p, "_v", (low + nz[0] if nz else 0, tuple(n // g for n in kept), den // g))
    return p


Exact = Union[Fraction, PiLaurent]  # a Fraction exactly when no pi appears


def _round_rational(p: int, q: int, prec: int) -> tuple:
    """The raw mpf of p/q (q > 0) correctly rounded to nearest at ``prec`` bits,
    ties to even.

    One ``divmod`` gives a quotient of ``prec + 1`` or ``prec + 2`` bits; the
    bits below the first ``prec`` and the remainder decide the rounding, and
    the trailing zeros of the result are dropped, as an mpf's mantissa is odd.
    """
    if not p:
        return 0, 0, 0, 0
    a = abs(p)
    shift = prec + 1 - a.bit_length() + q.bit_length()
    man, rem = divmod(a << shift, q) if shift >= 0 else divmod(a, q << -shift)
    extra = man.bit_length() - prec
    low, half = man & ((1 << extra) - 1), 1 << extra - 1
    man >>= extra
    if low > half or low == half and (rem or man & 1):
        man += 1
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return int(p < 0), man, zeros + extra - shift, man.bit_length()


def working_mpf(x) -> mpf:
    """x at mpmath's working precision; a Fraction is correctly rounded."""
    from mpmath import mp, mpf

    if isinstance(x, Fraction):
        return mp.make_mpf(_round_rational(x.numerator, x.denominator, mp.prec))
    return mpf(x)


def to_bigfloat(q: RationalLike, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpf:
    """Round an exact rational once, at the requested binary precision."""
    from mpmath import mp

    _check_precision(precision_bits)
    with mp.workprec(precision_bits):
        return working_mpf(Fraction(q))


@lru_cache(maxsize=None)
def _pi_power(wp: int, m: int) -> tuple:
    """The raw mpf ``(+mp.pi)**m`` at working precision ``wp``, computed once."""
    from mpmath import mp

    with mp.workprec(wp):
        return ((+mp.pi) ** m)._mpf_


def eval_pilaurent(p: Exact, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpf:
    """Evaluate ``sum q_m * pi**m`` numerically; a Fraction is the sum ``q_0``.

    At the working precision wp = ``precision_bits + 16`` each ``q_m`` is
    rounded once from its integer numerator, multiplied by pi**m (pi
    correctly rounded at wp) and added in ascending m; the sum is then
    rounded to ``precision_bits``.  The 16 guard bits keep the relative error
    well inside ``2**(8 - precision_bits)`` per term.
    """
    from mpmath import mp
    from mpmath.libmp import fzero, mpf_add, mpf_mul, mpf_pos, round_nearest

    _check_precision(precision_bits)
    low, nums, den = (p if isinstance(p, PiLaurent) else PiLaurent(p))._v
    wp = precision_bits + 16
    acc = fzero
    for m, n in enumerate(nums, low):
        if n:
            term = mpf_mul(_round_rational(n, den, wp), _pi_power(wp, m), wp, round_nearest)
            acc = mpf_add(acc, term, wp, round_nearest)
    return mp.make_mpf(mpf_pos(acc, precision_bits, round_nearest))


_LOG10_2 = 0x4D104D427DE7FBCC  # floor(log10(2) * 2**64)
_small_pow10 = lru_cache(maxsize=None)(lambda s: 10**s)  # for 0 <= s < 1024
_LARGE = [0, 1]  # the last power of ten above 10**1023 made: s, 10**s


def _pow10(s: int) -> int:
    """10**s for s >= 0.  One above 10**1023 is made from the last such one
    when their exponents differ by less than 1024, as along a grid of
    exp(-x) for x near 10**6, so it costs one short product or quotient."""
    if s < 1024:
        return _small_pow10(s)
    last, power = _LARGE
    if 0 <= s - last < 1024:
        power *= _small_pow10(s - last)
    elif 0 < last - s < 1024:
        power //= _small_pow10(last - s)
    else:
        power = 10**s
    _LARGE[:] = s, power
    return power


def _round_decimal(p: int, q: int, sig_digits: int, half_even: bool,
                   radius: int = 0) -> tuple[str, int] | None:
    """|p|/q (p != 0, q > 0) rounded to ``sig_digits`` significant digits,
    ties half to even or half away from zero: the digits, and the decimal
    exponent e of the first.  With a ``radius``, the digits that every value
    within radius/q of |p|/q rounds to, or None when zero or a rounding
    boundary lies that close.

    With b the difference of the bit lengths of |p| and q, |p|/q lies in
    (2**(b-1), 2**(b+1)), so its decimal exponent lies in [e, e + 2] for
    e = floor((b-1) L) - 1, where L = ``_LOG10_2`` / 2**64 is within 2**-64
    of log10 2.  One ``divmod`` by 10**(e + 1 - ``sig_digits``) leaves a
    quotient m of ``sig_digits`` to ``sig_digits + 2`` digits; its extra
    digits and the remainder decide the rounding.  In units of the last kept
    digit the value is m + r/d, and the boundaries nearest it are m +- 1/2,
    at a distance |2r - d| / 2d, and, when m is 10**(sig_digits - 1), the
    half unit of the next lower decade, m - 1/20, at (20r + d) / 20d; the
    radius, in the same units, must stay below both.
    """
    a = abs(p)
    if radius >= a:
        return None
    e = ((a.bit_length() - q.bit_length() - 1) * _LOG10_2 >> 64) - 1
    s = e + 1 - sig_digits
    if s >= 0:
        d = q * _pow10(s)
    else:
        scale = _pow10(-s)
        a, d, radius = a * scale, q, radius * scale
    m, r = divmod(a, d)
    digits = str(m)
    extra = len(digits) - sig_digits
    if extra:
        ten = _pow10(extra)
        m, tail = divmod(m, ten)
        r, d, e = tail * d + r, d * ten, e + extra
    r += r
    if radius and (abs(r - d) <= 2 * radius
                   or 10 * r + d <= 20 * radius and m == _pow10(sig_digits - 1)):
        return None
    if r > d or r == d and (m & 1 or not half_even):
        m += 1
        if m == _pow10(sig_digits):
            m, e = m // 10, e + 1
        return str(m), e
    return digits[:sig_digits], e


def _certified_digits(mid: int, radius: int, q: int) -> str | None:
    """The decimal, ``SIG_DIGITS`` digits half away from zero, that every
    value in [(mid - radius)/q, (mid + radius)/q] prints as; None when zero
    or a rounding boundary lies in that interval.  One ``divmod``, by
    ``_round_decimal``."""
    found = _round_decimal(mid, q, SIG_DIGITS, False, radius)
    return found and _format_decimal(mid < 0, *found, ".0")


def _format_decimal(negative: bool, digits: str, e: int, empty_fraction: str) -> str:
    """``digits`` with the first at decimal exponent e: fixed-point when
    -5 < e < ``len(digits)``, else as ``d.ddd`` plus ``e{e:+d}``; trailing zeros
    are stripped, and an empty fractional part prints as ``empty_fraction``."""
    sig_digits, digits = len(digits), digits.rstrip("0")
    if not -5 < e < sig_digits:
        body = digits[0] + ("." + digits[1:] if digits[1:] else empty_fraction) + f"e{e:+d}"
    elif e < 0:
        body = "0." + "0" * (-e - 1) + digits
    elif len(digits) > e + 1:
        body = digits[: e + 1] + "." + digits[e + 1 :]
    else:
        body = digits.ljust(e + 1, "0") + empty_fraction
    return "-" + body if negative else body


def _render(p: int, q: int, sig_digits: int, half_even: bool, empty_fraction: str) -> str:
    """p/q (q > 0) rounded to ``sig_digits`` significant digits by
    :func:`_round_decimal` and printed by :func:`_format_decimal`; zero is
    ``"0" + empty_fraction``."""
    if not p:
        return "0" + empty_fraction
    return _format_decimal(p < 0, *_round_decimal(p, q, sig_digits, half_even), empty_fraction)


def decimal_str(q: RationalLike, sig_digits: int = SIG_DIGITS) -> str:
    """Exact rational -> decimal string with ``sig_digits`` significant digits,
    rounded half to even: "9/2" -> "4.5", 288 -> "288", 10**-20 -> "1e-20"."""
    return _render(*Fraction(q).as_integer_ratio(), sig_digits, True, "")


@lru_cache(maxsize=None)
def _pi_bracket(p: int) -> tuple[int, int]:
    """Integers lo < hi with lo <= pi * 2**p <= hi, from Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) at w = p + 32 bits.

    Proof.  atan(1/x) = sum_k (-1)**k / ((2k+1) x**(2k+1)) alternates with
    decreasing terms.  With t_k = floor(2**w / x**(2k+1)) (so t_{k+1} =
    t_k // x**2, since nested floors of positive integers compose), term k
    times 2**w is taken as s_k = t_k // (2k+1), within [0, 1) of its true
    value.  The sum stops at the first t_K = 0: each omitted term is then
    below 1 in magnitude, and so is their alternating sum.  Hence
    S_x = sum_{k<K} (-1)**k s_k is within K + 1 of 2**w atan(1/x), and
    16 S_5 - 4 S_239 within E = 16 (K_5 + 1) + 4 (K_239 + 1) of pi * 2**w.
    So lo = floor((16 S_5 - 4 S_239 - E) / 2**32) and hi = ceil((16 S_5 -
    4 S_239 + E) / 2**32) hold pi * 2**p; lo < hi as pi * 2**p is no integer.
    """
    total = err = 0
    for weight, x in ((16, 5), (-4, 239)):
        t, k, s = (1 << p + 32) // x, 0, 0
        while t:
            s += (-1) ** k * (t // (2 * k + 1))
            t //= x * x
            k += 1
        total, err = total + weight * s, err + abs(weight) * (k + 1)
    return (total - err) >> 32, -((-total - err) >> 32)


def enclose(value: Exact, p: int) -> tuple[int, int, int]:
    """Integers ``(lo, hi, q)``, q > 0, with lo/q <= value <= hi/q, whose
    width shrinks like 2**-p; lo == hi exactly when the value is free of pi,
    and such a value num/den (in lowest terms) is ``(num, num, den)`` at
    every p.

    Otherwise, with ``sum_i nums[i] * pi**(low+i) / den`` the canonical
    triple, the value is N / D, N 2**p times the polynomial
    ``sum_i nums[i] * pi**i`` (times pi**low when low > 0) and D = 2**p *
    den (times pi**-low when low < 0).  Each is bracketed, N in [n_lo,
    n_hi] and D in [d_lo, d_hi], 0 < d_lo, by an interval Horner on
    :func:`_pi_bracket` whose every step floors the low end and ceils the
    high end.  When the nonzero numerators sit at exponents of one parity,
    Horner steps in pi**2, half as many steps.  Proof of the shape: N / D
    >= n_lo / d_hi if n_lo >= 0, else >= n_lo / d_lo, and N / D <= n_hi /
    d_lo if n_hi >= 0, else <= n_hi / d_hi; so over q = d_lo d_hi, lo =
    n_lo (d_lo if n_lo >= 0 else d_hi) and hi = n_hi (d_hi if n_hi >= 0
    else d_lo).
    """
    low, nums, den = _triple(value)
    if low == 0 and len(nums) <= 1:
        num = nums[0] if nums else 0
        return num, num, den
    pi_lo, pi_hi = _pi_bracket(p)
    step = 2 if not any(nums[1::2]) else 1
    s_lo, s_hi = (pi_lo, pi_hi) if step == 1 else (pi_lo * pi_lo >> p, -(-pi_hi * pi_hi >> p))

    def times(lo, hi, c_lo, c_hi):  # [lo, hi] * [c_lo, c_hi] / 2**p outward, for 0 < c_lo
        return lo * (c_lo if lo >= 0 else c_hi) >> p, -(-hi * (c_hi if hi >= 0 else c_lo) >> p)

    coeffs = nums[::step]
    n_lo = n_hi = coeffs[-1] << p
    for n in reversed(coeffs[:-1]):
        n_lo, n_hi = times(n_lo, n_hi, s_lo, s_hi)
        n_lo, n_hi = n_lo + (n << p), n_hi + (n << p)
    d_lo = d_hi = den << p
    for c_lo, c_hi in [(s_lo, s_hi)] * (abs(low) // step) + [(pi_lo, pi_hi)] * (abs(low) % step):
        if low > 0:
            n_lo, n_hi = times(n_lo, n_hi, c_lo, c_hi)
        else:
            d_lo, d_hi = times(d_lo, d_hi, c_lo, c_hi)
    return n_lo * (d_lo if n_lo >= 0 else d_hi), n_hi * (d_hi if n_hi >= 0 else d_lo), d_lo * d_hi


def _ziv_decimal(enclosure_at, p: int) -> tuple[str, int]:
    """A value rounded half away from zero to ``SIG_DIGITS`` significant
    digits ("1.0", "1.0e-20"), and the precision that decided it, from
    ``enclosure_at(p) -> (lo, hi, q)`` with lo/q <= value <= hi/q.

    Ziv's loop (A. Ziv, ACM TOMS 17(3), 1991): an exact enclosure, lo == hi,
    is rendered; else the decimal is taken where every value in the
    enclosure prints alike (:func:`_certified_digits`), and else p grows by
    half.  It ends once the width shrinks to 0 as p grows, unless the value
    is zero or a decimal tie that no p encloses exactly.
    """
    while True:
        lo, hi, q = enclosure_at(p)
        if lo == hi:
            return _render(lo, q, SIG_DIGITS, False, ".0"), p
        text = _certified_digits(lo + hi, hi - lo, 2 * q)
        if text:
            return text, p
        p += p // 2


def certified_decimal_str(value: Exact, precision_bits: int) -> tuple[str, int]:
    """The exact value rounded half away from zero to ``SIG_DIGITS``
    significant digits ("1.0", "1.0e-20"), and the precision that decided
    it: :func:`_ziv_decimal` over ``enclose(value, p)`` from p =
    ``precision_bits``.  A value free of pi encloses exactly, zero as "0.0";
    one with a pi term is transcendental (pi is), so it is no decimal tie
    and nonzero, and the loop ends.
    """
    return _ziv_decimal(partial(enclose, value), precision_bits)


def _raw_ratio(raw: tuple) -> tuple[int, int]:
    """The exact value of a finite raw mpf as integers p/q, q a power of two."""
    sign, man, exp, _ = raw
    if not man and exp:
        raise ValueError(f"non-finite value: raw mpf {raw}")
    return (-man if sign else man) << max(exp, 0), 1 << max(-exp, 0)


def mpf_decimal_str(x: mpf) -> str:
    """An mpf's exact binary value as a decimal string with ``SIG_DIGITS``
    significant digits, rounded half away from zero: "1.0", "1.0e-20"."""
    return _render(*_raw_ratio(x._mpf_), SIG_DIGITS, False, ".0")
