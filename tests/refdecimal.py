"""A test-only decimal oracle, independent of the package's renderer and of
its pi enclosures.

``reference(value, half_even)`` is the 17-significant-digit decimal of an
exact value in its column's rule: half to even with nothing after a whole
number (``decimal_str``'s rule: ``cond``'s decimal, ``plotdata``'s x), or
half away from zero with ``.0`` after a whole number (every other column).

* A ``Fraction`` is rounded by integer arithmetic.
* A ``PiLaurent`` is summed term by term by a plain ``mpmath`` loop at 4096
  and at 8192 bits; the exact binary value of each sum is rounded the same
  way, and the value is accepted only when both agree.

``bounds(value, bits)`` is a rational bracket of a ``PiLaurent`` from a
rational bracket of pi of width ``2**-bits``, term by term.

``function_reference(target, x)`` is the decimal of f(x) for a ``plotdata``
target at a rational x, by ``mpmath``'s ``sinpi``, ``cospi`` and ``exp`` at
4096 and at 8192 bits, accepted only when both agree.

``decimal_render(p, q, sig_digits, half_even, empty_fraction)`` is the
package's renderer as it was written on ``decimal``: one correctly rounded
``Context.divide`` and the digits of its ``e`` format.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from math import lcm, log10

import mpmath

SIG_DIGITS = 17
PRECISIONS = (4096, 8192)


def render(q: Fraction, half_even: bool, digits: int = SIG_DIGITS) -> str:
    """The exact rational q rounded to ``digits`` significant digits, printed
    fixed-point for decimal exponents -5 < e < ``digits``, else ``d.ddde+XX``,
    with trailing zeros stripped."""
    empty = "" if half_even else ".0"
    if q == 0:
        return "0" + empty
    sign, q = "-" * (q < 0), abs(q)
    e = int(log10(q.numerator) - log10(q.denominator))
    while q >= Fraction(10) ** (e + 1):
        e += 1
    while q < Fraction(10) ** e:
        e -= 1
    scaled = q / Fraction(10) ** (e - digits + 1)  # in [10**(digits-1), 10**digits)
    m, rest = divmod(scaled.numerator, scaled.denominator)
    if 2 * rest > scaled.denominator or 2 * rest == scaled.denominator and (not half_even or m % 2):
        m += 1
    if m == 10**digits:
        m, e = m // 10, e + 1
    s = str(m).rstrip("0")
    if not -5 < e < digits:
        whole, frac, suffix = s[0], s[1:], f"e{e:+d}"
    elif e >= 0:
        whole, frac, suffix = s[: e + 1].ljust(e + 1, "0"), s[e + 1 :], ""
    else:
        whole, frac, suffix = "0", "0" * (-e - 1) + s, ""
    return sign + whole + ("." + frac if frac else empty) + suffix


def _mpmath_sum(value, bits: int) -> Fraction:
    """sum_m q_m * pi**m by mpmath at ``bits``, as the exact value of the float."""
    with mpmath.workprec(bits):
        acc = mpmath.mpf(0)
        for m, q in value.items():
            acc += mpmath.mpf(q.numerator) / q.denominator * mpmath.pi**m
    return _exact(acc)


def _exact(x) -> Fraction:
    """The exact value of a finite mpf."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp if man else Fraction(0)


@lru_cache(maxsize=None)
def reference(value, half_even: bool = False) -> str:
    """The decimal every renderer of ``value`` must print (see the module)."""
    if isinstance(value, (int, Fraction)):
        return render(Fraction(value), half_even)
    texts = {render(_mpmath_sum(value, bits), half_even) for bits in PRECISIONS}
    if len(texts) != 1:
        raise AssertionError(f"oracle undecided for {value!r}: {sorted(texts)}")
    return texts.pop()


@lru_cache(maxsize=None)
def _pi_power(bits: int, m: int) -> tuple[int, int]:
    """lo <= pi**m * 2**bits <= hi, from pi * 2**bits in [lo, lo + 1] (mpmath's
    pi at 64 bits more) or, for m < 0, the bracket of 1/pi it implies; each
    further factor rounds outward."""
    one = 1 << bits
    if m == 0:
        return one, one
    with mpmath.workprec(bits + 64):
        p_lo = int(mpmath.floor(mpmath.pi * mpmath.mpf(2) ** bits))
    b_lo, b_hi = (p_lo, p_lo + 1) if m > 0 else (one * one // (p_lo + 1), -(-one * one // p_lo))
    w_lo, w_hi = _pi_power(bits, m - 1 if m > 0 else m + 1)
    return w_lo * b_lo >> bits, -(-w_hi * b_hi >> bits)


def bounds(value, bits: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= value <= hi for a ``PiLaurent`` (or rational) value:
    each term q_m * pi**m takes the end of pi**m's bracket (see
    :func:`_pi_power`) that the sign of q_m calls for."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value), Fraction(value)
    terms = list(value.items())
    den = lcm(*(q.denominator for _, q in terms))
    lo_sum = hi_sum = 0
    for m, q in terms:
        w_lo, w_hi = _pi_power(bits, m)
        n = q.numerator * (den // q.denominator)
        lo_sum += n * (w_lo if n > 0 else w_hi)
        hi_sum += n * (w_hi if n > 0 else w_lo)
    return Fraction(lo_sum, den << bits), Fraction(hi_sum, den << bits)


FUNCTIONS = {"sin-pi": mpmath.sinpi, "cos-pi": mpmath.cospi, "exp-neg": lambda x: mpmath.exp(-x)}


@lru_cache(maxsize=None)
def function_reference(target: str, x: Fraction) -> str:
    """f(x) rounded half away from zero, as ``plotdata`` prints it (see the module)."""
    texts = set()
    for bits in PRECISIONS:
        with mpmath.workprec(bits):
            value = FUNCTIONS[target](mpmath.mpf(x.numerator) / x.denominator)
        texts.add(render(_exact(value), False))
    if len(texts) != 1:
        raise AssertionError(f"oracle undecided for {target} at {x}: {sorted(texts)}")
    return texts.pop()


def decimal_render(p: int, q: int, sig_digits: int, half_even: bool, empty_fraction: str) -> str:
    """p/q (q > 0) to ``sig_digits`` digits by ``decimal`` (see the module)."""
    ctx = Context(prec=sig_digits, rounding=ROUND_HALF_EVEN if half_even else ROUND_HALF_UP,
                  Emax=MAX_EMAX, Emin=MIN_EMIN)
    if not p:
        return "0" + empty_fraction
    mantissa, _, exp = f"{ctx.divide(Decimal(abs(p)), Decimal(q)):e}".partition("e")
    e, s = int(exp), mantissa.replace(".", "").rstrip("0")
    if not -5 < e < sig_digits:
        whole, frac, suffix = s[0], s[1:], f"e{e:+d}"
    elif e >= 0:
        s = s.ljust(e + 1, "0")
        whole, frac, suffix = s[: e + 1], s[e + 1 :], ""
    else:
        whole, frac, suffix = "0", "0" * (-e - 1) + s, ""
    return "-" * (p < 0) + whole + ("." + frac if frac else empty_fraction) + suffix
