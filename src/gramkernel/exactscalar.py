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
  targets' moments, Taylor terms and everything computed from them.

Numeric evaluation (``mpmath`` at a caller-chosen binary precision) is the
only lossy operation in the package and is confined to this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Union

from mpmath import mp, mpf, nstr
from mpmath.libmp import from_rational, round_nearest

DEFAULT_PRECISION_BITS = 256
MIN_PRECISION_BITS = 128
SIG_DIGITS = 17  # of every decimal the package prints

RationalLike = Union[int, Fraction]


def _check_precision(precision_bits: int) -> None:
    if precision_bits < MIN_PRECISION_BITS:
        raise ValueError(
            f"precision_bits must be >= {MIN_PRECISION_BITS}, got {precision_bits}"
        )


def gamma_ratio(base_half: RationalLike, steps: int) -> Fraction:
    """Rising product ``base*(base+1)*...*(base+steps-1)`` of a half-integer.

    This equals ``Gamma(base+steps)/Gamma(base)`` without evaluating Gamma,
    so ratios of half-integer Gamma values stay exact rationals.  The empty
    product (``steps == 0``) is 1.
    """
    base = Fraction(base_half)
    if base <= 0 or base.denominator not in (1, 2):
        raise ValueError(f"base must be a positive half-integer, got {base}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    out = Fraction(1)
    for m in range(steps):
        out *= base + m
    return out


class PiLaurent:
    """A finite formal sum ``sum_m q_m * pi**m`` with exact rational ``q_m``.

    ``m`` ranges over (possibly negative) integers.  Instances are immutable;
    addition and multiplication are exact ring operations, and
    :func:`eval_pilaurent` is the only step that rounds.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[RationalLike, Mapping[int, RationalLike], None] = None):
        if terms is None:
            data = {}
        elif isinstance(terms, (int, Fraction)):
            data = {0: Fraction(terms)}
        else:
            data = {int(m): Fraction(q) for m, q in terms.items()}
        object.__setattr__(self, "_terms", {m: q for m, q in data.items() if q != 0})

    def __setattr__(self, name, value):
        raise AttributeError("PiLaurent is immutable")

    @classmethod
    def pi_power(cls, m: int, coefficient: RationalLike = 1) -> "PiLaurent":
        return cls({m: coefficient})

    @property
    def terms(self) -> dict[int, Fraction]:
        """Copy of the nonzero terms, keyed by pi exponent."""
        return dict(self._terms)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """Nonzero (exponent, coefficient) pairs in ascending exponent order."""
        return iter(sorted(self._terms.items()))

    def _coerce(self, other) -> "PiLaurent":
        if isinstance(other, PiLaurent):
            return other
        if isinstance(other, (int, Fraction)):
            return PiLaurent(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for m, q in other._terms.items():
            out[m] = out.get(m, Fraction(0)) + q
        return PiLaurent(out)

    __radd__ = __add__

    def __neg__(self):
        return PiLaurent({m: -q for m, q in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, Fraction] = {}
        for ma, qa in self._terms.items():
            for mb, qb in other._terms.items():
                m = ma + mb
                out[m] = out.get(m, Fraction(0)) + qa * qb
        return PiLaurent(out)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m, q in self.items():
            mag = str(abs(q)) if m == 0 else f"{abs(q)}*pi^{m}" if m != 1 else f"{abs(q)}*pi"
            if not parts:
                parts.append(mag if q > 0 else f"-{mag}")
            else:
                parts.append(f"+ {mag}" if q > 0 else f"- {mag}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"PiLaurent({dict(sorted(self._terms.items()))!r})"


Exact = Union[Fraction, PiLaurent]  # a Fraction exactly when no pi appears


def working_mpf(x) -> mpf:
    """x at mpmath's working precision; a Fraction is correctly rounded."""
    if isinstance(x, Fraction):
        return mp.make_mpf(from_rational(x.numerator, x.denominator, mp.prec, round_nearest))
    return mpf(x)


def to_bigfloat(q: RationalLike, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpf:
    """Round an exact rational once, at the requested binary precision."""
    _check_precision(precision_bits)
    with mp.workprec(precision_bits):
        return working_mpf(Fraction(q))


def eval_pilaurent(p: Exact, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpf:
    """Evaluate ``sum q_m * pi**m`` numerically; a Fraction is the sum ``q_0``.

    pi is taken correctly rounded at the working precision; 16 guard bits
    ahead of the final rounding keep the relative error well inside
    ``2**(8 - precision_bits)`` per term.
    """
    _check_precision(precision_bits)
    if not isinstance(p, PiLaurent):
        p = PiLaurent(p)
    with mp.workprec(precision_bits + 16):
        pi_val = +mp.pi
        acc = mpf(0)
        for m, q in p.items():
            acc += working_mpf(q) * pi_val**m
    with mp.workprec(precision_bits):
        return +acc


def decimal_str(q: RationalLike, sig_digits: int = SIG_DIGITS) -> str:
    """Exact rational -> decimal string with ``sig_digits`` significant digits.

    Rounding is half-to-even at the last kept digit, computed with integer
    arithmetic only.  Trailing zeros are stripped, so values that terminate
    within the budget render exactly ("9/2" -> "4.5").
    """
    if sig_digits < 1:
        raise ValueError("sig_digits must be >= 1")
    q = Fraction(q)
    if q == 0:
        return "0"
    sign = "-" if q < 0 else ""
    a = abs(q)

    # decimal exponent e with 10**e <= a < 10**(e+1), found exactly
    e = len(str(a.numerator)) - len(str(a.denominator))
    while Fraction(10) ** e > a:
        e -= 1
    while Fraction(10) ** (e + 1) <= a:
        e += 1

    shift = sig_digits - 1 - e
    scaled = a.numerator * 10**shift if shift >= 0 else a.numerator
    den = a.denominator if shift >= 0 else a.denominator * 10**(-shift)
    digits, rem = divmod(scaled, den)
    if 2 * rem > den or (2 * rem == den and digits % 2 == 1):
        digits += 1
    if digits >= 10**sig_digits:  # rounding carried into a new leading digit
        digits //= 10
        e += 1

    s = str(digits).rjust(sig_digits, "0")
    if -4 <= e < sig_digits:
        if e >= 0:
            int_part, frac_part = s[: e + 1], s[e + 1 :].rstrip("0")
            body = f"{int_part}.{frac_part}" if frac_part else int_part
        else:
            body = "0." + "0" * (-e - 1) + s.rstrip("0")
        return sign + body
    mantissa = s[0] + ("." + s[1:].rstrip("0") if s[1:].rstrip("0") else "")
    return f"{sign}{mantissa}e{e:+d}"


def mpf_decimal_str(x: mpf, sig_digits: int = SIG_DIGITS) -> str:
    """Decimal rendering of an mpmath float at the given significant digits."""
    return nstr(x, sig_digits)
