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

Numeric evaluation (``mpmath`` at a caller-chosen binary precision) is the
only lossy operation in the package and is confined to this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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


def _exact_operand(op):
    """Lift an int or Fraction operand to PiLaurent; any other type is NotImplemented."""
    def method(self, other):
        if isinstance(other, (int, Fraction)):
            other = _reduced(0, (other.numerator,), other.denominator)
        return op(self, other) if isinstance(other, PiLaurent) else NotImplemented
    return method


class PiLaurent:
    """A finite formal sum ``sum_m q_m * pi**m`` with exact rational ``q_m``.

    ``m`` ranges over (possibly negative) integers.  The value is the
    canonical triple ``(low, nums, den)`` for ``sum_i nums[i] * pi**(low+i)
    / den`` (see :func:`_reduced`), so ``==`` is one tuple comparison and
    ``+``/``*`` are integer alignment or convolution and one gcd.
    Instances are immutable; :func:`eval_pilaurent` is the only step that rounds.
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

    @_exact_operand
    def __add__(self, other):
        (la, na, da), (lb, nb, db) = self._v, other._v
        low, g = min(la, lb), gcd(da, db)
        out = [0] * (max(la + len(na), lb + len(nb)) - low)
        for start, nums, scale in ((la - low, na, db // g), (lb - low, nb, da // g)):
            for i, n in enumerate(nums, start):
                out[i] += n * scale
        return _reduced(low, out, da // g * db)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    @_exact_operand
    def __sub__(self, other):
        return self + -other

    @_exact_operand
    def __rsub__(self, other):
        return other + -self

    @_exact_operand
    def __mul__(self, other):
        (la, na, da), (lb, nb, db) = self._v, other._v
        out = [0] * (len(na) + len(nb) - 1)
        for i, x in enumerate(na):
            if x:
                for j, y in enumerate(nb, i):
                    out[j] += x * y
        return _reduced(la + lb, out, da * db)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self._v[1])

    @_exact_operand
    def __eq__(self, other) -> bool:
        return self._v == other._v

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

    # decimal exponent e with 10**e <= a < 10**(e+1), found in integers: with
    # n, d of k, l digits, 10**(k-l-1) < a < 10**(k-l+1), so e is k-l or k-l-1
    n, d = a.numerator, a.denominator
    e = len(str(n)) - len(str(d))
    if n * 10 ** max(-e, 0) < d * 10 ** max(e, 0):
        e -= 1

    shift = sig_digits - 1 - e
    scaled, den = n * 10 ** max(shift, 0), d * 10 ** max(-shift, 0)
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
