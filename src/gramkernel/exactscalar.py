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
only lossy operation in the package and is confined to this module.  Every
rational is turned into a binary float by one helper, :func:`_round_rational`
(integers p/q correctly rounded to nearest at any precision).

Every printed decimal comes from one renderer, :func:`_render`: an exact
rational, or the exact binary value of an mpf, rounded by one correctly
rounded ``decimal`` division.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterator, Mapping, Union

from mpmath import mp, mpf
from mpmath.libmp import fzero, mpf_add, mpf_mul, mpf_pos, normalize, round_nearest

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


def _round_rational(p: int, q: int, prec: int) -> tuple:
    """The raw mpf of p/q (q > 0) correctly rounded to nearest at ``prec`` bits.

    One ``divmod`` gives a quotient of at least ``prec + 2`` bits; a nonzero
    remainder becomes one sticky bit below it, so ``normalize`` rounds a true
    tie to even and anything past it up.
    """
    if not p:
        return fzero
    shift = max(0, prec + 2 - p.bit_length() + q.bit_length())
    man, rem = divmod(abs(p) << shift, q)
    if rem:
        man, shift = man << 1 | 1, shift + 1
    return normalize(int(p < 0), man, -shift, man.bit_length(), prec, round_nearest)


def working_mpf(x) -> mpf:
    """x at mpmath's working precision; a Fraction is correctly rounded."""
    if isinstance(x, Fraction):
        return mp.make_mpf(_round_rational(x.numerator, x.denominator, mp.prec))
    return mpf(x)


def to_bigfloat(q: RationalLike, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpf:
    """Round an exact rational once, at the requested binary precision."""
    _check_precision(precision_bits)
    with mp.workprec(precision_bits):
        return working_mpf(Fraction(q))


@lru_cache(maxsize=None)
def _pi_power(wp: int, m: int) -> tuple:
    """The raw mpf ``(+mp.pi)**m`` at working precision ``wp``, computed once."""
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
    _check_precision(precision_bits)
    low, nums, den = (p if isinstance(p, PiLaurent) else PiLaurent(p))._v
    wp = precision_bits + 16
    acc = fzero
    for m, n in enumerate(nums, low):
        if n:
            term = mpf_mul(_round_rational(n, den, wp), _pi_power(wp, m), wp, round_nearest)
            acc = mpf_add(acc, term, wp, round_nearest)
    return mp.make_mpf(mpf_pos(acc, precision_bits, round_nearest))


@lru_cache(maxsize=None)
def _context(sig_digits: int, rounding: str) -> Context:
    """The decimal context for one digit count and rounding mode, built once;
    its exponent range is the widest, so no finite value overflows."""
    return Context(prec=sig_digits, rounding=rounding, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _render(p: int, q: int, sig_digits: int, rounding: str, empty_fraction: str) -> str:
    """p/q (q > 0) rounded to ``sig_digits`` significant digits under ``rounding``.

    ``Decimal`` of an int is exact and ``Context.divide`` correctly rounded, so
    these are the digits of the exact value.  With e the decimal exponent after
    rounding, it prints fixed-point when -5 < e < ``sig_digits``, else as
    ``d.ddd`` plus ``e{e:+d}``; trailing zeros are stripped, and an empty
    fractional part prints as ``empty_fraction`` (zero as ``"0" + empty_fraction``).
    """
    ctx = _context(sig_digits, rounding)
    if not p:
        return "0" + empty_fraction
    # both roundings are symmetric in the sign, so |p|/q is rounded
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


def decimal_str(q: RationalLike, sig_digits: int = SIG_DIGITS) -> str:
    """Exact rational -> decimal string with ``sig_digits`` significant digits,
    rounded half to even: "9/2" -> "4.5", 288 -> "288", 10**-20 -> "1e-20"."""
    return _render(*Fraction(q).as_integer_ratio(), sig_digits, ROUND_HALF_EVEN, "")


def _mpf_ratio(x: mpf) -> tuple[int, int]:
    """The exact value of a finite mpf as integers p/q, q a power of two."""
    sign, man, exp, _ = x._mpf_
    if not man and exp:
        raise ValueError(f"non-finite value {x}")
    return (-man if sign else man) << max(exp, 0), 1 << max(-exp, 0)


def mpf_decimal_str(x: mpf) -> str:
    """An mpf's exact binary value as a decimal string with ``SIG_DIGITS``
    significant digits, rounded half away from zero: "1.0", "1.0e-20"."""
    return _render(*_mpf_ratio(x), SIG_DIGITS, ROUND_HALF_UP, ".0")
