"""The five classical kernel families and their exact ingredients.

Each family is a monomial basis attached to a weighted domain.  On the two
symmetric domains the even and odd monomials are mutually orthogonal, so
Legendre and Hermite each split into an even and an odd family; Laguerre's
half-line keeps the full basis.  For every family this module produces, in
exact arithmetic:

* ``coeff_rows`` -- A, the family's orthogonal polynomials in ascending
  monomial powers, as integer rows (``coeff_matrix`` is its rational view),
* ``norm_vector``  -- the true squared weighted L2 norms of those
  polynomials,
* ``monomial_moment`` -- the weighted moments that define the Gram matrix.

Norms and moments are returned as rational cores: each true value is the
core times ``sqrt(pi)**family.moment_grade``.  Rows of A and the moments
do not depend on the matrix size, so each is computed once per process.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import comb, factorial, gcd, lcm
from operator import attrgetter


class Record:
    """Base of the package's records: a frozen dataclass without the
    ``dataclasses`` import.  Fields (two or more) are a subclass's
    annotations, in order; a default is the class attribute of that name.  A record is built by
    position or keyword, refuses assignment, and has the dataclass ``==``,
    ``repr`` and ``hash`` (computed once).  Caches in ``__dict__`` (the hash,
    ``cleared_rows``) are no fields, and :meth:`replace` drops them."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._values = attrgetter(*cls._fields)
        cls._names = frozenset(cls._fields)
        cls._required = cls._names.difference(cls.__dict__)
        # the fewest positional arguments that give every field without a default
        cls._least = max(map(cls._fields.index, cls._required), default=-1) + 1

    def __init__(self, *args, **kwargs) -> None:
        # one new dict: filled key by key, the instance's own would stay a
        # split table, whose attributes read about three times slower
        given = dict(zip(self._fields, args), **kwargs)
        object.__setattr__(self, "__dict__", given)
        if kwargs:  # no field given twice, no other name, no field without a default left out
            valid = (len(given) == len(args) + len(kwargs)
                     and self._required <= given.keys() <= self._names)
        else:
            valid = self._least <= len(args) <= len(self._fields)
        if not valid:
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes) -> Record:
        """A copy with ``changes`` to some fields, and none of the caches."""
        values = tuple(map(changes.pop, self._fields, self._values(self)))
        return type(self)(*values, **changes)  # a name left in changes is no field


class Family(Record):
    """A monomial basis over one of the three classical weighted domains.

    The 1-based basis element ``i`` is ``x**(stride*(i-1)+offset)``:
    stride 1/offset 0 for Laguerre, stride 2 with offset 0 (even) or 1
    (odd) on the symmetric domains.  ``moment_grade`` is the sqrt(pi) power
    every nonzero weighted moment carries (1 for Hermite, else 0); the Gram
    matrix and the norms share it and the kernel carries its negative.
    """

    name: str
    measure: str  # "laguerre" | "legendre" | "hermite"
    stride: int
    offset: int
    moment_grade: int = 0

    def basis_power(self, i: int) -> int:
        """Monomial power of the 1-based basis element ``i``."""
        return self.stride * (i - 1) + self.offset


LAGUERRE = Family("laguerre", "laguerre", 1, 0)
LEGENDRE_EVEN = Family("legendre-even", "legendre", 2, 0)
LEGENDRE_ODD = Family("legendre-odd", "legendre", 2, 1)
HERMITE_EVEN = Family("hermite-even", "hermite", 2, 0, 1)
HERMITE_ODD = Family("hermite-odd", "hermite", 2, 1, 1)

ALL_FAMILIES = (LAGUERRE, LEGENDRE_EVEN, LEGENDRE_ODD, HERMITE_EVEN, HERMITE_ODD)
FAMILIES = {f.name: f for f in ALL_FAMILIES}


def family_by_name(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; expected one of {sorted(FAMILIES)}"
        ) from None


@lru_cache(maxsize=None)
def double_factorial(m: int) -> int:
    """m!! with the empty-product conventions (-1)!! = 0!! = 1."""
    if m < -1:
        raise ValueError("double factorial needs m >= -1")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


class GradedMatrix(Record):
    """An exact n x n matrix over a family's basis, with one sqrt(pi) grade.

    ``entries`` holds the rational core; every entry is that rational times
    ``sqrt(pi)**sqrtpi_power``.  The same type carries the coefficient
    matrix A (grade 0), the moment Gram matrix G (the family's moment grade)
    and the kernel B = G**-1 (its negative).
    """

    family: Family
    n: int
    entries: tuple[tuple[Fraction, ...], ...]
    sqrtpi_power: int = 0

    @cached_property
    def cleared_rows(self) -> list[tuple[list[int], int]]:
        """Each row of ``entries`` cleared (see ``_cleared``), once per matrix."""
        return [_cleared(row) for row in self.entries]


def _cleared(line: Sequence) -> tuple[list[int], int]:
    """``line`` as integers over one denominator d, the lcm of its own."""
    ratios = [q.as_integer_ratio() for q in line]
    d = lcm(*[den for _, den in ratios])
    return [num * (d // den) for num, den in ratios], d


@lru_cache(maxsize=None)
def _coeff_row(family: Family, i: int) -> tuple[tuple[int, ...], int]:
    """Row i of A to its diagonal, in integers over one denominator.  With n = p_i
    and k = p_j, a_i,j+1 / a_ij is -(n-k)/(k+1)**2 (Laguerre), -(n-k)(n+k+1) /
    ((k+1)(k+2)) (Legendre) or -2(n-k)/((k+1)(k+2)) (Hermite), each step exact over
    n!, 2**n or 1 (multiples of the row's denominators).  One gcd then leaves
    ``_cleared`` of the row, the only form sharing no factor with its denominator."""
    n, off = family.basis_power(i), family.offset
    if family.measure == "laguerre":
        d = first = factorial(n)
        step = lambda c, k: c * (k - n) // (k + 1) ** 2
    elif family.measure == "legendre":
        d, m = 1 << n, i - 1 + off
        first = (-1) ** (i - 1) * comb(2 * m, m) * m**off
        step = lambda c, k: c * ((k - n) * (n + k + 1)) // ((k + 1) * (k + 2))
    else:
        d, first = 1, (-1) ** (i - 1) * factorial(n) // factorial(i - 1) << off
        step = lambda c, k: c * (2 * (k - n)) // ((k + 1) * (k + 2))
    row = list(accumulate(range(off, n, family.stride), step, initial=first))
    g = gcd(d, *reversed(row))  # the diagonal first: gcd stops early once it is 1
    return tuple(c // g for c in row), d // g


def coeff_rows(family: Family, n: int) -> list[tuple[tuple[int, ...], int]]:
    """Rows 1..n of A, row i as i integers over one denominator (``_coeff_row``)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [_coeff_row(family, i) for i in range(1, n + 1)]


def coeff_matrix(family: Family, n: int) -> GradedMatrix:
    """A for the first ``n`` polynomials as ``Fraction``s, the view of
    :func:`coeff_rows` that the package exports and the tests read: lower
    triangular, with a diagonal that never vanishes."""
    zero = (Fraction(0),)
    return GradedMatrix(family, n, tuple(
        tuple(Fraction(c, d) for c in ints) + zero * (n - len(ints))
        for ints, d in coeff_rows(family, n)))


def norm_vector(family: Family, n: int) -> tuple[Fraction, ...]:
    """True squared norms ``integral of p_i**2 * w`` for i = 1..n.

    Each is a rational core of grade ``family.moment_grade``.  For the
    Legendre families these are 2/(4i-3) (even) and 2/(4i-1) (odd); see
    :func:`printed_legendre_norm` for the as-printed reciprocals they are
    sometimes quoted as.  Hermite norms are 2**d * d! times sqrt(pi), d the
    polynomial's degree.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for i in range(1, n + 1):
        if family.measure == "laguerre":
            out.append(Fraction(1))
        elif family.measure == "legendre":
            den = 4 * i - 3 if family.offset == 0 else 4 * i - 1
            out.append(Fraction(2, den))
        else:
            deg = family.basis_power(i)
            out.append(Fraction(2**deg * factorial(deg)))
    return tuple(out)


def printed_legendre_norm(family: Family, i: int) -> Fraction:
    """The as-printed Legendre norm values ``2i - 3/2`` / ``2i - 1/2``.

    These are the reciprocals of the true squared norms; they are exposed
    read-only for documentation and for the machine-checked erratum test,
    and are never used to build kernels.
    """
    if family.measure != "legendre":
        raise ValueError("printed norm values exist only for the Legendre families")
    if i < 1:
        raise ValueError("i must be >= 1")
    return Fraction(4 * i - 3, 2) if family.offset == 0 else Fraction(4 * i - 1, 2)


@lru_cache(maxsize=None)
def monomial_moment(family: Family, k: int) -> Fraction:
    """Weighted moment ``integral over the domain of x**k * w(x) dx``, exact.

    The rational core of grade ``family.moment_grade``.  Laguerre: k!.
    Legendre: 2/(k+1) for even k, else 0.  Hermite: 0 for odd k, else
    sqrt(pi) * (k-1)!! / 2**(k/2), whose core drops the sqrt(pi).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if family.measure == "laguerre":
        return Fraction(factorial(k))
    if k % 2 == 1:
        return Fraction(0)
    if family.measure == "legendre":
        return Fraction(2, k + 1)
    return Fraction(double_factorial(k - 1), 2 ** (k // 2))
