"""The five classical kernel families and their closed-form ingredients.

Each family is a monomial basis attached to a weighted domain.  On the two
symmetric domains the even and odd monomials are mutually orthogonal, so
Legendre and Hermite each split into an even and an odd family; Laguerre's
half-line keeps the full basis.  For every family this module produces, in
exact arithmetic:

* ``coeff_matrix`` -- the lower-triangular expansion of the family's
  orthogonal polynomials in ascending monomial powers,
* ``norm_vector``  -- the true squared weighted L2 norms of those
  polynomials,
* ``monomial_moment`` -- the weighted moments that define the Gram matrix.

Norms and moments are returned as rational cores: each true value is the
core times ``sqrt(pi)**family.moment_grade``.  Rows of A and the moments
do not depend on the matrix size, so each is computed once per process.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, lcm
from operator import mul


@dataclass(frozen=True)
class Family:
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


@dataclass(frozen=True)
class GradedMatrix:
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


def _matmul(a, b) -> tuple[tuple[Fraction, ...], ...]:
    """Exact product of two rational matrices.  Each row of ``a`` and each
    column of ``b`` is cleared over one denominator, so an entry costs one
    integer dot product and one ``Fraction``.  A ``GradedMatrix`` ``a``
    lends its cached cleared rows."""
    cols = [_cleared(col) for col in zip(*b)]
    rows = a.cleared_rows if isinstance(a, GradedMatrix) else map(_cleared, a)
    return tuple(
        tuple(Fraction(sum(map(mul, row, col)), d_row * d_col) for col, d_col in cols)
        for row, d_row in rows
    )


def _coeff_entry(family: Family, i: int, j: int) -> Fraction:
    """a_ij (1-based, j <= i) from the family's closed form."""
    if family.measure == "laguerre":
        return Fraction((-1) ** (j - 1) * comb(i - 1, j - 1), factorial(j - 1))
    if family.measure == "legendre":
        # the rising product (b_j/2 + 1) ... (b_j/2 + i - 1), a ratio of
        # half-integer Gammas, is (b_j + 2i - 2)!! / (b_j!! * 2**(i-1))
        b_j = 2 * j - 3 + 2 * family.offset
        return Fraction(
            (-1) ** (i + j) * comb(i - 1, j - 1) * double_factorial(b_j + 2 * i - 2),
            double_factorial(b_j) * 2 ** (i - 1) * factorial(i - 1),
        )
    # hermite
    deg_i = family.basis_power(i)
    pow_j = family.basis_power(j)
    return Fraction(
        (-1) ** (i - j) * factorial(deg_i) * 2**pow_j, factorial(i - j) * factorial(pow_j)
    )


@lru_cache(maxsize=None)
def _coeff_row(family: Family, i: int) -> tuple[Fraction, ...]:
    """a_i1..a_ii: row i of A up to its diagonal, the same at every size."""
    return tuple(_coeff_entry(family, i, j) for j in range(1, i + 1))


def coeff_matrix(family: Family, n: int) -> GradedMatrix:
    """Exact expansion matrix for the first ``n`` polynomials of the family.

    Row ``i`` lists the coefficients of the family's i-th orthogonal
    polynomial on the basis powers, ascending; entries above the diagonal
    are zero and the diagonal never vanishes.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    zero = (Fraction(0),)
    return GradedMatrix(family, n, tuple(
        _coeff_row(family, i) + zero * (n - i) for i in range(1, n + 1)))


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


def moment_cores(family: Family, n: int, power: int) -> tuple[Fraction, ...]:
    """Moment cores of ``x**(p_i + power)``, i = 1..n, all of the family's
    ``moment_grade``, which the caller attaches once to the matrix or vector."""
    return tuple(monomial_moment(family, family.basis_power(i) + power) for i in range(1, n + 1))
