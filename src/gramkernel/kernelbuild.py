"""Reproducing-kernel matrices by closed-form inversion of the Gram matrix.

The inverse of the monomial Gram matrix falls out of the orthogonal
expansion: with A the lower-triangular coefficient matrix and lambda_k the
true squared norms,

    b_ij = sum_{k >= max(i,j)} a_ki * a_kj / lambda_k.

Summed one k at a time, that is a sweep over sizes (:func:`kernel_sweep`),
the one construction here; the per-family closed forms are also
implemented, but only as documented cross-checks (see
:func:`closed_form_kernel`, including the corrected Legendre factor
placement).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterator

from .exactscalar import gamma_ratio
from .families import Family, GradedMatrix, coeff_matrix, norm_vector


def kernel_sweep(family: Family, max_n: int) -> Iterator[GradedMatrix]:
    """Kernels B_1, ..., B_max_n by rank-one updates, exact.

    Row n of A does not depend on the size, so each kernel is the previous
    one, bordered by a zero row and column, plus one orthogonal-expansion
    term ``a_n a_n^T / lambda_n``: the Christoffel-Darboux partial sum.  A
    and the norms are read once; every yielded matrix is a fresh immutable
    copy, so a caller that drops it keeps memory at one size.  The whole
    sweep costs about what the last size alone costs.
    """
    if max_n < 1:
        raise ValueError("n must be >= 1")
    return _sweep(family, max_n)


def _sweep(family: Family, max_n: int) -> Iterator[GradedMatrix]:
    a = coeff_matrix(family, max_n).entries
    lam = norm_vector(family, max_n)
    grade = -family.moment_grade
    b: list[list[Fraction]] = []
    for k in range(max_n):
        row = a[k]
        scaled = [row[i] / lam[k] for i in range(k + 1)]
        for bi in b:
            bi.append(Fraction(0))
        b.append([Fraction(0)] * (k + 1))
        for i in range(k + 1):
            bi = b[i]
            for j in range(i, k + 1):
                bi[j] += scaled[i] * row[j]
            for j in range(i + 1, k + 1):
                b[j][i] = bi[j]
        yield GradedMatrix(family, k + 1, tuple(map(tuple, b)), grade)


def build_kernel(family: Family, n: int) -> GradedMatrix:
    """Kernel matrix B = G**-1, the last element of :func:`kernel_sweep`.

    B is symmetric positive definite with grade ``-family.moment_grade``;
    the kernel polynomial is ``K(x, y) = sum_ij b_ij x**p_i y**p_j`` with
    ``p_i`` the family's basis powers.
    """
    for kernel in kernel_sweep(family, n):
        pass
    return kernel


def kernel_eval(kernel: GradedMatrix, x: Fraction, y: Fraction) -> Fraction:
    """Exact K(x, y) = sum_ij b_ij x**p_i y**p_j, as the rational core of
    grade ``kernel.sqrtpi_power``."""
    x = Fraction(x)
    y = Fraction(y)
    fam = kernel.family
    xp = [x ** fam.basis_power(i + 1) for i in range(kernel.n)]
    yp = [y ** fam.basis_power(j + 1) for j in range(kernel.n)]
    total = Fraction(0)
    for i in range(kernel.n):
        row = kernel.entries[i]
        total += xp[i] * sum((row[j] * yp[j] for j in range(kernel.n)), Fraction(0))
    return total


def _recip_factorial(m: int) -> Fraction:
    # 1/m!, with 1/(negative)! = 0: the vanishing that truncates the sums
    return Fraction(1, factorial(m)) if m >= 0 else Fraction(0)


def _closed_form_laguerre(n: int) -> tuple[tuple[Fraction, ...], ...]:
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            pref = Fraction((-1) ** (i - 1), factorial(i - 1)) * Fraction(
                (-1) ** (j - 1), factorial(j - 1)
            )
            total = sum(
                comb(k - 1, i - 1) * comb(k - 1, j - 1) for k in range(j, n + 1)
            )
            row.append(pref * total)
        rows.append(tuple(row))
    return tuple(rows)


def _closed_form_legendre(
    family: Family, n: int, printed: bool
) -> tuple[tuple[Fraction, ...], ...]:
    half = Fraction(1, 2) if family.offset == 0 else Fraction(3, 2)
    shift = Fraction(3, 2) if family.offset == 0 else Fraction(1, 2)
    # u[i][k] = C(k-1, i-1) * Gamma-ratio(half + i - 1, k - 1) / (k-1)!, the
    # factor each of i and j contributes to term k (zero for k < i)
    u = [
        [
            comb(k - 1, i - 1) * gamma_ratio(half + (i - 1), k - 1) / factorial(k - 1)
            if k >= i else Fraction(0)
            for k in range(1, n + 1)
        ]
        for i in range(1, n + 1)
    ]
    base = [Fraction(2 * k) - shift for k in range(1, n + 1)]
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            total = Fraction(0)
            for k in range(max(i, j), n + 1):
                term = Fraction((-1) ** (i + j)) * u[i - 1][k - 1] * u[j - 1][k - 1]
                # corrected placement multiplies by (2k - 3/2) resp. (2k - 1/2);
                # the as-printed form divides by it instead
                total += term / base[k - 1] if printed else term * base[k - 1]
            row.append(total)
        rows.append(tuple(row))
    return tuple(rows)


def _closed_form_hermite(family: Family, n: int) -> tuple[tuple[Fraction, ...], ...]:
    off = family.offset
    rows = []
    for i in range(1, n + 1):
        p_i = 2 * (i - 1) + off
        row = []
        for j in range(1, n + 1):
            p_j = 2 * (j - 1) + off
            pref = (
                Fraction((-1) ** (i + j))
                * Fraction(2**p_i, factorial(p_i))
                * Fraction(2**p_j, factorial(p_j))
            )
            total = Fraction(0)
            for k in range(j, n + 1):
                p_k = 2 * (k - 1) + off
                total += (
                    Fraction(factorial(p_k), 2**p_k)
                    * _recip_factorial(k - i)
                    * _recip_factorial(k - j)
                )
            row.append(pref * total)
        rows.append(tuple(row))
    return tuple(rows)


def closed_form_kernel(
    family: Family, n: int, *, legendre_printed: bool = False
) -> GradedMatrix:
    """Per-family closed-form b_ij, as a cross-check of :func:`build_kernel`.

    The Laguerre and Hermite closed forms match the generic construction as
    they stand.  The Legendre forms only match with the ``(2k - 3/2)`` /
    ``(2k - 1/2)`` factor as a multiplier; ``legendre_printed=True`` keeps
    it as a divisor instead, which provably fails the inverse-Gram check and
    exists solely so that erratum stays machine-checked.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if family.measure == "laguerre":
        entries = _closed_form_laguerre(n)
    elif family.measure == "legendre":
        entries = _closed_form_legendre(family, n, legendre_printed)
    else:
        entries = _closed_form_hermite(family, n)
    return GradedMatrix(family, n, entries, -family.moment_grade)
