"""Reproducing-kernel matrices by closed-form inversion of the Gram matrix.

The inverse of the monomial Gram matrix falls out of the orthogonal
expansion: with A the lower-triangular coefficient matrix and lambda_k the
true squared norms,

    b_ij = sum_{k >= max(i,j)} a_ki * a_kj / lambda_k.

:func:`build_kernel` sums it in integers for one size, and
:func:`kernel_sweep` takes the same sums' prefix sums for every size to N:
one construction.  The
per-family closed forms are kept only as an independently typed cross-check:
:func:`closed_form_kernel` is one sum ``b_ij = sum_k u_ik u_jk w_k`` over
per-family factor tables, including the corrected Legendre factor placement.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, gcd, lcm
from operator import mul

from .families import Family, GradedMatrix, coeff_rows, double_factorial, norm_vector


def _terms(family: Family, n: int) -> tuple[int, list[int], list[list[int]], list[list[int]]]:
    """B's terms to size n in integers: D (the lcm of the norms' numerators),
    the column scales e_i, column i of A from row i down as ``c_ki`` over
    e_i, and that column times ``D / lambda_k``."""
    rows = coeff_rows(family, n)
    lam = norm_vector(family, n)
    d = lcm(*(q.numerator for q in lam))
    cols = [[(row[i], e) for row, e in rows[i:]] for i in range(n)]  # column i from row i down
    scales = [lcm(*(e // gcd(c, e) for c, e in col)) for col in cols]
    ints = [[c * s // e for c, e in col] for col, s in zip(cols, scales)]
    weights = [d // q.numerator * q.denominator for q in lam]
    weighted = [list(map(mul, col, weights[i:])) for i, col in enumerate(ints)]
    return d, scales, ints, weighted


def build_kernel(family: Family, n: int) -> GradedMatrix:
    """Kernel matrix B = G**-1 of size n, exact.

    B is the Christoffel-Darboux sum of the terms ``a_k a_k^T / lambda_k``
    over the integer rows of A, in integers: with column i of A re-cleared by
    e_i and the norms by D (lcms of denominators resp. numerators), b_ij is
    ``sum_k c_ki c_kj D / lambda_k`` over ``D e_i e_j`` (see ``_terms``).  B is
    symmetric positive definite with grade ``-family.moment_grade``; the kernel
    polynomial is ``K(x, y) = sum_ij b_ij x**p_i y**p_j``, p_i the basis powers.
    """
    d, scales, ints, weighted = _terms(family, n)
    b = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = sum(map(mul, weighted[i][j - i :], ints[j]))  # integer: one gcd per entry
            b[i][j] = b[j][i] = Fraction(acc, d * scales[i] * scales[j])
    return GradedMatrix(family, n, tuple(map(tuple, b)), -family.moment_grade)


def kernel_sweep(family: Family, max_size: int) -> Iterator[GradedMatrix]:
    """The kernels of sizes 1..max_size, each equal to ``build_kernel(family, n)``.

    Size n adds row n's term to every entry (the bordering B_n = B_(n-1) (+)
    0 + a_n a_n^T / lambda_n), so with the column scales and D of
    ``max_size``, b_ij at size n is the n-th prefix sum of the integer terms
    ``build_kernel`` sums: one ``Fraction`` per upper-triangle entry per size.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    d, scales, ints, weighted = _terms(family, max_size)
    # sums[i][j - i][m] is b_ij at size j + m + 1, over d * scales[i] * scales[j]
    sums = [[list(accumulate(map(mul, w_i[j - i :], ints[j]))) for j in range(i, max_size)]
            for i, w_i in enumerate(weighted)]
    for n in range(1, max_size + 1):
        b = [[None] * n for _ in range(n)]
        for i in range(n):
            den = d * scales[i]
            for j in range(i, n):
                b[i][j] = b[j][i] = Fraction(sums[i][j - i][n - 1 - j], den * scales[j])
        yield GradedMatrix(family, n, tuple(map(tuple, b)), -family.moment_grade)


def _closed_form_factors(
    family: Family, printed: bool
) -> tuple[Callable[[int, int], Fraction], Callable[[int], Fraction]]:
    """The family's factors ``u(i, k)`` (called for k >= i) and ``w(k)`` of
    ``b_ij = sum_{k >= max(i,j)} u(i, k) u(j, k) w(k)``, all 1-based.

    The Legendre Gamma ratios are written with Gamma(m + 1/2) = (2m - 1)!!
    sqrt(pi) / 2**m (Abramowitz & Stegun 6.1.12), so the sqrt(pi) cancels.
    """
    if family.measure == "laguerre":
        return (
            lambda i, k: Fraction((-1) ** (i - 1) * comb(k - 1, i - 1), factorial(i - 1)),
            lambda k: Fraction(1),
        )
    if family.measure == "hermite":
        p = family.basis_power
        return (
            lambda i, k: Fraction((-1) ** i * 2 ** p(i), factorial(p(i)) * factorial(k - i)),
            lambda k: Fraction(factorial(p(k)), 2 ** p(k)),
        )

    def legendre_u(i: int, k: int) -> Fraction:
        b_i = 2 * i - 3 + 2 * family.offset
        return Fraction(
            (-1) ** i * comb(k - 1, i - 1) * double_factorial(b_i + 2 * k - 2),
            double_factorial(b_i) * 2 ** (k - 1) * factorial(k - 1),
        )

    def legendre_w(k: int) -> Fraction:
        # corrected placement multiplies by (2k - 3/2) resp. (2k - 1/2);
        # the as-printed form divides by it instead
        base = Fraction(4 * k - 3 + 2 * family.offset, 2)
        return 1 / base if printed else base

    return legendre_u, legendre_w


def closed_form_kernel(
    family: Family, n: int, *, legendre_printed: bool = False
) -> GradedMatrix:
    """Per-family closed-form b_ij, as a cross-check of :func:`build_kernel`.

    Every family's closed form is one sum ``b_ij = sum_{k >= max(i,j)}
    u_ik u_jk w_k`` over its own factor tables, typed in independently of
    :func:`~gramkernel.families.coeff_rows` and the norms.  The Laguerre
    and Hermite closed forms match the generic construction as they stand.
    The Legendre forms only match with the ``(2k - 3/2)`` / ``(2k - 1/2)``
    factor as a multiplier; ``legendre_printed=True`` keeps it as a divisor
    instead, which provably fails the inverse-Gram check and exists solely
    so that erratum stays machine-checked.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    u_of, w_of = _closed_form_factors(family, legendre_printed)
    w = [w_of(k) for k in range(1, n + 1)]
    u = [
        [u_of(i, k) if k >= i else Fraction(0) for k in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    entries = tuple(
        tuple(
            sum((u[i][k] * u[j][k] * w[k] for k in range(max(i, j), n)), Fraction(0))
            for j in range(n)
        )
        for i in range(n)
    )
    return GradedMatrix(family, n, entries, -family.moment_grade)
