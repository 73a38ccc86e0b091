"""Reproducing-kernel matrices by closed-form inversion of the Gram matrix.

The inverse of the monomial Gram matrix falls out of the orthogonal
expansion: with A the lower-triangular coefficient matrix and lambda_k the
true squared norms, b_ij = sum_{k >= max(i,j)} a_ki * a_kj / lambda_k.
:func:`build_kernel` gets that sum from rows n and n + 1 of A alone, by the
Christoffel-Darboux identity, as integer running sums over one denominator,
the form every :class:`~gramkernel.families.GradedMatrix` keeps.  The
per-family closed forms are kept only as an independently typed cross-check:
:func:`closed_form_kernel` is one sum ``b_ij = sum_k u_ik u_jk w_k`` over
per-family factor tables, including the corrected Legendre factor placement.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from math import comb, factorial, gcd

from .families import Family, GradedMatrix, coeff_rows, double_factorial, norm_vector


def build_kernel(family: Family, n: int) -> GradedMatrix:
    """Kernel matrix B = G**-1 of size n, exact.

    B is symmetric positive definite with grade ``-family.moment_grade``; the
    kernel polynomial ``K(x, y) = sum_ij b_ij x**p_i y**p_j`` (p_i the basis
    powers) is ``sum_{k <= n} p_k(x) p_k(y) / lambda_k``.

    With t = x for Laguerre and t = x**2 for the even and odd families, and
    q_k(t) = p_k(x), or p_k(x) / x for the odd ones, b_ij (0-based) is the
    coefficient of t**i s**j in ``sum_{k <= n} q_k(t) q_k(s) / lambda_k``.
    The q_k keep the norms: on [-a, a], t = x**2 turns
    ``integral p_j p_k w dx`` into ``integral q_j q_k t**(-+1/2) w(sqrt t) dt``
    (even -, odd +) over [0, a**2], so the q_k, of degree k - 1, are
    orthogonal with the same lambda_k under a positive weight on [0, 1]
    (Legendre) or [0, oo) (Hermite).  Hence the Christoffel-Darboux identity
    (Szego, *Orthogonal Polynomials*, 1939, Thm 3.2.2; Chihara, 1978, Ch. I),
    with k_j the leading coefficient of q_j and c = k_n / (k_(n+1) lambda_n):

        (t - s) sum_{k <= n} q_k(t) q_k(s) / lambda_k
            = c (q_(n+1)(t) q_n(s) - q_n(t) q_(n+1)(s)).

    With rows n and n + 1 of A as u / d_u and v / d_v (``coeff_rows``), u
    padded with one 0, the coefficients of t**i s**j give, b = 0 outside the
    n x n matrix,

        b_ij = b_(i-1),(j+1) + (u_i v_(j+1) - v_i u_(j+1)) c / (d_u d_v).

    So along each anti-diagonal of the upper triangle, started just outside
    the matrix, b_ij is one integer running sum times c / (d_u d_v) = num /
    den: B is those sums times num over den, and no entry is a ``Fraction``.
    The rows' contents g_u = gcd(u) and g_v = gcd(v) are taken out of the
    sums into num, so that the constructor of ``GradedMatrix`` need not
    divide them out of every entry.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    *_, (u, d_u), (v, d_v) = coeff_rows(family, n + 1)
    g_u, g_v = gcd(*u), gcd(*v)
    u, v = [c // g_u for c in u] + [0], [c // g_v for c in v]
    # g_u g_v c / (d_u d_v), with c = (g_u u_(n-1) / d_u) / ((g_v v_n / d_v) lambda_n)
    num, den = Fraction(u[n - 1] * g_u * g_u,
                        d_u * d_u * v[n] * norm_vector(family, n)[-1]).as_integer_ratio()
    b = [[0] * n for _ in range(n)]
    for s in range(2 * n - 1):  # the anti-diagonal i + j = s, its upper half
        acc = 0
        for i in range(max(0, s - n + 1), s // 2 + 1):
            j = s - i
            acc += u[i] * v[j + 1] - v[i] * u[j + 1]
            b[i][j] = b[j][i] = acc * num
    return GradedMatrix(family, n, b, den, -family.moment_grade)


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
    u = [[u_of(i, k) if k >= i else Fraction(0) for k in range(1, n + 1)]
         for i in range(1, n + 1)]
    entries = [
        [sum((u[i][k] * u[j][k] * w[k] for k in range(max(i, j), n)), Fraction(0))
         for j in range(n)]
        for i in range(n)
    ]
    return GradedMatrix.of(family, entries, -family.moment_grade)
