"""Infinity-norm condition numbers of the monomial Gram matrices.

kappa(G) = ||G||_inf * ||G**-1||_inf, computed entirely in exact rational
arithmetic.  For the Hermite families the +1 grade of G and the -1 grade of
its inverse cancel, so kappa is a pure rational for every family; the CLI
renders it as a decimal afterwards.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import lcm

from .families import Family, coeff_matrix, norm_vector
from .kernelbuild import build_kernel
from .oracle import gram_from_moments


def inf_norm(entries: Iterable[Iterable[Fraction]]) -> Fraction:
    """Maximum absolute row sum, exact."""
    norms = [sum((abs(x) for x in row), Fraction(0)) for row in entries]
    if not norms:
        raise ValueError("matrix must be nonempty")
    return max(norms)


def condition_number(family: Family, n: int) -> Fraction:
    """kappa_inf of the size-n monomial Gram matrix, as an exact rational,
    from G and B themselves: the reference for :func:`condition_table`."""
    gram, kernel = gram_from_moments(family, n), build_kernel(family, n)
    if gram.sqrtpi_power + kernel.sqrtpi_power != 0:
        raise AssertionError("sqrt(pi) grades failed to cancel in kappa")
    return inf_norm(gram.entries) * inf_norm(kernel.entries)


def condition_table(family: Family, max_size: int) -> tuple[Fraction, ...]:
    """The exact kappa of sizes 1..max_size, entry n - 1 for size n, from A,
    the norms and one size-``max_size`` Gram matrix, with no kernel matrix.

    In all three families a_ki is (-1)**i times a sign fixed by the row k, so
    every term a_ki a_kj / lambda_k of b_ij has the sign (-1)**(i+j): B is the
    checkerboard inverse of a totally positive moment matrix (S. Karlin,
    *Total Positivity*, 1968), and |B| = |A|^T Lambda**-1 |A|.  So size n
    adds ``|a_n| * ||a_n||_1 / lambda_n`` to the row sums of |B_n|, and
    |g_in| (G is symmetric) plus one new row to the row sums of |G_n|;
    kappa_n is the product of their maxima.

    Both vectors are integer numerators.  ``r`` is over D_G, the lcm of the
    Gram matrix's denominators.  With row n of A cleared as c_n / e_n and
    lambda_n = p_n / q_n, the term is ``|c_n| * t_n / u_n`` for
    t_n = ||c_n||_1 q_n and u_n = e_n**2 p_n, so ``s`` is over the running
    U_n = lcm(U_(n-1), u_n), rescaled by U_n / U_(n-1) at each size.  kappa_n
    is one ``Fraction(max(r) * max(s), D_G * U_n)``: one gcd per size.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    a = coeff_matrix(family, max_size).cleared_rows
    gram = gram_from_moments(family, max_size).entries
    d_g = lcm(*(x.denominator for row in gram for x in row))
    r, s, u, kappas = [], [], 1, []
    for n, lam_n in enumerate(norm_vector(family, max_size), start=1):
        g = [abs(x.numerator) * (d_g // x.denominator) for x in gram[n - 1][:n]]
        r = [ri + gi for ri, gi in zip(r, g)] + [sum(g)]
        c_n, e_n = a[n - 1]
        c_n = [abs(c) for c in c_n[:n]]
        u_n = e_n * e_n * lam_n.numerator
        grown = lcm(u, u_n)
        scale, weight = grown // u, sum(c_n) * lam_n.denominator * (grown // u_n)
        s = [si * scale + ci * weight for si, ci in zip(s, c_n)] + [c_n[-1] * weight]
        u = grown
        kappas.append(Fraction(max(r) * max(s), d_g * u))
    return tuple(kappas)
