"""Infinity-norm condition numbers of the monomial Gram matrices.

kappa(G) = ||G||_inf * ||G**-1||_inf, computed entirely in exact rational
arithmetic.  For the Hermite families the +1 grade of G and the -1 grade of
its inverse cancel, so kappa is a pure rational for every family; decimal
strings are rendered from the exact value afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exactscalar import SIG_DIGITS, decimal_str
from .families import Family, coeff_matrix, norm_vector
from .kernelbuild import build_kernel
from .oracle import gram_from_moments


@dataclass(frozen=True)
class ConditionRow:
    size: int
    kappa_exact: Fraction
    kappa_decimal: str


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


def condition_table(family: Family, max_size: int) -> tuple[ConditionRow, ...]:
    """Rows (size, exact kappa, decimal kappa) for sizes 1..max_size, from A,
    the norms and one size-``max_size`` Gram matrix, with no kernel matrix.

    In all three families a_ki is (-1)**i times a sign fixed by the row k, so
    every term a_ki a_kj / lambda_k of b_ij has the sign (-1)**(i+j): B is the
    checkerboard inverse of a totally positive moment matrix (S. Karlin,
    *Total Positivity*, 1968), and |B| = |A|^T Lambda**-1 |A|.  So size n
    adds ``|a_n| * ||a_n||_1 / lambda_n`` to ``s``, the row sums of |B_n|,
    and |g_in| (G is symmetric) plus one new row to ``r``, the row sums of
    |G_n|; kappa_n is ``max(r) * max(s)``.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    a = coeff_matrix(family, max_size).entries
    gram = gram_from_moments(family, max_size).entries
    r, s, rows = [], [], []
    for n, lam_n in enumerate(norm_vector(family, max_size), start=1):
        g = [abs(x) for x in gram[n - 1][:n]]
        r = [ri + gi for ri, gi in zip(r, g)] + [sum(g, Fraction(0))]
        a_n = [abs(x) for x in a[n - 1][:n]]
        weight = sum(a_n, Fraction(0)) / lam_n
        s = [si + ai * weight for si, ai in zip(s, a_n)] + [a_n[-1] * weight]
        kappa = max(r) * max(s)
        rows.append(ConditionRow(n, kappa, decimal_str(kappa, SIG_DIGITS)))
    return tuple(rows)
