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
from .families import Family, GradedMatrix
from .kernelbuild import build_kernel, kernel_sweep
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


def _kappa(gram: GradedMatrix, kernel: GradedMatrix) -> Fraction:
    """kappa_inf of the kernel's size, from the leading block of ``gram``."""
    if gram.sqrtpi_power + kernel.sqrtpi_power != 0:
        raise AssertionError("sqrt(pi) grades failed to cancel in kappa")
    n = kernel.n
    return inf_norm(row[:n] for row in gram.entries[:n]) * inf_norm(kernel.entries)


def condition_number(family: Family, n: int) -> Fraction:
    """kappa_inf of the size-n monomial Gram matrix, as an exact rational."""
    return _kappa(gram_from_moments(family, n), build_kernel(family, n))


def condition_table(family: Family, max_size: int) -> tuple[ConditionRow, ...]:
    """Rows (size, exact kappa, decimal kappa) for sizes 1..max_size.

    One kernel sweep and one size-``max_size`` Gram matrix serve every row:
    the size-n Gram matrix is the leading n x n block of the largest.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    gram = gram_from_moments(family, max_size)
    rows = []
    for kernel in kernel_sweep(family, max_size):
        kappa = _kappa(gram, kernel)
        rows.append(ConditionRow(kernel.n, kappa, decimal_str(kappa, SIG_DIGITS)))
    return tuple(rows)
