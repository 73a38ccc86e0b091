"""Brute-force ground truth: moment Gram matrices and their exact inverses.

Nothing here knows about orthogonal polynomials.  The Gram matrix comes
straight from weighted monomial moments, and the inverse is computed by
fraction-free (Bareiss) elimination with exact back-substitution, so any
agreement with the closed-form kernel construction is a genuine
cross-validation rather than a shared code path.
"""

from __future__ import annotations

from fractions import Fraction

from .families import Family, GradedMatrix, moment_cores

Matrix = tuple[tuple[Fraction, ...], ...]


class SingularMatrixError(ArithmeticError):
    """A zero pivot appeared; the input cannot be a valid Gram matrix."""


def gram_from_moments(family: Family, n: int) -> GradedMatrix:
    """Entry (i, j) = moment of x**(p_i + p_j) under the family weight.

    Hankel-structured (entry (i, j) depends only on i + j), positive
    definite, and of the family's moment grade.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rows = tuple(moment_cores(family, n, family.basis_power(i)) for i in range(1, n + 1))
    return GradedMatrix(family, n, rows, family.moment_grade)


def _forward_eliminate(rows: list[list[Fraction]], width: int) -> list[Fraction]:
    """In-place fraction-free elimination of the first len(rows) columns.

    Uses the one-step Bareiss update, whose intermediate entries are minors
    of the original matrix, so numerators and denominators stay small.  No
    pivoting: indefinite matrices are out of scope and a zero pivot means
    the input was not positive definite.  Returns the pivots, which are
    exactly the leading principal minors.
    """
    n = len(rows)
    prev = Fraction(1)
    pivots: list[Fraction] = []
    for k in range(n):
        pivot = rows[k][k]
        if pivot == 0:
            raise SingularMatrixError(f"zero pivot at elimination step {k + 1}")
        for r in range(k + 1, n):
            factor = rows[r][k]
            for c in range(k + 1, width):
                rows[r][c] = (pivot * rows[r][c] - factor * rows[k][c]) / prev
            rows[r][k] = Fraction(0)
        prev = pivot
        pivots.append(pivot)
    return pivots


def leading_principal_minors(entries: Matrix) -> tuple[Fraction, ...]:
    """All n leading principal minors, exact (the last one is det)."""
    rows = [list(row) for row in entries]
    return tuple(_forward_eliminate(rows, len(rows)))


def bareiss_inverse(entries: Matrix) -> tuple[Matrix, Fraction]:
    """Exact inverse and determinant of a rational matrix.

    Forward pass is fraction-free elimination on the identity-augmented
    matrix; back-substitution on the resulting upper triangle is exact
    rational division.  Raises :class:`SingularMatrixError` on a zero pivot.
    """
    n = len(entries)
    aug = [
        list(row) + [Fraction(1 if r == c else 0) for c in range(n)]
        for r, row in enumerate(entries)
    ]
    pivots = _forward_eliminate(aug, 2 * n)
    det = pivots[-1]

    inv_cols: list[list[Fraction]] = []
    for c in range(n, 2 * n):
        col = [Fraction(0)] * n
        for r in range(n - 1, -1, -1):
            s = aug[r][c]
            for j in range(r + 1, n):
                s -= aug[r][j] * col[j]
            col[r] = s / aug[r][r]
        inv_cols.append(col)
    inverse = tuple(tuple(inv_cols[c][r] for c in range(n)) for r in range(n))
    return inverse, det


def invert_exact(gram: GradedMatrix) -> tuple[GradedMatrix, Fraction]:
    """Exact inverse of a Gram matrix, with its determinant.

    The sqrt(pi) grade factors out of the elimination entirely: the rational
    core is inverted and the inverse carries the negated grade.  The
    determinant is returned as the core of a value of grade
    ``n * gram.sqrtpi_power``.
    """
    inverse, det = bareiss_inverse(gram.entries)
    return GradedMatrix(gram.family, gram.n, inverse, -gram.sqrtpi_power), det
