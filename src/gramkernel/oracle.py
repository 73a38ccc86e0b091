"""Brute-force ground truth: moment Gram matrices and their exact inverses.

Nothing here knows about orthogonal polynomials.  The Gram matrix comes
straight from weighted monomial moments, and every inverse and determinant
comes from fraction-free (Bareiss) elimination, so any agreement with the
closed-form kernel construction is a genuine cross-validation rather than a
shared code path.

There is one elimination: a rational matrix M is scaled by the lcm d of its
denominators to the integer matrix dM, and the one-step Bareiss update
(E. Bareiss, Math. Comp. 22, 1968) eliminates [dM | I] in integers with
exact divisions.  Its pivots p_1..p_N are the leading principal minors of
dM, so det M_n = p_n / d**n for every n at once.  For a symmetric M, row k
of the eliminated identity half is v_k = p_(k-1) times row k of L**-1,
where dM = L D L^T with L unit lower triangular and D = diag(p_k / p_(k-1)).
Hence, for every leading block,

    M_n**-1 = d * sum_{k <= n} v_k v_k^T / (p_(k-1) p_k)      (p_0 = 1),

and :func:`leading_inverses` accumulates these rank-one terms in
integers, so the inverses of all leading blocks cost one elimination of the
largest.  It yields each inverse as its integer adjugate with the pivot and
d, and builds no ``Fraction``: a caller that only compares can
cross-multiply.  :func:`bareiss_inverse` (and :func:`invert_exact`, its
graded form) solves the same eliminated system by back-substitution
instead, for one size, and returns ``Fraction`` entries.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import lcm

from .families import Family, GradedMatrix, monomial_moment

Matrix = tuple[tuple[Fraction, ...], ...]


class SingularMatrixError(ArithmeticError):
    """A zero pivot appeared; the input cannot be a valid Gram matrix."""


def gram_from_moments(family: Family, n: int) -> GradedMatrix:
    """Entry (i, j) = moment of x**(p_i + p_j) under the family weight.

    Positive definite, of the family's moment grade, and Hankel: p_i + p_j
    depends only on i + j, so the rows are windows of one vector of 2n - 1
    moments, cleared once.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    (hankel,), d = _cleared([[monomial_moment(family, family.basis_power(k) + family.offset)
                              for k in range(1, 2 * n)]])
    return GradedMatrix(family, n, [hankel[i:i + n] for i in range(n)], d, family.moment_grade)


# not families._cleared: the oracle shares no code with the construction
def _cleared(entries: Matrix) -> tuple[list[list[int]], int]:
    """The integer matrix d * entries, with d the lcm of every denominator."""
    d = lcm(*(q.denominator for row in entries for q in row))
    return [[q.numerator * (d // q.denominator) for q in row] for row in entries], d


def _forward_eliminate(rows: list[list[int]], width: int) -> list[int]:
    """In-place fraction-free elimination of the first len(rows) columns.

    Uses the one-step Bareiss update on integers: every intermediate entry
    is a minor of the original matrix, so each division is exact.  No
    pivoting: indefinite matrices are out of scope and a zero pivot means
    the input was not positive definite.  Returns the pivots, which are
    exactly the leading principal minors.
    """
    n = len(rows)
    prev = 1
    pivots: list[int] = []
    for k in range(n):
        row_k = rows[k]
        pivot = row_k[k]
        if pivot == 0:
            raise SingularMatrixError(f"zero pivot at elimination step {k + 1}")
        for r in range(k + 1, n):
            row = rows[r]
            factor = row[k]
            for c in range(k + 1, width):
                row[c] = (pivot * row[c] - factor * row_k[c]) // prev
            row[k] = 0
        prev = pivot
        pivots.append(pivot)
    return pivots


def _eliminate_augmented(entries: Matrix) -> tuple[list[list[int]], list[int], int]:
    """Bareiss on [d * entries | I]: the eliminated rows, the pivots and d."""
    rows, d = _cleared(entries)
    n = len(rows)
    for r, row in enumerate(rows):
        row.extend(int(r == c) for c in range(n))
    return rows, _forward_eliminate(rows, 2 * n), d


def leading_principal_minors(entries: Matrix) -> tuple[Fraction, ...]:
    """All n leading principal minors, exact (the last one is det)."""
    rows, d = _cleared(entries)
    return tuple(Fraction(p, d**k) for k, p in enumerate(_forward_eliminate(rows, len(rows)), 1))


def bareiss_inverse(entries: Matrix) -> tuple[Matrix, Fraction]:
    """Exact inverse and determinant of a rational matrix.

    After the forward pass on the identity-augmented matrix, the inverse
    comes from exact rational back-substitution on the resulting upper
    triangle.  At one size this is cheaper than the rank-one accumulation
    of :func:`leading_inverses`, which passes through every smaller size.
    Raises :class:`SingularMatrixError` on a zero pivot.
    """
    n = len(entries)
    aug, pivots, d = _eliminate_augmented(entries)
    inv_cols: list[list[Fraction]] = []
    for c in range(n, 2 * n):
        col = [Fraction(0)] * n
        for r in range(n - 1, -1, -1):
            s = Fraction(aug[r][c] * d)
            for j in range(r + 1, n):
                s -= aug[r][j] * col[j]
            col[r] = s / aug[r][r]
        inv_cols.append(col)
    inverse = tuple(tuple(inv_cols[c][r] for c in range(n)) for r in range(n))
    return inverse, Fraction(pivots[-1], d**n)


def invert_exact(gram: GradedMatrix) -> tuple[GradedMatrix, Fraction]:
    """Exact inverse of a Gram matrix, with its determinant.

    The sqrt(pi) grade factors out of the elimination entirely: the rational
    core is inverted and the inverse carries the negated grade.  The
    determinant is returned as the core of a value of grade
    ``n * gram.sqrtpi_power``.
    """
    inverse, det = bareiss_inverse(gram.entries)
    return GradedMatrix.of(gram.family, inverse, -gram.sqrtpi_power), det


def leading_inverses(entries: Matrix) -> Iterator[tuple[tuple[tuple[int, ...], ...], int, int]]:
    """Yield ``(T_n, p_n, d)`` for n = 1..len(entries) from one elimination.

    ``G_n`` is the leading n-block of ``entries``, d the lcm of their
    denominators and p_n the n-th pivot.  The adjugate T_n = p_n (dG_n)**-1
    is an integer matrix, yielded as tuples, and it grows by one rank-one
    term per size, T_n = (p_n T_(n-1) + v_n v_n^T) / p_(n-1), an exact
    division (see the module docstring); then G_n**-1 = d T_n / p_n and
    det G_n = p_n / d**n.  For a Gram matrix the inverse carries the
    negated sqrt(pi) grade, as for :func:`invert_exact`.  Raises
    :class:`SingularMatrixError` on a zero pivot, before the first size is
    yielded.
    """
    rows, pivots, d = _eliminate_augmented(entries)
    size = len(rows)
    adj: tuple[tuple[int, ...], ...] = ()
    prev = 1
    for n, (pivot, row) in enumerate(zip(pivots, rows), start=1):
        v = row[size:size + n]
        adj = tuple(tuple((pivot * a + v_i * v_j) // prev for a, v_j in zip(adj_i + (0,), v))
                    for adj_i, v_i in zip(adj + ((0,) * (n - 1),), v))
        yield adj, pivot, d
        prev = pivot
