"""Self-verification suites: every structural identity the construction owes.

Each check is one exact comparison (rational equality, no tolerances) that
pits two independent routes against each other -- the Christoffel-Darboux
kernel of ``build_kernel`` vs. Bareiss inverse, expansion matrix vs. moment
Gram, projection vs. identity.  A check returns ``""`` when its two sides
are equal, else the first differing entry, 1-based: ``what (i, j): want W,
got G`` for a matrix (``(k)`` for a vector), ``what: want W, got G`` for a
scalar or a sqrt(pi) grade.  Matrices are compared as integers over their
one denominator; their ``Fraction`` entries are read only to name a
mismatch.  The CLI ``verify`` subcommand runs all of them over every family
and size.

Each family is one sweep to the largest size (:func:`sweep_artefacts`);
only the kernel, its leading minors and the checks themselves are computed
per size.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import prod
from operator import mul

from .approx import monomial_moment_vector, project
from .families import ALL_FAMILIES, Family, GradedMatrix, Record, coeff_rows, norm_vector
from .kernelbuild import build_kernel
from .oracle import gram_from_moments, leading_inverses, leading_principal_minors


class CheckResult(Record):
    name: str
    family: str
    size: int
    passed: bool
    detail: str


class Artefacts(Record):
    """Everything the checks compare for one (family, n).

    The Bareiss inverse of ``gram`` is kept in integers, as
    ``scale * adjugate / pivot`` (see
    :func:`~gramkernel.oracle.leading_inverses`), with the sqrt(pi) grade
    ``inverse_grade``; ``det_gram`` is its determinant, a core of grade
    ``n * gram.sqrtpi_power``.  ``coeffs`` are the first n integer rows of
    A (``coeff_rows``), exactly A_n; ``norms`` are cores of grade
    ``family.moment_grade``; ``agat`` is A G A^T of ``coeffs`` and ``gram``;
    ``kernel_minors`` are the leading principal minors of ``kernel``.
    """

    family: Family
    n: int
    kernel: GradedMatrix
    gram: GradedMatrix
    adjugate: tuple[tuple[int, ...], ...]
    pivot: int
    scale: int
    inverse_grade: int
    det_gram: Fraction
    coeffs: tuple[tuple[tuple[int, ...], int], ...]
    norms: tuple[Fraction, ...]
    agat: tuple[tuple[Fraction, ...], ...]
    kernel_minors: tuple[Fraction, ...]


def _block(rows, n: int) -> tuple[tuple, ...]:
    return tuple(row[:n] for row in rows[:n])


def _congruence(rows: list[tuple[tuple[int, ...], int]], gram: GradedMatrix):
    """A G A^T from A's integer rows (``coeff_rows``) and G's Hankel vector
    (its first row and last column), integers over G's ``den`` D_G: entry
    (k, l) is ``sum_ij c_ki h_(i+j) c_lj`` over ``e_k e_l D_G``, one
    ``Fraction`` each.  It is A G A^T of G itself where G is Hankel, which
    ``gram-hankel`` checks."""
    g, n = gram.ints, gram.n
    h = g[0] + tuple(row[-1] for row in g[1:])
    # row k of A G, over e_k D_G; row k of A has k entries
    ag = [[sum(map(mul, c, h[j:j + len(c)])) for j in range(n)] for c, _ in rows]
    return tuple(
        tuple(Fraction(sum(map(mul, ag_k, c_l)), e_k * e_l * gram.den) for c_l, e_l in rows)
        for ag_k, (_, e_k) in zip(ag, rows)
    )


def sweep_artefacts(family: Family, max_size: int) -> Iterator[Artefacts]:
    """The artefacts of sizes 1..max_size, from one sweep of the family.

    G, A and the norms are built once, at ``max_size``; size n reads their
    leading n-blocks, which are exactly G_n, A_n and the first n norms.  The
    inverses and determinants of every G_n come from one elimination of G
    (:func:`~gramkernel.oracle.leading_inverses`); each kernel is its own
    :func:`~gramkernel.kernelbuild.build_kernel`.  A is lower triangular, so
    the leading n-block of A_N G_N A_N^T is exactly A_n G_n A_n^T: one
    product, in integers, serves every size.
    """
    gram = gram_from_moments(family, max_size)
    rows = coeff_rows(family, max_size)
    norms = norm_vector(family, max_size)
    agat = _congruence(rows, gram)
    for n, (adjugate, pivot, scale) in enumerate(leading_inverses(gram.entries), start=1):
        kernel = build_kernel(family, n)
        minors = leading_principal_minors(kernel.ints)  # of den * B
        yield Artefacts(
            family, n, kernel, gram.replace(n=n, ints=_block(gram.ints, n)), adjugate, pivot,
            scale, -gram.sqrtpi_power, Fraction(pivot, scale**n), tuple(rows[:n]), norms[:n],
            _block(agat, n), tuple(m / kernel.den**k for k, m in enumerate(minors, start=1)),
        )


def build_artefacts(family: Family, n: int) -> Artefacts:
    """The size-n artefacts: the last of :func:`sweep_artefacts` to n."""
    return deque(sweep_artefacts(family, n), maxlen=1).pop()


def _diff(what: str, want, got, index: tuple[int, ...] = ()) -> str:
    """``""`` if ``want == got``, else ``got``'s first differing entry.

    Equal sides cost one ``==``; nested sequences are scanned entry by entry
    only on a mismatch, and equal entries in different containers are equal.
    """
    if want == got:
        return ""
    if isinstance(want, Sequence) and isinstance(got, Sequence) and len(want) == len(got):
        for k, (w, g) in enumerate(zip(want, got), start=1):
            detail = _diff(what, w, g, index + (k,))
            if detail:
                return detail
        return ""
    at = f" ({', '.join(map(str, index))})" if index else ""
    return f"{what}{at}: want {want}, got {got}"


def _diagonal(values: Sequence) -> tuple[tuple, ...]:
    return tuple(tuple(v if i == j else 0 for j in range(len(values)))
                 for i, v in enumerate(values))


def check_oracle_equivalence(a: Artefacts) -> str:
    """The kernel of :func:`~gramkernel.kernelbuild.build_kernel` == exact
    Bareiss inverse of the moment Gram.  B = ints / den equals the inverse
    d T / p (d the scale, p the pivot) exactly when ``ints * p == d * den *
    T``; the ``Fraction`` inverse is built only to name a mismatch."""
    detail = _diff("grade of B vs Bareiss inverse", a.inverse_grade, a.kernel.sqrtpi_power)
    if detail or ([[b * a.pivot for b in row] for row in a.kernel.ints]
                  == [[a.scale * a.kernel.den * t for t in row] for row in a.adjugate]):
        return detail
    inverse = tuple(tuple(Fraction(a.scale * t, a.pivot) for t in row) for row in a.adjugate)
    return _diff("B vs Bareiss inverse", inverse, a.kernel.entries)


def check_gram_times_kernel(a: Artefacts) -> str:
    """G * B == I exactly (the sqrt(pi) grades cancel).  With G and B
    integers over their ``den``, (G B)_ij is I's entry exactly when the
    integer dot product is ``G.den * B.den`` (i = j) or 0; the ``Fraction``
    product is built only to name a mismatch."""
    detail = _diff("grade of G B", 0, a.gram.sqrtpi_power + a.kernel.sqrtpi_power)
    cols, d = tuple(zip(*a.kernel.ints)), a.gram.den * a.kernel.den
    dots = [[sum(map(mul, row, col)) for col in cols] for row in a.gram.ints]
    if detail or all(t == d * (i == j) for i, r in enumerate(dots) for j, t in enumerate(r)):
        return detail
    return _diff("G B vs I", _diagonal((1,) * a.n), GradedMatrix(a.family, a.n, dots, d).entries)


def check_orthogonality(a: Artefacts) -> str:
    """A * G * A^T is exactly diagonal with the true norms on the diagonal,
    whose grade is the Gram matrix's.  The product read is ``a.agat``, the
    leading n-block of the largest size's A_N G_N A_N^T; it equals
    A_n G_n A_n^T exactly because A is lower triangular."""
    return (_diff("grade of G vs the norms' grade", a.family.moment_grade, a.gram.sqrtpi_power)
            or _diff("A G A^T vs diag(norms)", _diagonal(a.norms), a.agat))


def check_determinant_formula(a: Artefacts) -> str:
    """prod(lambda_i) == det(A)**2 * det(G), exactly, grade included.  The
    products are taken over numerators and denominators apart and compared
    crosswise; the ``Fraction`` sides are built only to name a mismatch."""
    # the norms' product has grade n * moment_grade, det(G) n * gram grade
    detail = _diff("grade of G vs the norms' grade", a.family.moment_grade, a.gram.sqrtpi_power)
    # prod(norms) = p / q, unreduced; A is triangular, so det(A) = s / t is the
    # product of each row's last integer over the product of the row denominators
    p, q = prod(x.numerator for x in a.norms), prod(x.denominator for x in a.norms)
    s, t = prod(ints[-1] for ints, _ in a.coeffs), prod(d for _, d in a.coeffs)
    g = a.det_gram
    if detail or p * t * t * g.denominator == q * s * s * g.numerator:
        return detail
    return _diff("prod(norms) vs det(A)^2 det(G)", prod(a.norms), Fraction(s, t) ** 2 * g)


def check_kernel_shape(a: Artefacts) -> str:
    """Kernel symmetry plus exact positive definiteness (all minors > 0).
    Symmetry is decided on B's integers; its entries only name a mismatch."""
    b, signs = a.kernel, tuple((m > 0) - (m < 0) for m in a.kernel_minors)
    return (_diff("B vs B^T", tuple(zip(*b.ints)), b.ints)
            and _diff("B vs B^T", tuple(zip(*b.entries)), b.entries)
            or _diff("sign of B's leading principal minor", (1,) * a.n, signs))


def check_gram_hankel(a: Artefacts) -> str:
    """Gram entries are constant along anti-diagonals: each equals its
    anti-diagonal's entry in the first row or the last column."""
    g, n = a.gram.entries, a.n
    hankel = tuple(tuple(g[max(0, i + j - n + 1)][min(i + j, n - 1)] for j in range(n))
                   for i in range(n))
    return _diff("G vs Hankel of its first row and last column", hankel, g)


def check_det_product(a: Artefacts) -> str:
    """det(G) * det(B) == 1 with grades cancelling."""
    return (_diff("grade of det(G) det(B)", 0, (a.gram.sqrtpi_power + a.kernel.sqrtpi_power) * a.n)
            or _diff("det(G) det(B)", 1, a.det_gram * a.kernel_minors[-1]))


def check_reproducing(a: Artefacts) -> str:
    """Projecting each in-span monomial returns exactly that monomial: the
    estimate of basis monomial k has coefficient 1 at k and 0 elsewhere."""
    if a.kernel.sqrtpi_power + a.family.moment_grade != 0:
        return (f"kernel grade {a.kernel.sqrtpi_power} does not cancel "
                f"moment grade {a.family.moment_grade}")
    powers = [a.family.basis_power(k) for k in range(1, a.n + 1)]
    estimates = tuple(project(a.kernel, monomial_moment_vector(a.family, a.n, p)).coefficients
                      for p in powers)
    return _diff("estimate of monomial k, coefficient i", _diagonal((1,) * a.n), estimates)


CHECKS = {
    "oracle-equivalence": check_oracle_equivalence,
    "gram-kernel-identity": check_gram_times_kernel,
    "orthogonality": check_orthogonality,
    "determinant-identity": check_determinant_formula,
    "kernel-symmetry-pd": check_kernel_shape,
    "gram-hankel": check_gram_hankel,
    "det-product": check_det_product,
    "reproducing-property": check_reproducing,
}


def _corrupted(kernel: GradedMatrix) -> GradedMatrix:
    ints = [[7 * a for a in row] for row in kernel.ints]
    ints[0][0] += kernel.den
    return kernel.replace(ints=ints, den=7 * kernel.den)


def run_checks(
    max_size: int,
    families: Sequence[Family] = ALL_FAMILIES,
    inject_corruption: bool = False,
) -> list[CheckResult]:
    """Run every check of ``CHECKS``, in order, for every family and size
    1..max_size.

    Each family is one :func:`sweep_artefacts`; the artefacts of one size
    are shared by all checks and dropped before the next size.
    ``inject_corruption`` perturbs one kernel entry in the artefacts the
    oracle-equivalence check alone sees; the resulting failures are the
    negative control proving the harness can fail.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    results = []
    for family in families:
        for arts in sweep_artefacts(family, max_size):
            bad = arts.replace(kernel=_corrupted(arts.kernel)) if inject_corruption else arts
            for name, check in CHECKS.items():
                detail = check(bad if check is check_oracle_equivalence else arts)
                results.append(CheckResult(name, family.name, arts.n, not detail, detail))
    return results
