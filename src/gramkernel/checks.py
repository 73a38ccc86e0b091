"""Self-verification suites: every structural identity the construction owes.

Each check is exact (rational equality, no tolerances) and pits two
independent routes against each other -- closed-form kernel vs. Bareiss
inverse, expansion matrix vs. moment Gram, projection vs. identity.  The
CLI ``verify`` subcommand runs all of them over every family and size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .approx import monomial_moment_vector, project
from .families import ALL_FAMILIES, Family, GradedMatrix, coeff_matrix, norm_vector
from .kernelbuild import build_kernel
from .oracle import gram_from_moments, invert_exact, leading_principal_minors


@dataclass(frozen=True)
class CheckResult:
    name: str
    family: str
    size: int
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Artefacts:
    """Everything the checks compare for one (family, n), each built once.

    ``inverse`` and ``det_gram`` are the Bareiss inverse and determinant of
    ``gram`` (``det_gram`` a core of grade ``n * gram.sqrtpi_power``);
    ``norms`` are cores of grade ``family.moment_grade``; ``kernel_minors``
    are the leading principal minors of ``kernel``.
    """

    family: Family
    n: int
    kernel: GradedMatrix
    gram: GradedMatrix
    inverse: GradedMatrix
    det_gram: Fraction
    coeffs: GradedMatrix
    norms: tuple[Fraction, ...]
    kernel_minors: tuple[Fraction, ...]


def build_artefacts(family: Family, n: int) -> Artefacts:
    kernel = build_kernel(family, n)
    gram = gram_from_moments(family, n)
    inverse, det_gram = invert_exact(gram)
    return Artefacts(
        family, n, kernel, gram, inverse, det_gram,
        coeff_matrix(family, n), norm_vector(family, n),
        leading_principal_minors(kernel.entries),
    )


def _identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def _matmul(a, b) -> list[list[Fraction]]:
    n, m, p = len(a), len(b), len(b[0])
    return [
        [sum((a[i][k] * b[k][j] for k in range(m)), Fraction(0)) for j in range(p)]
        for i in range(n)
    ]


def check_oracle_equivalence(a: Artefacts) -> CheckResult:
    """Closed-form kernel == exact Bareiss inverse of the moment Gram."""
    ok = (
        a.kernel.entries == a.inverse.entries
        and a.kernel.sqrtpi_power == a.inverse.sqrtpi_power
    )
    detail = "" if ok else "kernel differs from the exact Gram inverse"
    return CheckResult("oracle-equivalence", a.family.name, a.n, ok, detail)


def check_gram_kernel_identity(a: Artefacts) -> CheckResult:
    """G * B == I exactly (the sqrt(pi) grades cancel)."""
    ok = (
        a.gram.sqrtpi_power + a.kernel.sqrtpi_power == 0
        and _matmul(a.gram.entries, a.kernel.entries) == _identity(a.n)
    )
    return CheckResult("gram-kernel-identity", a.family.name, a.n, ok)


def check_orthogonality(a: Artefacts) -> CheckResult:
    """A * G * A^T is exactly diagonal with the true norms on the diagonal,
    whose grade is the Gram matrix's."""
    coeffs = a.coeffs.entries
    prod = _matmul(_matmul(coeffs, a.gram.entries), list(zip(*coeffs)))
    ok = a.gram.sqrtpi_power == a.family.moment_grade and all(
        prod[i][j] == (a.norms[i] if i == j else 0) for i in range(a.n) for j in range(a.n)
    )
    return CheckResult("orthogonality", a.family.name, a.n, ok)


def check_determinant_identity(a: Artefacts) -> CheckResult:
    """prod(lambda_i) == det(A)**2 * det(G), exactly, grade included."""
    det_a = prod_norms = Fraction(1)
    for i in range(a.n):
        det_a *= a.coeffs.entries[i][i]  # triangular
        prod_norms *= a.norms[i]
    # the norms' product has grade n * moment_grade, det(G) n * gram grade
    ok = prod_norms == det_a**2 * a.det_gram and a.family.moment_grade == a.gram.sqrtpi_power
    return CheckResult("determinant-identity", a.family.name, a.n, ok)


def check_kernel_shape(a: Artefacts) -> CheckResult:
    """Kernel symmetry plus exact positive definiteness (all minors > 0)."""
    entries = a.kernel.entries
    sym = all(entries[i][j] == entries[j][i] for i in range(a.n) for j in range(i))
    ok = sym and all(m > 0 for m in a.kernel_minors)
    return CheckResult("kernel-symmetry-pd", a.family.name, a.n, ok)


def check_gram_hankel(a: Artefacts) -> CheckResult:
    """Gram entries are constant along anti-diagonals."""
    entries = a.gram.entries
    ok = all(
        entries[i][j] == entries[i - 1][j + 1]
        for i in range(1, a.n)
        for j in range(a.n - 1)
    )
    return CheckResult("gram-hankel", a.family.name, a.n, ok)


def check_det_product(a: Artefacts) -> CheckResult:
    """det(G) * det(B) == 1 with grades cancelling."""
    ok = (
        a.det_gram * a.kernel_minors[-1] == 1
        and (a.gram.sqrtpi_power + a.kernel.sqrtpi_power) * a.n == 0
    )
    return CheckResult("det-product", a.family.name, a.n, ok)


def check_reproducing(a: Artefacts) -> CheckResult:
    """Projecting each in-span monomial returns exactly that monomial."""
    name = "reproducing-property"
    if a.kernel.sqrtpi_power + a.family.moment_grade != 0:
        detail = (f"kernel grade {a.kernel.sqrtpi_power} does not cancel "
                  f"moment grade {a.family.moment_grade}")
        return CheckResult(name, a.family.name, a.n, False, detail)
    ok = True
    for k in range(1, a.n + 1):
        moments = monomial_moment_vector(a.family, a.n, a.family.basis_power(k))
        estimate = project(a.kernel, moments)
        for i, c in enumerate(estimate.coefficients, start=1):
            if c != (1 if i == k else 0):
                ok = False
    return CheckResult(name, a.family.name, a.n, ok)


_CHECKS = (
    check_oracle_equivalence,
    check_gram_kernel_identity,
    check_orthogonality,
    check_determinant_identity,
    check_kernel_shape,
    check_gram_hankel,
    check_det_product,
    check_reproducing,
)


def _corrupted(kernel: GradedMatrix) -> GradedMatrix:
    rows = [list(r) for r in kernel.entries]
    rows[0][0] += Fraction(1, 7)
    return replace(kernel, entries=tuple(tuple(r) for r in rows))


def run_checks(
    max_size: int,
    families: Sequence[Family] = ALL_FAMILIES,
    inject_corruption: bool = False,
) -> list[CheckResult]:
    """Run every check for every family and size 1..max_size.

    The artefacts of one (family, n) are built once, shared by all checks
    and dropped before the next size.  ``inject_corruption`` perturbs one
    kernel entry in the artefacts the oracle-equivalence check alone sees;
    the resulting failures are the negative control proving the harness
    can fail.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    results = []
    for family in families:
        for n in range(1, max_size + 1):
            arts = build_artefacts(family, n)
            for check in _CHECKS:
                if check is check_oracle_equivalence and inject_corruption:
                    results.append(check(replace(arts, kernel=_corrupted(arts.kernel))))
                else:
                    results.append(check(arts))
    return results
