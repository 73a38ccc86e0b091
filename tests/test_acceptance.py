"""Acceptance gate: reference-table reproduction and exactness criteria.

One test per criterion; each prints a single ``ACCEPTANCE n <name>: PASS|FAIL``
line (run pytest with ``-s`` to see them on success).

Tolerances, pinned here and nowhere else:

* Condition tables -- one unit in the last printed digit of the reference
  value.  Entries printed at 16-17 significant digits carry the reference's
  own binary-double rendering noise (up to ~3e-16 relative, confirmed by
  exact arithmetic), so those entries additionally allow 1e-15 relative.
* Exact variance table and the printed polynomials -- zero tolerance.
* Trig variance tables -- 1e-6 relative or one unit in the last printed
  digit, whichever is larger (several reference entries carry only 4-5
  significant digits).  One entry (sin estimate, size 8) deviates from the
  exact value by 1.86e-6 relative even though it is printed to 10 digits;
  the exact value is confirmed here against independent 300-bit quadrature,
  so that entry is asserted as a machine-checked print-precision outlier
  rather than silently tolerated.
* Structural criteria -- exact rational equality, no tolerance.
"""

import functools
import json
from fractions import Fraction

import pytest
from mpmath import mp, mpf, pi, quad, sin
import refdecimal

from gramkernel.approx import (
    COS_PI,
    EXP_NEG,
    SIN_PI,
    error_variance,
    eval_polynomial,
    function_moments,
    monomial_moment_vector,
    project,
    taylor_comparator,
)
from gramkernel.checks import run_checks
from gramkernel.cli import main as cli_main
from gramkernel.conditioning import condition_number
from gramkernel.exactscalar import PiLaurent, decimal_str, eval_pilaurent
from gramkernel.families import (
    ALL_FAMILIES,
    HERMITE_EVEN,
    HERMITE_ODD,
    LAGUERRE,
    LEGENDRE_EVEN,
    LEGENDRE_ODD,
)
from gramkernel.kernelbuild import build_kernel, closed_form_kernel
from gramkernel.oracle import gram_from_moments, invert_exact


def criterion(num, name):
    """Print the criterion's pass/fail line no matter how the test ends."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {num} {name}: PASS")

        return wrapper

    return decorate


def parse_reference(text):
    """As-printed reference value -> (exact Fraction, one-last-digit ulp).

    ``a+p/q`` forms are exact (ulp 0); otherwise the ulp is one unit in the
    last printed digit, scientific notation included.
    """
    if "+" in text:
        whole, frac = text.split("+")
        return Fraction(whole) + Fraction(frac), Fraction(0)
    mant, _, exp = text.lower().partition("e")
    exponent = int(exp) if exp else 0
    decimals = len(mant.split(".")[1]) if "." in mant else 0
    value = Fraction(mant) * Fraction(10) ** exponent
    return value, Fraction(10) ** (exponent - decimals)


# --- reference data: the five condition tables, sizes 1..8 ------------------

CONDITION_TABLES = {
    LAGUERRE: ["1", "9", "288", "22620", "2811960", "505744470",
               "125307922380", "48125908977898.5"],
    LEGENDRE_ODD: ["1", "37+1/3", "1251.375", "48319.7", "1627592.3610491073",
                   "50651670.61979168", "1819734500.2385054", "62490018821.32725"],
    LEGENDRE_EVEN: ["1", "20", "513.1875", "18150", "607905.84765625",
                    "18718753.030133925", "596835533.9163207", "20660541993.47005"],
    HERMITE_ODD: ["1", "18.375", "635.9765625", "63026.455078125",
                  "9451396.300048828", "1970700695.5026627",
                  "544334817099.9446", "192139661596606.84"],
    HERMITE_EVEN: ["1", "4.5", "114.84375", "6838.330078125",
                   "699962.9919433594", "114340147.64968875",
                   "31145186114.19374", "10775334775103.02"],
}

# --- reference data: exact variance table (exp target), sizes 2..8 ----------

EXP_VARIANCES = {
    2: ("5/6", "1/48"),
    3: ("31/12", "1/192"),
    4: ("209/24", "1/768"),
    5: ("1471/48", "1/3072"),
    6: ("10625/96", "1/12288"),
    7: ("78079/192", "1/49152"),
    8: ("580865/384", "1/196608"),
}

# --- reference data: printed polynomial coefficients, ascending powers ------

PRINTED_ESTIMATE = ["255/256", "-247/256", "219/512", "-163/1536",
                    "31/2048", "-37/30720", "1/20480", "-1/1290240"]
PRINTED_TAYLOR = ["1", "-1", "1/2", "-1/6", "1/24", "-1/120", "1/720", "-1/5040"]

# --- reference data: trig variance tables, sizes 2..8 ------------------------

SIN_TABLE = {
    2: ("0.80166669", "0.00878023"),
    3: ("0.03778397", "0.00003698"),
    4: ("0.00060558", "4.90168598e-8"),
    5: ("4.21177985e-6", "2.67561342e-11"),
    6: ("1.47725389e-8", "7.097434670e-15"),
    7: ("2.89640460e-11", "1.024073362e-18"),
    8: ("3.42305581e-14", "8.722916936e-23"),
}

COS_TABLE = {
    2: ("0.20346805", "0.07606160"),
    3: ("0.00537462", "0.00067401"),
    4: ("0.00005545", "1.52457206e-6"),
    5: ("2.69759727e-7", "1.26430443e-9"),
    6: ("6.99788566e-10", "4.731342604e-13"),
    7: ("1.05658774e-12", "9.147610639e-17"),
    8: ("9.91539162e-16", "1.005215759e-20"),
}

# (target, column, size) of the one reference entry whose own printed digits
# exceed its accuracy; its true value is re-derived by quadrature below
PRINT_PRECISION_OUTLIER = ("sin-pi", "estimate", 8)


@criterion(1, "condition-tables")
def test_criterion_1_condition_tables():
    checked = 0
    for family, printed_rows in CONDITION_TABLES.items():
        for size, printed in enumerate(printed_rows, start=1):
            kappa = condition_number(family, size)
            reference, ulp = parse_reference(printed)
            # reference entries at >= 16 significant digits carry their own
            # rendering noise; everything shorter must match to the digit
            sig_digits = len(printed.replace(".", "").replace("+", "").lstrip("0"))
            allowance = max(ulp, abs(reference) * Fraction(1, 10**15))
            if sig_digits < 16:
                allowance = ulp
            assert abs(kappa - reference) <= allowance, (
                f"{family.name} size {size}: kappa {kappa} vs printed {printed}"
            )
            checked += 1
    assert checked == 40
    # spot-check the rendered strings called out explicitly
    assert decimal_str(condition_number(LAGUERRE, 8), 17) == "48125908977898.5"
    assert condition_number(LEGENDRE_ODD, 2) == Fraction(112, 3)
    assert decimal_str(condition_number(HERMITE_ODD, 2), 17) == "18.375"


@criterion(2, "exact-variance-table")
def test_criterion_2_exact_variance_table():
    for size, (taylor_ref, estimate_ref) in EXP_VARIANCES.items():
        kernel = build_kernel(LAGUERRE, size)
        estimate = project(kernel, function_moments(EXP_NEG, size))
        taylor = taylor_comparator(EXP_NEG, size)
        est_var = error_variance(EXP_NEG, estimate)
        tay_var = error_variance(EXP_NEG, taylor)
        assert tay_var == PiLaurent(Fraction(taylor_ref)), f"taylor size {size}"
        assert est_var == PiLaurent(Fraction(estimate_ref)), f"estimate size {size}"


@criterion(3, "printed-polynomials")
def test_criterion_3_printed_polynomials(tmp_path):
    out = tmp_path / "project.json"
    code = cli_main(["project", "--target", "exp-neg", "--size", "8",
                     "--format", "json", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())["data"]
    assert [row["power"] for row in data] == list(range(8))
    assert [row["estimate"] for row in data] == PRINTED_ESTIMATE
    assert [row["taylor"] for row in data] == PRINTED_TAYLOR


def _mpf_polynomial(poly, y):
    """An odd (legendre-odd) polynomial at an mpf y, by mpmath at the working
    precision: each coefficient as the sum of its q_m * pi**m, then Horner."""
    acc = mpf(0)
    for c in reversed(poly.coefficients):
        acc = acc * y * y + sum((mpf(q.numerator) / q.denominator * pi**m for m, q in c.items()),
                                mpf(0))
    return acc * y


@criterion(4, "trig-variance-tables")
def test_criterion_4_trig_variance_tables():
    outlier_seen = False
    with mp.workprec(330):
        for target, table in ((SIN_PI, SIN_TABLE), (COS_PI, COS_TABLE)):
            for size, (taylor_ref, estimate_ref) in table.items():
                kernel = build_kernel(target.natural_family, size)
                estimate = project(kernel, function_moments(target, size))
                taylor = taylor_comparator(target, size)
                for column, poly, printed in (
                    ("taylor", taylor, taylor_ref),
                    ("estimate", estimate, estimate_ref),
                ):
                    exact_var = error_variance(target, poly)
                    value = eval_pilaurent(exact_var, 320)
                    reference, ulp = parse_reference(printed)
                    ref_num = mpf(reference.numerator) / reference.denominator
                    deviation = abs(value - ref_num)
                    allowed = max(abs(ref_num) * mpf("1e-6"),
                                  mpf(ulp.numerator) / ulp.denominator)
                    if (target.name, column, size) == PRINT_PRECISION_OUTLIER:
                        # the printed entry itself is only ~6 digits accurate:
                        # confirm the deviation is real but small, and that the
                        # exact value is the one quadrature reproduces
                        assert allowed < deviation < abs(ref_num) * mpf("3e-6")
                        residual = quad(lambda y: (sin(pi * y) - _mpf_polynomial(poly, y)) ** 2,
                                        [-1, 0, 1])
                        assert abs(value - residual) <= abs(residual) * mpf(10) ** -30
                        # and plotdata prints that polynomial's exact values correctly rounded
                        assert eval_polynomial(poly, range(-8, 9), 8) == [refdecimal.reference(sum(
                            (c * Fraction(num, 8) ** (2 * k + 1)
                             for k, c in enumerate(poly.coefficients)), Fraction(0)))
                            for num in range(-8, 9)]
                        outlier_seen = True
                    else:
                        assert deviation <= allowed, (
                            f"{target.name} {column} size {size}: "
                            f"{value} vs printed {printed}"
                        )
                    print(f"  exact {target.name} {column} size {size}: "
                          f"{mp.nstr(value, 30)}")
    assert outlier_seen


@criterion(5, "oracle-equivalence")
def test_criterion_5_oracle_equivalence():
    for family in ALL_FAMILIES:
        for n in range(1, 11):
            kernel = build_kernel(family, n)
            gram = gram_from_moments(family, n)
            inverse, _ = invert_exact(gram)
            assert kernel.entries == inverse.entries, f"{family.name} n={n}"
            assert kernel.sqrtpi_power == inverse.sqrtpi_power
            for i in range(n):
                for j in range(n):
                    acc = sum(
                        (gram.entries[i][k] * kernel.entries[k][j] for k in range(n)),
                        Fraction(0),
                    )
                    assert acc == (1 if i == j else 0), f"{family.name} n={n} G*B"


@criterion(6, "structural-invariants")
def test_criterion_6_structural_invariants():
    results = run_checks(10)
    failed = [r for r in results if not r.passed]
    assert not failed, f"failed checks: {failed[:5]}"
    # the reproducing property over every in-span monomial, asserted directly
    for family in ALL_FAMILIES:
        kernel = build_kernel(family, 8)
        for k in range(1, 9):
            moments = monomial_moment_vector(family, 8, family.basis_power(k))
            est = project(kernel, moments)
            assert [c for c in est.coefficients] == [
                PiLaurent(1 if i == k else 0) for i in range(1, 9)
            ], f"{family.name} monomial {k}"


@criterion(7, "legendre-erratum-machine-checked")
def test_criterion_7_legendre_erratum():
    for family in (LEGENDRE_EVEN, LEGENDRE_ODD):
        for n in range(2, 7):
            inverse, _ = invert_exact(gram_from_moments(family, n))
            printed = closed_form_kernel(family, n, legendre_printed=True)
            corrected = closed_form_kernel(family, n)
            assert printed.entries != inverse.entries, (
                f"{family.name} n={n}: printed factor placement must fail"
            )
            assert corrected.entries == inverse.entries, (
                f"{family.name} n={n}: corrected placement must pass"
            )
