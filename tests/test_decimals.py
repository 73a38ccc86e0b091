"""Every decimal that ``variance`` and ``cond`` print, and every ``plotdata``
decimal but f at the exact zeros of sin and cos (x, the estimate and Taylor
columns of all three targets, f elsewhere), is the correctly rounded
rendering of its exact value, by the independent oracle in ``refdecimal``;
the package's integer renderer equals the ``decimal`` one it replaced.

The commands run in-process through ``main`` and are read back from their
CSV.  A negative control mutates the package's renderer and shows that the
same comparison fails.
"""

import contextlib
import csv
import io
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from refdecimal import decimal_render, function_reference, reference

from gramkernel import approx, cli, exactscalar
from gramkernel.approx import TARGETS, function_moments, project, taylor_comparator, variance_rows
from gramkernel.cli import main
from gramkernel.families import FAMILIES
from gramkernel.kernelbuild import build_kernel

# 1.00000000000000005: a decimal tie at 17 digits whose rules disagree
TIE = Fraction(100000000000000005, 10**17)


def _csv_rows(argv, fmt=("--format", "csv")):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv + list(fmt)) == 0
    return list(csv.reader(io.StringIO(buf.getvalue())))[1:]


def variance_mismatches(target, size):
    """(size, column, printed, oracle) for every ``variance`` decimal that is
    not the oracle's rendering of its exact value."""
    rows = _csv_rows(["variance", "--target", target, "--max-size", str(size)])
    assert len(rows) == size
    return [(n, column, got, reference(value))
            for n, (row, pair) in enumerate(zip(rows, variance_rows(TARGETS[target], size)), 1)
            for column, got, value in zip(("taylor", "estimate"), row[1:3], pair)
            if got != reference(value)]


def cond_mismatches(family, size):
    """(size, printed, oracle) for every ``cond`` decimal that is not the
    oracle's half-even rendering of the exact column."""
    rows = _csv_rows(["cond", "--family", family, "--max-size", str(size)])
    assert len(rows) == size
    return [(row[0], row[2], reference(Fraction(row[1]), True)) for row in rows
            if row[2] != reference(Fraction(row[1]), True)]


def _plotdata_rows(target, size, xmin, xmax, samples):
    """(x, row) per sample of a ``plotdata`` run, x exact."""
    rows = _csv_rows(["plotdata", "--target", target, "--size", str(size), f"--xmin={xmin}",
                      f"--xmax={xmax}", "--samples", str(samples)], fmt=())
    assert len(rows) == samples
    step = (xmax - xmin) / (samples - 1)
    return [(xmin + i * step, row) for i, row in enumerate(rows)]


def plot_mismatches(target, size, xmin, xmax, samples):
    """(x, column, printed, oracle) for every ``plotdata`` x, estimate and
    Taylor decimal that is not the oracle's rendering of its exact value,
    the polynomial at x on ``project``'s and the Taylor comparator's exact
    coefficients."""
    family = TARGETS[target].natural_family
    polys = (project(build_kernel(family, size), function_moments(TARGETS[target], size)),
             taylor_comparator(TARGETS[target], size))
    out = []
    for x, row in _plotdata_rows(target, size, xmin, xmax, samples):
        wants = [reference(x, True)] + [
            reference(sum(c * x ** family.basis_power(k) for k, c in enumerate(p.coefficients, 1)))
            for p in polys]
        out += [(x, column, got, want) for column, got, want
                in zip(("x", "estimate", "taylor"), (row[0], row[2], row[3]), wants) if got != want]
    return out


def _is_zero(target, x):
    return target == "sin-pi" and x.denominator == 1 or target == "cos-pi" and x.denominator == 2


@st.composite
def small_windows(draw, bound=200):
    """Window ends in [-bound, bound] with denominators up to 1000, and 2-17 samples."""
    ends = [Fraction(draw(st.integers(-bound * den, bound * den)), den)
            for den in (draw(st.integers(1, 1000)), draw(st.integers(1, 1000)))]
    assume(ends[0] != ends[1])
    return min(ends), max(ends), draw(st.integers(2, 17))


@given(size=st.integers(1, 30), window=small_windows())
@example(size=3, window=(Fraction(2111, 200), Fraction(110), 17))  # two exact ties
@settings(max_examples=25, deadline=None)
def test_exp_neg_plotdata_decimals_are_the_oracles(size, window):
    assert plot_mismatches("exp-neg", size, *window) == []


@given(target=st.sampled_from(("sin-pi", "cos-pi")), size=st.integers(1, 30),
       window=small_windows(bound=1))
@example(target="sin-pi", size=30, window=(Fraction(-1), Fraction(1), 17))
@example(target="cos-pi", size=30, window=(Fraction(-1), Fraction(1), 17))
@settings(max_examples=25, deadline=None)
def test_trig_plotdata_decimals_are_the_oracles(target, size, window):
    """The sin-pi and cos-pi estimate and Taylor columns, from pi-Laurent
    coefficients, certified on the grid, inside the domain [-1, 1]."""
    assert plot_mismatches(target, size, *window) == []


def test_exp_neg_plotdata_prints_exact_ties_half_away_from_zero():
    """The 257-sample window whose dyadic estimates hold 36 exact ties: each
    prints its upper digit, as the exact value 0.522144830322265625 at
    x = 2503/3200 does."""
    window = (Fraction(3, 4), Fraction(899, 100), 257)
    assert plot_mismatches("exp-neg", 3, *window) == []
    assert dict(_plotdata_rows("exp-neg", 3, *window))[Fraction(2503, 3200)][2] == \
        "0.52214483032226563"


@given(target=st.sampled_from(sorted(TARGETS)), size=st.integers(1, 8), window=small_windows())
@settings(max_examples=25, deadline=None)
def test_plotdata_f_decimals_are_the_oracles(target, size, window):
    """Every f decimal away from f's exact zeros, where ``plotdata`` still
    prints a float's rounding noise (ROADMAP item 12)."""
    xmin, xmax, samples = window
    if target != "exp-neg":
        xmin, xmax = xmin / 10, xmax / 10  # about five periods
    assert [(x, row[1]) for x, row in _plotdata_rows(target, size, xmin, xmax, samples)
            if not _is_zero(target, x) and row[1] != function_reference(target, x)] == []


@st.composite
def render_operands(draw):
    """(p, q) with p/q an exact 17-digit tie, a decade carry, a value at the
    fixed/scientific switch, zero, or operands of 1 to 2000 digits."""
    kind = draw(st.sampled_from(("tie", "carry", "switch", "zero", "digits")))
    scale = 10 ** draw(st.integers(0, 40))
    if kind == "tie":  # d.dddddddddddddddd5 * 10**e
        p = (10 * draw(st.integers(10**16, 10**17 - 1)) + 5) * 10 ** draw(st.integers(0, 30))
        q = 10 ** draw(st.integers(0, 60))
    elif kind == "carry":  # 9.99999999999999995 * 10**e and nearby
        p = (10**18 - 5 + draw(st.integers(-2, 2))) * 10 ** draw(st.integers(0, 30))
        q = 10 ** draw(st.integers(0, 60))
    elif kind == "switch":  # about 10**-5, 10**-4, 10**16 and 10**17
        e = draw(st.sampled_from((-6, -5, -4, 15, 16, 17)))
        p = 10**18 * scale + draw(st.integers(-10, 10)) * scale // 10 ** draw(st.integers(0, 3))
        q = 10 ** (18 - e) * scale
    elif kind == "zero":
        p, q = 0, draw(st.integers(1, 10**40))
    else:
        p = draw(st.integers(0, 10 ** draw(st.integers(1, 2000))))
        q = draw(st.integers(1, 10 ** draw(st.integers(1, 2000))))
    return p * draw(st.sampled_from((1, -1))), q


@given(render_operands(), st.sampled_from((17, 17, 16, 1, 2, 30)), st.booleans())
@example((100000000000000005, 10**17), 17, True)  # a tie, to even: down
@example((100000000000000015, 10**17), 17, True)  # to even: up
@example((-999999999999999995, 10**13), 17, False)  # -99999.9999999999995: carries to 1e5
@example((99999999999999999, 10**22), 17, False)  # 9.9999999999999999e-6 rounds to 1.0e-5
@example((999999999999999995, 10), 17, True)  # 99999999999999999.5: to even, 1e17
@settings(max_examples=1500, deadline=None)
def test_integer_renderer_equals_the_decimal_one(operands, sig_digits, half_even):
    p, q = operands
    for empty in ("", ".0"):
        assert exactscalar._render(p, q, sig_digits, half_even, empty) == \
            decimal_render(p, q, sig_digits, half_even, empty)


@given(target=st.sampled_from(sorted(TARGETS)), size=st.integers(1, 40))
@example(target="sin-pi", size=40)
@example(target="cos-pi", size=40)
@example(target="exp-neg", size=40)
@settings(max_examples=20, deadline=None)
def test_variance_decimals_are_the_oracles(target, size):
    assert variance_mismatches(target, size) == []


@given(family=st.sampled_from(sorted(FAMILIES)), size=st.integers(1, 40))
@settings(max_examples=20, deadline=None)
def test_cond_decimals_are_the_oracles(family, size):
    assert cond_mismatches(family, size) == []


def test_a_tie_renders_in_each_columns_rule():
    assert exactscalar.certified_decimal_str(TIE, 128)[0] == reference(TIE) == "1.0000000000000001"
    assert exactscalar.decimal_str(TIE) == reference(TIE, True) == "1"


def _mutate_renderer(monkeypatch, other_rounding=False, digits=None):
    """Mutate the digit routine behind every rendered decimal, ``_render``'s
    and the certified columns' alike."""
    real = exactscalar._round_decimal

    def mutated(p, q, sig_digits, half_even, radius=0):
        return real(p, q, digits or sig_digits, half_even != other_rounding, radius)

    for module in (exactscalar, approx, cli):  # every module that binds it
        if hasattr(module, "_round_decimal"):
            monkeypatch.setattr(module, "_round_decimal", mutated)


def test_a_renderer_with_16_digits_fails_the_oracle(monkeypatch):
    _mutate_renderer(monkeypatch, digits=16)
    for target in sorted(TARGETS):
        assert variance_mismatches(target, 14)
    assert cond_mismatches("laguerre", 10)
    assert plot_mismatches("exp-neg", 3, Fraction(1, 3), Fraction(7), 9)
    assert plot_mismatches("sin-pi", 12, Fraction(-1), Fraction(1), 9)


@pytest.mark.parametrize("column", ["variance", "cond"])
def test_a_renderer_with_the_other_rounding_fails_the_oracle(monkeypatch, column):
    """No exact ``variance`` or ``cond`` value at these sizes is a tie that
    the two roundings print differently (a pi-Laurent value is no tie at
    all), so the mutated renderer is shown a tie through each column's own
    rendering function."""
    _mutate_renderer(monkeypatch, other_rounding=True)
    if column == "variance":
        assert exactscalar.certified_decimal_str(TIE, 128)[0] != reference(TIE)
    else:
        assert exactscalar.decimal_str(TIE) != reference(TIE, True)
