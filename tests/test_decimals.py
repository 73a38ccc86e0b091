"""Every decimal that ``variance`` and ``cond`` print is the correctly rounded
rendering of its exact value, by the independent oracle in ``refdecimal``.

The commands run in-process through ``main`` and are read back from their
CSV.  A negative control mutates the package's renderer and shows that the
same comparison fails.
"""

import contextlib
import csv
import io
from decimal import ROUND_HALF_EVEN, ROUND_HALF_UP
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from refdecimal import reference

from gramkernel import exactscalar
from gramkernel.approx import TARGETS, variance_rows
from gramkernel.cli import main
from gramkernel.families import FAMILIES

# 1.00000000000000005: a decimal tie at 17 digits whose rules disagree
TIE = Fraction(100000000000000005, 10**17)


def _csv_rows(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv + ["--format", "csv"]) == 0
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
    real = exactscalar._render

    def mutated(p, q, sig_digits, rounding, empty_fraction):
        if other_rounding:
            rounding = ROUND_HALF_UP if rounding == ROUND_HALF_EVEN else ROUND_HALF_EVEN
        return real(p, q, digits or sig_digits, rounding, empty_fraction)

    monkeypatch.setattr(exactscalar, "_render", mutated)


def test_a_renderer_with_16_digits_fails_the_oracle(monkeypatch):
    _mutate_renderer(monkeypatch, digits=16)
    for target in sorted(TARGETS):
        assert variance_mismatches(target, 14)
    assert cond_mismatches("laguerre", 10)


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
