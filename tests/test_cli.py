"""End-to-end CLI behaviour: formats, exact serialization, exit codes."""

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gramkernel import cli
from gramkernel.approx import TARGETS
from gramkernel.cli import main
from gramkernel.families import FAMILIES


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_cli_expect_exit(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    capsys.readouterr()
    return excinfo.value.code


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestKernelCommand:
    def test_json_laguerre(self, capsys):
        code, out = run_cli(capsys, ["kernel", "--family", "laguerre", "--size", "2",
                                     "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "laguerre"
        assert payload["size"] == 2
        assert payload["grade"] == 0
        assert payload["data"] == [["2", "-1"], ["-1", "1"]]

    def test_text_hermite_grade(self, capsys):
        code, out = run_cli(capsys, ["kernel", "--family", "hermite-even", "--size", "1"])
        assert code == 0
        assert "grade=-1" in out
        assert "1" in out.splitlines()[1]

    def test_csv_legendre_even(self, capsys):
        code, out = run_cli(capsys, ["kernel", "--family", "legendre-even", "--size", "2",
                                     "--format", "csv"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["c1", "c2", "grade"]
        assert rows[0] == ["9/8", "-15/8", "0"]
        assert rows[1] == ["-15/8", "45/8", "0"]

    def test_exact_values_round_trip(self, capsys):
        _, out = run_cli(capsys, ["kernel", "--family", "legendre-odd", "--size", "4",
                                  "--format", "json"])
        for row in json.loads(out)["data"]:
            for cell in row:
                assert str(Fraction(cell)) == cell

    def test_unknown_family_is_usage_error(self, capsys):
        assert run_cli_expect_exit(
            capsys, ["kernel", "--family", "jacobi", "--size", "2"]
        ) == 2

    def test_size_zero_is_usage_error(self, capsys):
        assert run_cli_expect_exit(
            capsys, ["kernel", "--family", "laguerre", "--size", "0"]
        ) == 2


class TestCondCommand:
    def test_laguerre_final_row(self, capsys):
        code, out = run_cli(capsys, ["cond", "--family", "laguerre", "--max-size", "8",
                                     "--format", "csv"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[-1] == ["8", "96251817955797/2", "48125908977898.5"]

    def test_legendre_odd_exact_fraction(self, capsys):
        _, out = run_cli(capsys, ["cond", "--family", "legendre-odd", "--max-size", "2",
                                  "--format", "json"])
        data = json.loads(out)["data"]
        assert data[0]["kappa_exact"] == "1"
        assert data[1]["kappa_exact"] == "112/3"
        assert data[1]["kappa_decimal"].startswith("37.33333333333333")

    def test_hermite_even_size_one(self, capsys):
        code, out = run_cli(capsys, ["cond", "--family", "hermite-even", "--max-size", "1"])
        assert code == 0
        assert "1" in out


class TestVarianceCommand:
    def test_exp_neg_exact_columns(self, capsys):
        code, out = run_cli(capsys, ["variance", "--target", "exp-neg", "--max-size", "8",
                                     "--format", "csv"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["size", "taylor", "estimate", "taylor_exact", "estimate_exact"]
        assert rows[-1][3] == "580865/384"
        assert rows[-1][4] == "1/196608"

    def test_exp_neg_size_one_estimate(self, capsys):
        _, out = run_cli(capsys, ["variance", "--target", "exp-neg", "--max-size", "1",
                                  "--format", "json"])
        row = json.loads(out)["data"][0]
        assert row["estimate_exact"] == "1/12"

    def test_sin_pi_size_two_decimals(self, capsys):
        _, out = run_cli(capsys, ["variance", "--target", "sin-pi", "--max-size", "2",
                                  "--format", "csv"])
        _, rows = parse_csv(out)
        taylor = float(rows[-1][1])
        estimate = float(rows[-1][2])
        assert abs(taylor - 0.80166669) <= 1e-6 * 0.80166669
        assert abs(estimate - 0.00878023) <= 2e-6 * 0.00878023

    def test_trig_has_no_exact_columns(self, capsys):
        _, out = run_cli(capsys, ["variance", "--target", "cos-pi", "--max-size", "2",
                                  "--format", "csv"])
        header, _ = parse_csv(out)
        assert header == ["size", "taylor", "estimate"]


class TestProjectCommand:
    def test_exp_neg_size_eight(self, capsys):
        code, out = run_cli(capsys, ["project", "--target", "exp-neg", "--size", "8",
                                     "--format", "json"])
        assert code == 0
        data = json.loads(out)["data"]
        by_power = {row["power"]: row for row in data}
        assert by_power[0]["estimate"] == "255/256"
        assert by_power[7]["estimate"] == "-1/1290240"
        assert by_power[0]["taylor"] == "1"
        assert by_power[7]["taylor"] == "-1/5040"

    def test_exp_neg_size_one(self, capsys):
        _, out = run_cli(capsys, ["project", "--target", "exp-neg", "--size", "1",
                                  "--format", "json"])
        assert json.loads(out)["data"][0]["estimate"] == "1/2"

    def test_sin_pi_taylor_is_pi_x(self, capsys):
        _, out = run_cli(capsys, ["project", "--target", "sin-pi", "--size", "1",
                                  "--format", "json"])
        data = json.loads(out)["data"]
        assert data[0]["power"] == 1
        assert data[0]["taylor"] == "1*pi"

    def test_cos_pi_taylor_has_extra_power(self, capsys):
        _, out = run_cli(capsys, ["project", "--target", "cos-pi", "--size", "2",
                                  "--format", "csv"])
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["0", "2", "4"]
        assert rows[-1][1] == ""  # no estimate coefficient at x^4
        assert rows[-1][2] == "1/24*pi^4"


class TestPlotdataCommand:
    def test_exp_neg_endpoints(self, capsys):
        code, out = run_cli(capsys, ["plotdata", "--target", "exp-neg", "--size", "8",
                                     "--xmin", "0", "--xmax", "1", "--samples", "2"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "f", "estimate", "taylor"]
        assert rows[0][0] == "0"
        assert float(rows[0][1]) == 1.0
        assert float(rows[0][2]) == 0.99609375
        assert float(rows[0][3]) == 1.0
        # estimate at x=1 is the exact coefficient sum
        coeffs = [
            Fraction(255, 256), Fraction(-247, 256), Fraction(219, 512),
            Fraction(-163, 1536), Fraction(31, 2048), Fraction(-37, 30720),
            Fraction(1, 20480), Fraction(-1, 1290240),
        ]
        assert abs(float(rows[1][2]) - float(sum(coeffs))) < 1e-12

    def test_odd_target_vanishes_at_zero(self, capsys):
        _, out = run_cli(capsys, ["plotdata", "--target", "sin-pi", "--size", "3",
                                  "--xmin", "0", "--xmax", "1", "--samples", "3"])
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == 0.0
        assert float(rows[0][2]) == 0.0
        assert float(rows[0][3]) == 0.0

    def test_bad_range_is_usage_error(self, capsys):
        assert run_cli_expect_exit(
            capsys,
            ["plotdata", "--target", "exp-neg", "--size", "2",
             "--xmin", "1", "--xmax", "0"],
        ) == 2

    def test_too_few_samples_is_usage_error(self, capsys):
        assert run_cli_expect_exit(
            capsys,
            ["plotdata", "--target", "exp-neg", "--size", "2",
             "--xmin", "0", "--xmax", "1", "--samples", "1"],
        ) == 2

    def test_too_many_samples_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["plotdata", "--target", "exp-neg", "--size", "2",
                  "--xmin", "0", "--xmax", "1", "--samples", "65537"])
        assert excinfo.value.code == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert "65536" in err_lines[-1]
        assert not any("65536" in line for line in err_lines[:-1])

    @pytest.mark.parametrize("size, samples", ((100, 65536), (100, 164), (1, 16385), (2, 8193)))
    def test_size_times_samples_above_the_ceiling_is_refused_at_once(self, capsys, size, samples):
        argv = ["plotdata", "--target", "sin-pi", "--size", str(size), "--samples", str(samples)]
        start = time.process_time()
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert time.process_time() - start < 1
        captured = capsys.readouterr()
        assert excinfo.value.code == 2 and captured.out == ""
        assert captured.err.splitlines() == [
            f"error: size x samples must be at most {cli.MAX_PLOT_POINTS}, "
            f"got {size} x {samples} = {size * samples}"]

    def test_size_times_samples_at_the_ceiling_runs(self, capsys):
        samples = cli.MAX_PLOT_POINTS // 4
        assert 4 * samples == cli.MAX_PLOT_POINTS
        code, out = run_cli(capsys, ["plotdata", "--target", "exp-neg", "--size", "4",
                                     "--samples", str(samples)])
        assert code == 0
        assert len(parse_csv(out)[1]) == samples

    @pytest.mark.parametrize("end", ("1e100000000", "1e-100000000", "1000001", "-1000001",
                                     "1/1000000000000000000000000000000", "1/0", "abc"))
    @pytest.mark.parametrize("side", ("--xmin", "--xmax"))
    def test_window_end_out_of_bounds_is_refused_at_once(self, capsys, side, end):
        argv = ["plotdata", "--target", "exp-neg", "--size", "2", "--samples", "2",
                "--xmin=-1", "--xmax=1", f"{side}={end}"]
        start = time.process_time()
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert time.process_time() - start < 1
        assert excinfo.value.code == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert "1000000" in err_lines[-1] and "10**30" in err_lines[-1]

    @pytest.mark.parametrize("xmin, xmax, xs", (
        ("-1000000", "1000000", ["-1000000", "1000000"]),
        ("0e100000000", "1e-29", ["0", "1e-29"]),
        ("-1/999999999999999999999999999999", "1", ["-1e-30", "1"]),
    ))
    def test_window_ends_within_bounds_run(self, capsys, xmin, xmax, xs):
        code, out = run_cli(capsys, ["plotdata", "--target", "exp-neg", "--size", "2",
                                     "--samples", "2", f"--xmin={xmin}", f"--xmax={xmax}"])
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[0] for row in rows] == xs


class TestVerifyCommand:
    def test_clean_run_exits_zero(self, capsys):
        code, out = run_cli(capsys, ["verify", "--max-size", "3"])
        assert code == 0
        assert "FAIL" not in out
        assert "0 failed" in out

    def test_max_size_one_passes(self, capsys):
        code, _ = run_cli(capsys, ["verify", "--max-size", "1"])
        assert code == 0

    def test_corruption_injection_fails(self, capsys):
        code, out = run_cli(capsys, ["verify", "--max-size", "2", "--inject-corruption"])
        assert code == 1
        assert "FAIL" in out

    def test_json_report(self, capsys):
        code, out = run_cli(capsys, ["verify", "--max-size", "2", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["failed"] == 0
        assert all(entry["passed"] for entry in payload["data"])

    def test_failure_detail_on_stderr_in_every_format_and_in_json_rows(self, capsys):
        argv = ["verify", "--max-size", "2", "--inject-corruption"]
        outputs = {}
        for fmt in ("text", "csv", "json"):
            assert main(argv + ["--format", fmt]) == 1
            outputs[fmt] = capsys.readouterr()
        err = outputs["text"].err.splitlines()
        assert len(err) == 5 * 2  # oracle-equivalence, every family and size
        assert err[0] == ("FAIL oracle-equivalence family=laguerre size=1: "
                          "B vs Bareiss inverse (1, 1): want 1, got 8/7")
        assert all(line.startswith("FAIL oracle-equivalence family=") for line in err)
        assert all(": B vs Bareiss inverse (1, 1): want " in line and ", got " in line
                   for line in err)
        assert outputs["csv"].err == outputs["json"].err == outputs["text"].err
        # the text report itself carries no detail
        assert "want" not in outputs["text"].out
        rows = json.loads(outputs["json"].out)["data"]
        assert [r["detail"] for r in rows if not r["passed"]] == [
            line.split(": ", 1)[1] for line in err
        ]
        assert all("detail" not in r for r in rows if r["passed"])

    def test_passing_run_writes_nothing_to_stderr(self, capsys):
        for fmt in ("text", "csv", "json"):
            assert main(["verify", "--max-size", "2", "--format", fmt]) == 0
            assert capsys.readouterr().err == ""


class TestOutputBehaviour:
    def test_deterministic_output(self, capsys):
        argv = ["variance", "--target", "cos-pi", "--max-size", "4", "--format", "json"]
        _, first = run_cli(capsys, argv)
        _, second = run_cli(capsys, argv)
        assert first == second

    @pytest.mark.parametrize("argv", [
        ["kernel", "--family", "laguerre", "--size", "2"],
        ["cond", "--family", "laguerre", "--max-size", "2"],
        ["variance", "--target", "exp-neg", "--max-size", "2"],
        ["project", "--target", "exp-neg", "--size", "2"],
        ["plotdata", "--target", "exp-neg", "--size", "2", "--samples", "3"],
        ["verify", "--max-size", "1"],
    ], ids=lambda argv: argv[0])
    def test_precision_bits_only_where_decimals_are_evaluated(self, capsys, argv):
        """No subcommand takes ``--precision-bits``: every certified decimal
        is the same from any start precision, so none is an option.  A value
        below the old minimum is refused the same way, with exit 2."""
        for bits in ("256", "64"):
            with pytest.raises(SystemExit) as excinfo:
                main(argv + ["--precision-bits", bits])
            assert excinfo.value.code == 2
            assert f"unrecognized arguments: --precision-bits {bits}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, expected", [
        (["kernel", "--family", "laguerre", "--size", "x"],
         "argument --size: must be a positive integer, got x"),
        (["cond", "--family", "laguerre", "--max-size", "x"],
         "argument --max-size: must be a positive integer, got x"),
        (["plotdata", "--target", "exp-neg", "--size", "2", "--samples", "x"],
         "argument --samples: samples must be between 2 and 65536, got x"),
    ], ids=["size", "max-size", "samples"])
    def test_non_integer_option_names_the_expected_value(self, capsys, argv, expected):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        last = capsys.readouterr().err.splitlines()[-1]
        assert excinfo.value.code == 2
        assert last.endswith(expected)
        assert "invalid" not in last and "_" not in last.split(": ", 1)[1]

    @pytest.mark.parametrize("exc, line", [
        (RuntimeError("boom"), "internal error: RuntimeError: boom"),
        (AssertionError("grades drifted"), "internal error: AssertionError: grades drifted"),
        (RuntimeError("two\nlines"), "internal error: RuntimeError: two lines"),
    ], ids=["runtime", "assertion", "multiline"])
    def test_internal_error_exits_3_with_one_line(self, monkeypatch, capsys, exc, line):
        def broken(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_kernel", broken)
        with pytest.raises(SystemExit) as excinfo:
            main(["kernel", "--family", "laguerre", "--size", "2"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 3
        assert captured.out == ""
        assert captured.err == line + "\n"

    @pytest.mark.parametrize("exc, line", [
        (ValueError("grades do not cancel"), "internal error: ValueError: grades do not cancel"),
        (ZeroDivisionError("division by zero"),
         "internal error: ZeroDivisionError: division by zero"),
    ], ids=["value", "zero-division"])
    def test_construction_fault_exits_3_not_2(self, monkeypatch, capsys, exc, line):
        """A ValueError or ZeroDivisionError from the construction is a fault
        of the program, not a usage error: exit 3 with one stderr line."""
        def broken(*args):
            raise exc

        monkeypatch.setattr(cli, "build_kernel", broken)
        with pytest.raises(SystemExit) as excinfo:
            main(["kernel", "--family", "laguerre", "--size", "2"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 3
        assert captured.out == ""
        assert captured.err == line + "\n"

    def test_out_unwritable_is_io_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cond", "--family", "laguerre", "--max-size", "3",
                  "--out", "/nonexistent/x"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write /nonexistent/x: ")
        assert captured.err.count("\n") == 1

    def test_out_writes_file(self, tmp_path, capsys):
        path = tmp_path / "kernel.json"
        code, out = run_cli(capsys, ["kernel", "--family", "laguerre", "--size", "2",
                                     "--format", "json", "--out", str(path)])
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["data"] == [["2", "-1"], ["-1", "1"]]

    def test_out_leaves_no_temp_file(self, tmp_path, capsys):
        path = tmp_path / "cond.csv"
        path.write_text("old contents\n")
        code, out = run_cli(capsys, ["cond", "--family", "laguerre", "--max-size", "2",
                                     "--format", "csv", "--out", str(path)])
        assert code == 0 and out == ""
        assert path.read_text().startswith("size,kappa_exact,kappa_decimal\n")
        assert [p.name for p in tmp_path.iterdir()] == ["cond.csv"]

    def test_out_failed_rename_leaves_no_file(self, tmp_path, capsys):
        """Writing onto a directory fails: exit 2, one error line, and
        nothing left beside the target."""
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(SystemExit) as excinfo:
            main(["cond", "--family", "laguerre", "--max-size", "2", "--out", str(target)])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: ")
        assert captured.err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("existing", [True, False], ids=["target", "dangling"])
    def test_out_through_a_symlink_writes_its_target(self, tmp_path, capsys, existing):
        """The link stays a link; the file it names gets the whole output,
        and no temp file is left in the directory."""
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        if existing:
            target.write_text("old contents\n")
        link.symlink_to(target)
        argv = ["verify", "--max-size", "2", "--format", "csv"]
        want = run_cli(capsys, argv)[1]
        assert run_cli(capsys, argv + ["--out", str(link)]) == (0, "")
        assert link.is_symlink() and link.resolve() == target
        assert target.read_text() == want
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]

    def _fifo_with_reader(self, tmp_path, read):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(read(fifo)), daemon=True)
        reader.start()
        return fifo, reader, received

    def test_out_onto_a_fifo_writes_in_place(self, tmp_path, capsys):
        """A FIFO is written through, not replaced by a regular file."""
        argv = ["verify", "--max-size", "2", "--format", "csv"]
        want = run_cli(capsys, argv)[1]
        fifo, reader, received = self._fifo_with_reader(tmp_path, lambda p: p.read_text())
        assert run_cli(capsys, argv + ["--out", str(fifo)]) == (0, "")
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert received == [want]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert list(tmp_path.iterdir()) == [fifo]

    def test_out_write_error_in_place_is_io_error(self, tmp_path, capsys):
        """A reader that hangs up unread: the output (larger than a pipe's
        64 KiB buffer) cannot all be written, so exit 2 with one error line."""
        fifo, reader, _ = self._fifo_with_reader(tmp_path, lambda p: p.open("rb").close())
        with pytest.raises(SystemExit) as excinfo:
            main(["kernel", "--family", "laguerre", "--size", "64", "--format", "csv",
                  "--out", str(fifo)])
        reader.join(timeout=60)
        assert not reader.is_alive()
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.err == f"error: cannot write {fifo}: Broken pipe\n"
        assert stat.S_ISFIFO(fifo.stat().st_mode)


PLOT = ["plotdata", "--target", "exp-neg", "--size", "2"]
PARSER_ARGV = [
    # root help and everything that is not a subcommand
    [], ["--help"], ["-h"], ["-h", "kernel"], ["jacobi"], ["KERNEL"], ["--"], ["--", "kernel"],
    ["-x"], ["--version"],
] + [[name, "--help"] for name in ("kernel", "cond", "variance", "project", "plotdata", "verify")] + [
    ["kernel", "-h", "--size", "x"],
    ["kernel"],
    ["kernel", "--family", "laguerre"],
    ["kernel", "--family", "jacobi", "--size", "2"],
    ["kernel", "--family", "laguerre", "--size", "0"],
    ["kernel", "--family", "laguerre", "--size", "x"],
    ["kernel", "--fam", "laguerre", "--size", "2"],
    ["kernel", "--family=laguerre", "--size=2"],
    ["kernel", "--family", "laguerre", "--size", "2", "--form=json"],
    ["kernel", "--family", "laguerre", "--size", "2", "--x=y"],
    ["kernel", "--", "--size", "2"],
    ["kernel", "--family", "laguerre", "--size", "2", "--", "x"],
    ["kernel", "--family", "hermite-odd", "--size", "3"],
    ["cond", "--family=laguerre", "--max-size=3", "--format=json"],
    ["cond", "--family", "laguerre", "--max-size", "3", "extra"],
    ["cond", "--family", "laguerre", "--max-size", "3", "--out", "/nonexistent/x"],
    ["cond", "--family", "laguerre", "--max-size", "3", "--precision-bits", "256"],
    ["kernel", "--family", "laguerre", "--size", "2", "--precision-bits", "256"],
    ["project", "--target", "exp-neg", "--size", "2", "--precision-bits", "256"],
    ["project", "--target", "cos-pi", "--size", "3"],
    ["variance", "--target", "exp-neg", "--max-size", "2", "--precision-bits", "64"],
    ["variance", "--target", "exp-neg", "--max-size", "2", "--precision-bits", "x"],
    ["variance", "--target", "cosh", "--max-size", "2"],
    ["variance", "--target", "sin-pi", "--max-size", "3", "--format", "csv"],
    ["verify", "--max-size", "1", "--precision-bits", "256"],
    ["verify", "--max-size", "2", "--inject"],
    ["verify", "--max-size", "2", "--out"],
    ["verify", "--max-size", "2", "--format", "csv"],
    PLOT + ["--format", "json"],
    PLOT + ["--samples", "1"], PLOT + ["--samples", "65537"], PLOT + ["--samples", "x"],
    PLOT + ["--xmin=1e100000000"], PLOT + ["--xmax=abc"], PLOT + ["--xmin=1/0"],
    PLOT + ["--xmax=-1000001"], PLOT + ["--xmin", "1", "--xmax", "0"],
    PLOT + ["--xmin", "1", "--xmax", "1"],
    PLOT + ["--xmin=-3/4", "--xmax=3/4", "--samples", "5"],
    # the edges of what the option-table reader accepts
    ["kernel", "--family", "laguerre", "--size", "2", "--size", "3"],
    PLOT + ["--xmin", "-1", "--xmax", "1"],
    ["verify", "--max-size", "2", "--inject-corruption=1"],
    ["cond", "--family", "laguerre", "--max-size", "3", "--out="],
    ["kernel", "--family=", "--size", "2"],
]
# argparse drops a "--" value after "=", past its type and choices
DASH_DASH_VALUES = [
    ["cond", "--family=--", "--max-size", "2"],
    ["cond", "--family", "laguerre", "--max-size=--"],
    ["variance", "--target=--", "--max-size", "2"],
    ["cond", "--family", "laguerre", "--max-size", "2", "--format=--"],
]
PARSER_ARGV += DASH_DASH_VALUES


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, *capsys.readouterr()


@pytest.mark.parametrize("argv", PARSER_ARGV, ids=lambda argv: " ".join(argv) or "no-args")
def test_parse_is_the_full_parsers(monkeypatch, capsys, argv):
    """``main`` reads a well-formed argv from the option table and hands the
    rest to argparse, yet every argv gives the stdout, stderr and exit code
    of ``build_parser().parse_args`` followed by the command: help, every
    usage error, every unusual spelling and every fallback."""
    monkeypatch.setenv("COLUMNS", "80")
    got = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
    assert got == _outcome(capsys, argv)


@pytest.mark.parametrize("argv", DASH_DASH_VALUES, ids=" ".join)
def test_a_dash_dash_value_is_a_usage_error(capsys, argv):
    """``--flag=--`` is refused with exit 2 and argparse's usage line, not
    stored as an empty list that fails later with exit 3."""
    code, out, err = _outcome(capsys, argv)
    flag = next(a for a in argv if a.endswith("=--"))[:-3]
    assert (code, out) == (2, "")
    assert err.startswith("usage: gramkernel ")
    assert err.splitlines()[-1].endswith(f"error: argument {flag}: expected one argument")


@pytest.mark.parametrize("argv", [
    ["cond", "--family", "laguerre", "--max-size", "3"],
    ["verify", "--max-size", "2"],
], ids=lambda argv: argv[0])
def test_a_valid_invocation_builds_no_parser(monkeypatch, capsys, argv):
    """A well-formed invocation is read from the option table: argparse's
    first use costs more than a small ``cond`` job's work."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(argv) == 0
    capsys.readouterr()
    assert built == []


def test_a_valid_invocation_imports_no_argparse():
    """In a fresh process, a valid invocation leaves argparse, and the
    gettext and locale modules its first use pulls in, unimported."""
    src = Path(cli.__file__).resolve().parent.parent
    code = ("import sys\n"
            "from gramkernel.cli import main\n"
            "assert main(['cond', '--family', 'laguerre', '--max-size', '3']) == 0\n"
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


ALL_SUBCOMMANDS = [
    ["kernel", "--family", "hermite-odd", "--size", "3"],
    ["cond", "--family", "legendre-even", "--max-size", "4"],
    ["variance", "--target", "sin-pi", "--max-size", "4"],
    ["project", "--target", "cos-pi", "--size", "3"],
    ["plotdata", "--target", "cos-pi", "--size", "4", "--xmin=-1/2", "--xmax=1/2",
     "--samples", "9"],
    ["plotdata", "--target", "exp-neg", "--size", "3", "--samples", "5"],
    ["verify", "--max-size", "2"],
]


def test_no_subcommand_imports_mpmath():
    """In one fresh process, ``import gramkernel`` alone imports no
    submodule; then every subcommand runs in-process through ``main``,
    cos-pi ``plotdata`` over its exact zeros at +-1/2 included, and leaves
    ``mpmath`` unimported; the float helpers the tests keep still import it
    when called."""
    src = Path(cli.__file__).resolve().parent.parent
    code = ("import contextlib, io, sys\n"
            "import gramkernel\n"
            "print(sorted(m for m in sys.modules if m.startswith('gramkernel')))\n"
            "from gramkernel.cli import main\n"
            f"runs = {ALL_SUBCOMMANDS!r}\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert [main(argv) for argv in runs] == [0] * len(runs)\n"
            "print('mpmath' in sys.modules)\n"
            "from gramkernel.exactscalar import PiLaurent, eval_pilaurent\n"
            "print(eval_pilaurent(PiLaurent({1: 1}), 128) > 3, 'mpmath' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines() == ["['gramkernel']", "False", "True True"]


def test_the_cli_imports_no_dataclasses_inspect_typing_or_mpmath():
    """In a fresh ``python -S`` process, so that no ``site`` hook imports
    them first, the CLI's import and a ``cond`` run leave the four modules
    unimported: ``dataclasses`` and ``typing`` cost every process several
    ms of set-up, and ``mpmath`` is a test dependency only."""
    src = Path(cli.__file__).resolve().parent.parent
    code = ("import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "from gramkernel.cli import main\n"
            "assert main(['cond', '--family', 'laguerre', '--max-size', '2']) == 0\n"
            "print(sorted({'dataclasses', 'inspect', 'typing', 'mpmath'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          check=True)
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv", ALL_SUBCOMMANDS, ids=lambda argv: "-".join(argv[:3:2]))
def test_every_subcommand_runs_with_mpmath_blocked(monkeypatch, capsys, argv):
    """``mpmath`` is a test dependency only: with its import refused, every
    subcommand still exits 0, and prints what it prints with it."""
    want = run_cli(capsys, argv)
    monkeypatch.setitem(sys.modules, "mpmath", None)
    assert run_cli(capsys, argv) == want


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@needs_dev_full
@pytest.mark.parametrize("buffering", [-1, 1], ids=["buffered", "line-buffered"])
def test_a_stdout_write_error_exits_2_with_one_line(capsys, buffering):
    """A full device on stdout is an I/O error, whether the write or the
    flush meets it; stdout's descriptor then points at the null device, so
    the interpreter's own flush at exit cannot fail again."""
    full = open("/dev/full", "w", buffering=buffering, encoding="utf-8")
    with contextlib.redirect_stdout(full), pytest.raises(SystemExit) as excinfo:
        main(["kernel", "--family", "laguerre", "--size", "3"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err == "error: cannot write stdout: No space left on device\n"
    assert os.path.samestat(os.fstat(full.fileno()), os.stat(os.devnull))
    full.close()  # what the failed flush left in the buffer goes to the null device


@needs_dev_full
def test_a_buffered_stdout_write_error_exits_2_in_a_process():
    """The default, buffered stdout in a console run: exit 2 and one error
    line, not Python's exit 120 from its final flush."""
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "gramkernel.cli", "kernel", "--family",
                               "laguerre", "--size", "3"], env=env, stdout=full,
                              stderr=subprocess.PIPE, text=True)
    assert (done.returncode, done.stderr) == (
        2, "error: cannot write stdout: No space left on device\n")


def test_a_closed_stdout_exits_2_with_one_line(monkeypatch, capsys):
    """Python sets ``sys.stdout`` to None when descriptor 1 is closed at
    start-up (``>&-``): an I/O error on stdout, not an internal error."""
    with monkeypatch.context() as patch, pytest.raises(SystemExit) as excinfo:
        patch.setattr(sys, "stdout", None)
        main(["kernel", "--family", "laguerre", "--size", "3"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err == "error: cannot write stdout: Bad file descriptor\n"


def _own_flags(name):
    return [flag for flag, _ in cli._SUBCOMMANDS[name][2]]


ALL_FLAGS = sorted({flag for name in cli._SUBCOMMANDS for flag in _own_flags(name)})
GOOD_VALUES = {
    "--family": sorted(FAMILIES), "--target": sorted(TARGETS),
    "--size": ["1", "3"], "--max-size": ["2", "3"], "--format": ["text", "csv", "json"],
    "--out": ["x.csv", "-"],
    "--xmin": ["1/2", "3", "-1", "2e-1"], "--xmax": ["4", "7/2", "-1/4"],
    "--samples": ["5", "512"], "--inject-corruption": ["1"],
}
ODD_VALUES = ["", "-1", "-1/2", "--", "-h", "--size", "x", "0", "1e100000000", "jacobi", "a=b"]
STRAYS = ["-h", "--help", "--", "extra", "-x", "", "--x=y", "-"]


@st.composite
def argvs(draw):
    """A subcommand's argv from its own flags, their abbreviations and other
    commands' flags, in ``=`` and spaced forms, repeated or bare, with values
    good and odd, strays among them; most start from every required flag."""
    name = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    own = _own_flags(name)
    flags = st.sampled_from(own * 8 + ALL_FLAGS + [f[:n] for f in own for n in (3, 5)])
    argv = [name]
    if draw(st.integers(0, 3)):
        for flag, spec in cli._SUBCOMMANDS[name][2]:
            if spec.get("required"):
                argv += [flag, draw(st.sampled_from(GOOD_VALUES[flag]))]
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(flags)
        value = draw(st.sampled_from(GOOD_VALUES.get(flag, []) * 6 + ODD_VALUES))
        argv += draw(st.sampled_from([[flag, value]] * 3 + [[f"{flag}={value}"]] * 3
                                     + [[flag], [draw(st.sampled_from(STRAYS))]]))
    return argv


@functools.lru_cache(maxsize=None)
def _full_parser():
    return cli.build_parser()


def _full_parse(argv):
    """``vars`` of the full parser's namespace without ``command``, or None
    where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            namespace = vars(_full_parser().parse_args(argv))
        except SystemExit:
            return None
    del namespace["command"]
    return namespace


@given(argvs())
@example(["cond", "--family", "laguerre", "--max-size", "2", "--out=--"])
@settings(max_examples=2000, deadline=None)
def test_read_is_the_full_parsers_or_none(argv):
    """The option-table reader accepts an argv only where argparse accepts
    it, and then gives argparse's namespace; no command runs."""
    read = cli._read(argv)
    if read is not None:
        assert vars(read) == _full_parse(argv)


@contextlib.contextmanager
def _working_directory(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


@given(argvs())
@example(["plotdata", "--target", "sin-pi", "--size", "2", "--xmax=-1/4"])
@example(["cond", "--family", "laguerre", "--max-size", "2", "--out=-1/2"])
@example(["verify", "--max-size", "2", "--inject-corruption"])
@settings(max_examples=500, deadline=None)
def test_any_argv_exits_0_1_or_2_with_one_error_line(argv):
    """``main`` in-process on any argv of the six subcommands exits 0, 1 or
    2 and prints no traceback.  Exit 0 writes nothing to stderr, exit 1 only
    ``verify``'s FAIL lines, and exit 2 one error line after argparse's
    usage lines, if any.  ``--out`` files go to a temporary directory."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, _working_directory(tmp), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    if code == 0:
        assert lines == []
    elif code == 1:
        assert argv[0] == "verify" and lines
        assert all(line.startswith("FAIL ") for line in lines)
    else:
        *usage, error = lines
        assert error.startswith(("error: ", "gramkernel: error: ", f"gramkernel {argv[0]}: error: "))
        assert not usage or usage[0].startswith("usage: gramkernel ")
        assert all(line.startswith(" ") for line in usage[1:])


def _size_argvs(name, flag, value):
    """``name``'s argv with every other required flag given, and ``flag``
    set to ``value`` in the spaced and the ``=`` spelling."""
    required = [token for other, spec in cli._SUBCOMMANDS[name][2]
                if spec.get("required") and other != flag
                for token in (other, GOOD_VALUES[other][0])]
    return [[name, *required, flag, value], [name, *required, f"{flag}={value}"]]


SIZE_OPTIONS = [(name, flag) for name in cli._SUBCOMMANDS for flag in _own_flags(name)
                if flag in ("--size", "--max-size")]


@pytest.mark.parametrize("name, flag", SIZE_OPTIONS, ids=[name for name, _ in SIZE_OPTIONS])
def test_a_size_above_its_ceiling_exits_2_naming_the_ceiling(capsys, name, flag):
    """Each subcommand's size has one ceiling, read alike by the option
    table and argparse; the ceiling itself passes the option's type, and no
    job runs at it here."""
    ceiling = cli.MAX_SIZES[name]
    size = dict(cli._SUBCOMMANDS[name][2])[flag]["type"]
    assert size(str(ceiling)) == ceiling
    for argv in _size_argvs(name, flag, str(ceiling + 1)):
        assert cli._read(argv) is None
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        captured = capsys.readouterr()
        assert excinfo.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"gramkernel {name}: error: argument {flag}: "
            f"must be at most {ceiling}, got {ceiling + 1}")


@pytest.mark.parametrize("name, flag", SIZE_OPTIONS, ids=[name for name, _ in SIZE_OPTIONS])
def test_help_names_the_size_ceiling(capsys, name, flag):
    """Each subcommand's ``--help`` gives its own size range."""
    with pytest.raises(SystemExit) as excinfo:
        main([name, "--help"])
    text = " ".join(capsys.readouterr().out.split())  # as argparse wraps it
    assert excinfo.value.code == 0
    metavar = flag[2:].upper().replace("-", "_")
    assert f"{flag} {metavar} an integer from 1 to {cli.MAX_SIZES[name]} " in f"{text} "
    assert text.count("an integer from 1 to") == 1


def test_size_ceilings_stay_above_the_sizes_in_use():
    """Well above the largest size the benchmark (kernel 40, cond 32), CI
    (verify 16) and the tests (30) run."""
    in_use = {"kernel": 40, "cond": 32, "variance": 40, "project": 30, "plotdata": 30,
              "verify": 16}
    assert sorted(cli.MAX_SIZES) == sorted(cli._SUBCOMMANDS)
    assert all(cli.MAX_SIZES[name] >= 1.5 * size for name, size in in_use.items())


def test_plot_points_ceiling_admits_the_plots_in_use():
    """At or above the largest plotdata the benchmark runs (size 16 at 512
    samples), the snapshots (size 30 at 65) and the default 512 samples to
    size 32."""
    assert cli.MAX_PLOT_POINTS >= max(16 * 512, 30 * 65, 32 * 512)


SNAPSHOT_DIR = Path(__file__).parent / "snapshots"
SNAPSHOT_ARGV = {
    "kernel_hermite-odd_3": ["kernel", "--family", "hermite-odd", "--size", "3"],
    "kernel_hermite-even_12": ["kernel", "--family", "hermite-even", "--size", "12"],
    "kernel_laguerre_12": ["kernel", "--family", "laguerre", "--size", "12"],
    "kernel_legendre-odd_12": ["kernel", "--family", "legendre-odd", "--size", "12"],
    "cond_legendre-odd_4": ["cond", "--family", "legendre-odd", "--max-size", "4"],
    "variance_exp-neg_4": ["variance", "--target", "exp-neg", "--max-size", "4"],
    "variance_sin-pi_3": ["variance", "--target", "sin-pi", "--max-size", "3"],
    "project_cos-pi_2": ["project", "--target", "cos-pi", "--size", "2"],
    "project_exp-neg_12": ["project", "--target", "exp-neg", "--size", "12"],
    "project_sin-pi_20": ["project", "--target", "sin-pi", "--size", "20"],
    "project_cos-pi_15": ["project", "--target", "cos-pi", "--size", "15"],
    "verify_2": ["verify", "--max-size", "2"],
    "verify_12": ["verify", "--max-size", "12"],
}
SNAPSHOTS = [
    (f"{name}.{fmt}", argv + ["--format", fmt])
    for name, argv in SNAPSHOT_ARGV.items()
    for fmt in ("text", "csv", "json")
] + [
    # benchmark sizes
    (f"{name}.{fmt}", argv + ["--format", fmt])
    for name, argv in {
        "cond_laguerre_32": ["cond", "--family", "laguerre", "--max-size", "32"],
        "cond_hermite-even_26": ["cond", "--family", "hermite-even", "--max-size", "26"],
        "cond_legendre-even_24": ["cond", "--family", "legendre-even", "--max-size", "24"],
        "cond_legendre-odd_28": ["cond", "--family", "legendre-odd", "--max-size", "28"],
        "cond_hermite-odd_24": ["cond", "--family", "hermite-odd", "--max-size", "24"],
        "variance_exp-neg_16": ["variance", "--target", "exp-neg", "--max-size", "16"],
        "variance_sin-pi_10": ["variance", "--target", "sin-pi", "--max-size", "10"],
        "variance_cos-pi_10": ["variance", "--target", "cos-pi", "--max-size", "10"],
    }.items()
    for fmt in ("text", "json")
] + [
    (f"{name}.csv", argv + ["--format", "csv"])
    for name, argv in {
        "cond_laguerre_32": ["cond", "--family", "laguerre", "--max-size", "32"],
        "variance_exp-neg_16": ["variance", "--target", "exp-neg", "--max-size", "16"],
        "variance_sin-pi_10": ["variance", "--target", "sin-pi", "--max-size", "10"],
        # past size 10 only certified rendering prints these digits
        "variance_sin-pi_16": ["variance", "--target", "sin-pi", "--max-size", "16"],
        "variance_cos-pi_16": ["variance", "--target", "cos-pi", "--max-size", "16"],
    }.items()
] + [
    ("plotdata_exp-neg_3.csv", ["plotdata", "--target", "exp-neg", "--size", "3",
                                "--xmin", "0", "--xmax", "2", "--samples", "5"]),
    ("plotdata_sin-pi_2.csv", ["plotdata", "--target", "sin-pi", "--size", "2",
                               "--xmin=-3/4", "--xmax=3/4", "--samples", "7"]),
] + [
    # plotdata at benchmark sizes; the cos-pi window stays off the zeros at
    # +-1/2, where f prints rounding noise (cos(pi x) with a rounded pi)
    (f"plotdata_{name}.csv", ["plotdata", "--target", target, "--size", size,
                              f"--xmin={xmin}", f"--xmax={xmax}", "--samples", "129"])
    for name, target, size, xmin, xmax in (
        ("exp-neg_16", "exp-neg", "16", "3/4", "899/100"),
        ("sin-pi_8", "sin-pi", "8", "-41/50", "91/100"),
        ("cos-pi_12", "cos-pi", "12", "-2/5", "2/5"),
    )
] + [
    # 36 estimates that are exact 17-digit ties, each printed half away from zero
    ("plotdata_exp-neg_3_257.csv", ["plotdata", "--target", "exp-neg", "--size", "3",
                                    "--xmin=3/4", "--xmax=899/100", "--samples", "257"]),
    # certified pi-Laurent columns where a float at 256 bits printed wrong digits
    ("plotdata_sin-pi_30.csv", ["plotdata", "--target", "sin-pi", "--size", "30",
                                "--xmin=-1", "--xmax=1", "--samples", "65"]),
]


@pytest.mark.parametrize("filename, argv", SNAPSHOTS, ids=[f for f, _ in SNAPSHOTS])
def test_output_matches_snapshot_byte_for_byte(capsys, filename, argv):
    """Every layout, pinned: tests/snapshots/<case>.<format> holds the exact
    stdout, so any change to a text, CSV or JSON layout shows here."""
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == _snapshot(filename)


def test_item_12_cos_pi_zero_still_prints_the_float_noise(capsys):
    """At an exact zero of cos(pi x) f prints what a 256-bit float
    evaluation of cos(pi x) returns, rounding noise: the known fault of
    ROADMAP item 12, pinned so its fix changes this line knowingly."""
    assert main(["plotdata", "--target", "cos-pi", "--size", "4", "--xmin", "0", "--xmax", "1",
                 "--samples", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[2].split(",")[:2] == ["0.5", "5.4845872048967604e-78"]


def test_failing_verify_matches_snapshot(capsys):
    """The negative control at a benchmark size, pinned: the JSON report,
    every ``FAIL`` line on stderr and exit code 1."""
    code = main(["verify", "--max-size", "9", "--inject-corruption", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == _snapshot("verify_9_corrupt.json")
    assert captured.err == _snapshot("verify_9_corrupt.stderr")


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_failing_verify_matches_snapshot_in_text_and_csv(capsys, fmt):
    """The same negative control in the other two layouts, with the same
    stderr and exit code."""
    code = main(["verify", "--max-size", "9", "--inject-corruption", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == _snapshot(f"verify_9_corrupt.{fmt}")
    assert captured.err == _snapshot("verify_9_corrupt.stderr")


def test_renders_without_nstr(monkeypatch, capsys):
    """Every decimal comes from the package's own renderer: with mpmath's
    ``nstr`` (and the digit routine behind it) raising, a variance table and
    a plotdata sample still print their snapshots."""
    import mpmath

    def refuse(*args, **kwargs):
        raise AssertionError("nstr called")

    monkeypatch.setattr(mpmath, "nstr", refuse)
    monkeypatch.setattr(mpmath.ctx_mp, "to_str", refuse)
    for filename in ("variance_sin-pi_3.text", "plotdata_sin-pi_2.csv"):
        assert main(dict(SNAPSHOTS)[filename]) == 0
        assert capsys.readouterr() == (_snapshot(filename), "")


@pytest.mark.parametrize("argv", [
    ["cond", "--family", "hermite-odd", "--max-size", "6"],
    ["variance", "--target", "exp-neg", "--max-size", "5"],
    ["variance", "--target", "sin-pi", "--max-size", "5"],
    ["project", "--target", "cos-pi", "--size", "4"],
], ids=lambda argv: "_".join(argv[:3:2]))
def test_json_data_are_the_csv_rows_keyed_by_its_header(capsys, argv):
    """One column list per table: each JSON ``data`` object holds the CSV
    row's cells under the CSV header's names, in its order (values compared
    as strings, null as an empty cell)."""
    assert main(argv + ["--format", "csv"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert main(argv + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)["data"]
    assert [list(obj) for obj in data] == [header] * len(rows)
    assert [["" if v is None else str(v) for v in obj.values()] for obj in data] == rows


def _snapshot(filename):
    return (SNAPSHOT_DIR / filename).read_bytes().decode("utf-8")
