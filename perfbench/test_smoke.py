"""Smoke runs of every workload at the smallest sizes, and checks that the
output checks reject wrong output.  Part of the tier-1 suite, so the
benchmark cannot rot unnoticed; full runs stay out of it."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from decimal import Decimal

import pytest

import jobs
import run
import spans
import verdict

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

END_TO_END = {"setup_s", "job_p50_s", "throughput_jobs_per_s", "peak_rss_mb"}


@pytest.mark.parametrize("workload,trace", [("tables", False), ("point", True), ("verify", True)])
def test_workload_smoke(workload, trace):
    result = run.run(workload, seed=3, seconds=0, trace=trace, smoke=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(jobs.SMOKE[workload]) * (2 if trace else 1)
    metrics = result["metrics"]
    if trace:
        assert {f"{layer}.self_s" for layer in spans.LAYERS} <= set(metrics)
        assert metrics["cli.self_s"]["value"] > 0
        assert metrics["kernelbuild.max_bits"]["value"] > 0
    else:
        assert set(metrics) == END_TO_END
        assert all(m["value"] > 0 for m in metrics.values())


def test_rounds_depend_only_on_seed():
    a, b = jobs.rounds("point", 5), jobs.rounds("point", 5)
    assert [next(a) for _ in range(3)] == [next(b) for _ in range(3)]
    assert sorted(map(tuple, next(jobs.rounds("point", 6)))) != sorted(map(tuple, next(a)))


def test_install_rejects_a_missing_layer_function(monkeypatch):
    monkeypatch.setitem(spans.LAYERS, "families", ("families", ("no_such_function",)))
    with pytest.raises(LookupError):
        spans.install()


def _cli(argv):
    from gramkernel import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_checks_pass_right_output_and_reject_wrong_output():
    argv = ["kernel", "--family", "legendre-odd", "--size", "4", "--format", "json"]
    code, text = _cli(argv)
    assert verdict.check(argv, code, text) is None
    doc = json.loads(text)
    doc["data"][1][2] = "1/3"
    assert verdict.check(argv, code, json.dumps(doc)) == "G * B != I"

    argv = ["cond", "--family", "hermite-even", "--max-size", "4", "--format", "json"]
    code, text = _cli(argv)
    assert verdict.check(argv, code, text) is None
    doc = json.loads(text)
    doc["data"][3]["kappa_decimal"] = str(2 * Decimal(doc["data"][3]["kappa_decimal"]))
    assert "not correctly rounded" in verdict.check(argv, code, json.dumps(doc))

    argv = ["variance", "--target", "sin-pi", "--max-size", "4", "--format", "json"]
    code, text = _cli(argv)
    assert verdict.check(argv, code, text) is None
    assert "variance" in verdict.check(argv, code, text.replace('"estimate": "', '"estimate": "-'))

    # The known plotdata fault: cos(pi x) at x = -1/2 prints rounding noise.
    argv = ["plotdata", "--target", "cos-pi", "--size", "3", "--samples", "3",
            "--xmin=-1/2", "--xmax=1/2"]
    code, text = _cli(argv)
    assert verdict.check(argv, code, text).startswith("x=-1/2: f ")

    argv = ["verify", "--max-size", "2", "--inject-corruption", "--format", "json"]
    code, text = _cli(argv)
    assert verdict.check(argv, code, text) is None
    assert verdict.check(argv, 0, text) == "exit code 0, expected 1"

