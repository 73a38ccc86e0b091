"""Benchmark of the gramkernel CLI: one workload, one seed, one result line.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from the repository root (the program is imported from ``src/``).  One
closed-loop client runs the workload's jobs one at a time, in whole rounds,
until ``--seconds`` have passed.  Each job is one ``gramkernel`` invocation
in a fresh interpreter (``job.py``), which reports its set-up time, its job
time and its peak resident set.  After the timed loop every distinct output
is checked against values computed apart from the program (``verdict.py``).

Times are CPU seconds scaled to a reference speed: each measurement is
multiplied by ``CAL_REF_S`` over the CPU time of a fixed calibration loop
run in the job process just before and just after the job (see
``job.calibrate``).

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` untraced and traced passes over each round alternate; the
result holds the per-layer metrics of the traced passes and the tracing
overhead.  The last line of stdout is the JSON result; a trace of every
span goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import jobs
import spans
import verdict
from job import CAL_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
JOB = os.path.join(HERE, "job.py")

JOB_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def run_job(argv: list[str], workdir: str, trace: str | None) -> dict:
    """Run one job in a fresh interpreter; its report plus the time scale."""
    report = os.path.join(workdir, "job.report")
    if os.path.exists(report):
        os.remove(report)
    cmd = [sys.executable, JOB, SRC, report, trace or "-", *argv]
    with open(os.path.join(workdir, "job.out"), "w") as out, \
            open(os.path.join(workdir, "job.err"), "w+") as err:
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            status = proc.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{' '.join(argv)}: no result within {JOB_TIMEOUT_S:.0f} s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        if status != 0 or not os.path.exists(report):
            raise BenchError(f"{' '.join(argv)}: job process exit {status}: {err.read().strip()}")
    reply = json.loads(_read(report))
    reply["scale"] = CAL_REF_S / reply["calibration_s"]
    return reply


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one measurement and return the result object (see module doc)."""
    if not os.path.isdir(os.path.join(SRC, "gramkernel")):
        raise BenchError(f"no gramkernel package under {SRC}; run from a checkout of the repository")
    workdir = os.path.join(OUT, f"{workload}-s{seed}-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    trace_path = os.path.join(workdir, "job.trace")
    records = []     # (traced, argv, reply) per job
    layer_jobs = []  # (span summary, scale) of traced jobs
    raw_spans = []
    outputs = {}     # (argv, code, stdout) -> times seen; each checked once
    try:
        round_iter = jobs.rounds(workload, seed, smoke)
        rounds_done = 0
        start = time.monotonic()
        while rounds_done == 0 or time.monotonic() - start < seconds:
            batch = next(round_iter)
            for traced in ((False, True) if trace else (False,)):
                for argv in batch:
                    reply = run_job(argv, workdir, trace_path if traced else None)
                    key = (tuple(argv), reply["code"], _read(os.path.join(workdir, "job.out")))
                    outputs[key] = outputs.get(key, 0) + 1
                    records.append((traced, argv, reply))
                    if traced:
                        doc = json.loads(_read(trace_path))
                        layer_jobs.append((doc["summary"], reply["scale"]))
                        raw_spans.append({"argv": argv, "cpu_s": reply["seconds"],
                                          "scale": reply["scale"], "spans": doc["spans"]})
            rounds_done += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = 0
    unexpected = []
    check_start = time.monotonic()
    for (argv, code, text), count in outputs.items():
        reason = verdict.check(list(argv), code, text)
        if reason is not None:
            failed += count
            known = jobs.is_known_fault(list(argv))
            print(f"FAILED{'' if known else ' (unexpected)'}: {' '.join(argv)}: {reason}")
            if not known:
                unexpected.append(argv)
    print(f"{workload}: checked {len(outputs)} distinct outputs in "
          f"{time.monotonic() - check_start:.1f} s")

    wall = sum(r["wall"] for _, _, r in records)
    cpu = sum(r["seconds"] for _, _, r in records)
    cal = statistics.median(r["calibration_s"] for _, _, r in records)
    print(f"{workload}: {rounds_done} rounds; job wall time {wall:.2f} s, CPU time {cpu:.2f} s, "
          f"median calibration {1000 * cal:.2f} ms (reference {1000 * CAL_REF_S:.2f} ms)")
    if trace:
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"trace-{workload}-s{seed}.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed, "jobs": raw_spans}, fh)
        metrics = per_layer(records, layer_jobs, rounds_done)
    else:
        metrics = end_to_end(records)
    return {"correct": not unexpected, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def end_to_end(records) -> dict:
    """setup_s is the median over all jobs of the run.  job_p50_s is the median over the round's jobs of each job's mean time
    across the run's rounds: the median job of a typical round.  Averaging
    each job over its rounds first keeps the median from hanging on the
    noise of the few samples nearest to it."""
    by_job: dict[tuple, list[float]] = {}
    for _, argv, reply in records:
        by_job.setdefault(tuple(argv), []).append(reply["seconds"] * reply["scale"])
    times = [t for per_job in by_job.values() for t in per_job]
    return {
        "setup_s": {"value": statistics.median(r["setup_s"] * r["scale"] for _, _, r in records),
                    "unit": "s"},
        "job_p50_s": {"value": statistics.median(statistics.fmean(v) for v in by_job.values()),
                      "unit": "s"},
        "throughput_jobs_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "peak_rss_mb": {"value": max(r["maxrss_kb"] for _, _, r in records) / 1024, "unit": "MB"},
    }


def per_layer(records, layer_jobs, rounds_done: int) -> dict:
    """Per-round totals over the traced passes, plus the tracing overhead."""
    totals = {layer: {"self_s": 0.0, "calls": 0, "distinct": 0}
              for layer in list(spans.LAYERS) + ["cli"]}
    for job, scale in layer_jobs:
        for layer, entry in job["layers"].items():
            totals[layer]["self_s"] += entry["self_s"] * scale
            totals[layer]["calls"] += entry["calls"]
            totals[layer]["distinct"] += entry["distinct"]
    metrics = {}
    for layer, entry in totals.items():
        metrics[f"{layer}.self_s"] = {"value": entry["self_s"] / rounds_done, "unit": "s"}
    for layer in ("kernelbuild.build_kernel", "families", "oracle.invert", "exactscalar.render"):
        metrics[f"{layer}.calls"] = {"value": totals[layer]["calls"] / rounds_done, "unit": "count"}
    for layer in spans.KEYED:
        calls = totals[layer]["calls"]
        metrics[f"{layer}.distinct_per_call"] = {
            "value": totals[layer]["distinct"] / calls if calls else 0.0, "unit": "ratio"}
    metrics["kernelbuild.max_bits"] = {
        "value": max((job["max_bits"] for job, _ in layer_jobs), default=0), "unit": "bits"}
    plain = sum(r["seconds"] * r["scale"] for traced, _, r in records if not traced)
    traced = sum(r["seconds"] * r["scale"] for traced, _, r in records if traced)
    metrics["tracing.overhead_pct"] = {"value": 100.0 * (traced - plain) / plain, "unit": "%"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} jobs attempted = {result['attempted']}, failed = {result['failed']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
