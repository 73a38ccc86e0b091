"""Regenerate the reference figures of README.md.

    python3 perfbench/figures.py

Runs ``run.py`` for ``run_seconds`` (from BENCHMARK.json) once per workload
and seed, with tracing off, over two sets of ten seeds (101-110 and
111-120), and once per workload with tracing on (seed 201), each run in its
own process.  Then prints per workload and set: the median and the quartile
spread (as a share of the median) of every end-to-end metric, the same for
throughput over unscaled CPU and wall time, the failed shares and the run
lengths; the change of each median from the first set to the second; and
the per-layer self-time shares, counts and bit lengths of the traced run.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import time

import jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = (range(101, 111), range(111, 121))
TRACE_SEED = 201


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result object, with the run's unscaled throughputs and length added."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["length_s"] = time.monotonic() - start
    wall, cpu = re.search(r"job wall time ([0-9.]+) s, CPU time ([0-9.]+) s", proc.stdout).groups()
    result["unscaled"] = {"cpu": result["attempted"] / float(cpu),
                          "wall": result["attempted"] / float(wall)}
    return result


def _spread(values: list[float]) -> tuple[float, float]:
    """Median and quartile distance over median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    for workload in jobs.WORKLOADS:
        medians = []
        for seeds in SETS:
            results = [_run(workload, seed, seconds, 0) for seed in seeds]
            shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
            lengths = [r["length_s"] for r in results]
            print(f"\n## {workload}, seeds {seeds[0]}-{seeds[-1]}: failed {shares}; "
                  f"runs of {min(lengths):.0f}-{max(lengths):.0f} s")
            print("| metric | median | quartile spread |\n|---|---|---|")
            medians.append({})
            for name, first in results[0]["metrics"].items():
                med, spread = _spread([r["metrics"][name]["value"] for r in results])
                medians[-1][name] = med
                print(f"| {name} | {med:.4g} {first['unit']} | {spread:.1%} |")
            for clock in ("cpu", "wall"):
                med, spread = _spread([r["unscaled"][clock] for r in results])
                print(f"| throughput over unscaled {clock} time | {med:.4g} 1/s | {spread:.1%} |")
        print(f"\n{workload}, second set against first: " + ", ".join(
            f"{name} {medians[1][name] / med - 1:+.1%}" for name, med in medians[0].items()))
        traced = _run(workload, TRACE_SEED, seconds, 1)["metrics"]
        total = sum(m["value"] for name, m in traced.items() if name.endswith(".self_s"))
        print(f"\nper layer, seed {TRACE_SEED} (per round; share of traced job time):")
        for name, m in traced.items():
            share = f" ({m['value'] / total:.1%})" if name.endswith(".self_s") and total else ""
            print(f"- {name} = {m['value']:.4g} {m['unit']}{share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
