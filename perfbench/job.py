"""One benchmark job: a fresh interpreter that imports the CLI and runs it once.

    python3 perfbench/job.py <src dir> <report path> <trace path or -> <argv...>

The caller sends stdout and stderr to the job's own files.  The CPU time of
this process up to the end of ``import gramkernel.cli`` is its set-up time.
The job time is the CPU time (and the wall time) of
``gramkernel.cli.main(argv)``, from the call until its output is flushed.
The report is one JSON object with both, the CLI's exit code, the peak
resident set of the process and the CPU time of the calibration loop run
just before and just after ``main(argv)`` (see ``calibrate``).  No state
carries from one job to the next.

With a trace path, the program's layers are wrapped after set-up (see
``spans.py``), and the span summary and raw spans are written there after
the timed region.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

# CPU seconds the calibration loop takes at the reference speed.  Times are
# reported as measured CPU seconds * CAL_REF_S / calibration seconds.
CAL_REF_S = 0.010


def calibrate() -> float:
    """CPU seconds of a fixed piece of exact rational arithmetic.

    The loop uses only the standard library, like the program's own exact
    core (Fraction products and sums with growing big-integer gcds).  On a
    shared virtual machine the speed of a process moves by up to 2x over
    seconds; timing this loop next to each job measures that speed so the
    job time can be scaled to a fixed reference speed.  It runs in the job
    process, right next to the timed region: timed in the parent process,
    0.1 s away across the interpreter start, it tracked the speed of the
    job less well.
    """
    t0 = time.process_time()
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i, i + 7) * Fraction(2 * i + 1, 3 * i + 2)
    return time.process_time() - t0


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    if isinstance(exc.code, int):
        return exc.code
    print(exc.code, file=sys.stderr)
    return 1


def main() -> int:
    src, report, trace, argv = os.path.abspath(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]
    sys.path.insert(0, src)
    import gramkernel.cli as cli

    setup = time.process_time()
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"gramkernel imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    rec = None
    if trace != "-":
        import spans
        rec = spans.install()
    before = calibrate()
    w0, t0 = time.perf_counter(), time.process_time()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = _exit_code(exc)
    except Exception:  # an uncaught error ends a real CLI process with exit 1
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    seconds, wall = time.process_time() - t0, time.perf_counter() - w0
    sys.stderr.flush()
    calibration = (before + calibrate()) / 2
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if rec is not None:
        with open(trace, "w", encoding="utf-8") as fh:
            json.dump({"summary": spans.summary(rec, seconds), "spans": rec.spans}, fh)
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup, "seconds": seconds, "wall": wall, "code": code,
                   "maxrss_kb": maxrss_kb, "calibration_s": calibration}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
