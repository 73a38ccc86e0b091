"""The three workloads: which CLI invocations make up one round of each.

A round is a fixed multiset of jobs, so every round costs about the same
and the median job of a run always falls on the same job type.  The seed
sets the order of the jobs in each round and the sample windows of the
exp-neg and sin-pi ``plotdata`` jobs; it never changes which commands, families, targets or
sizes run, because those set the cost.

``KNOWN_FAULTS`` lists the jobs whose output is wrong on every run because
of a fault in the program.  They are counted as failed, not as incorrect.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("tables", "point", "verify")

# Full-size rounds.  Sizes are chosen so a round takes 5-8 s of job time on
# a 2-core machine, and so that several job types of similar cost sit
# around the median job, which keeps job_p50_s from hanging on one job's
# noise.
FULL = {
    "tables": [
        ["cond", "--family", "laguerre", "--max-size", "24"],
        ["cond", "--family", "laguerre", "--max-size", "32"],
        ["cond", "--family", "legendre-even", "--max-size", "24"],
        ["cond", "--family", "legendre-odd", "--max-size", "28"],
        ["cond", "--family", "hermite-even", "--max-size", "26"],
        ["cond", "--family", "hermite-odd", "--max-size", "24"],
        ["variance", "--target", "exp-neg", "--max-size", "16"],
        ["variance", "--target", "sin-pi", "--max-size", "14"],
        ["variance", "--target", "cos-pi", "--max-size", "14"],
    ],
    "point": [
        ["kernel", "--family", "laguerre", "--size", "40"],
        ["kernel", "--family", "legendre-even", "--size", "30"],
        ["kernel", "--family", "legendre-odd", "--size", "35"],
        ["kernel", "--family", "hermite-even", "--size", "25"],
        ["kernel", "--family", "hermite-odd", "--size", "20"],
        ["project", "--target", "sin-pi", "--size", "20"],
        ["project", "--target", "cos-pi", "--size", "15"],
        ["project", "--target", "exp-neg", "--size", "10"],
        ["plotdata", "--target", "exp-neg", "--size", "16", "--samples", "512"],
        ["plotdata", "--target", "sin-pi", "--size", "8", "--samples", "512"],
        ["plotdata", "--target", "cos-pi", "--size", "12", "--samples", "512",
         "--xmin=-1/2", "--xmax=1/2"],
    ],
    "verify": [
        ["verify", "--max-size", "8"],
        ["verify", "--max-size", "9"],
        ["verify", "--max-size", "10"],
        ["verify", "--max-size", "11"],
        ["verify", "--max-size", "9", "--inject-corruption"],
    ],
}

# Smallest sizes, for the smoke test: every command, family and target once.
SMOKE = {
    "tables": [
        ["cond", "--family", f, "--max-size", "3"]
        for f in ("laguerre", "legendre-even", "legendre-odd", "hermite-even", "hermite-odd")
    ] + [["variance", "--target", t, "--max-size", "3"] for t in ("exp-neg", "sin-pi", "cos-pi")],
    "point": [
        ["kernel", "--family", "hermite-odd", "--size", "3"],
        ["project", "--target", "cos-pi", "--size", "3"],
        ["plotdata", "--target", "sin-pi", "--size", "3", "--samples", "8"],
        ["plotdata", "--target", "exp-neg", "--size", "2", "--samples", "8"],
    ],
    "verify": [
        ["verify", "--max-size", "2"],
        ["verify", "--max-size", "2", "--inject-corruption"],
    ],
}

# Output formats: JSON wherever the command has one (plotdata is CSV only).
FORMAT = {"kernel": "json", "cond": "json", "variance": "json", "project": "json", "verify": "json"}

# Jobs whose output is wrong on every run.  The estimate-variance column
# loses every bit to cancellation in the fixed-precision pi-Laurent
# evaluation: sin-pi prints a wrong 17th digit from size 11, cos-pi from
# size 12 (and worse beyond).  The f column of plotdata evaluates cos(pi x)
# with a rounded pi, so at x = -1/2 and 1/2, the ends of its fixed window,
# it prints rounding noise instead of 0.
KNOWN_FAULTS = (
    ("variance", "--target", "sin-pi", "--max-size", "14"),
    ("variance", "--target", "cos-pi", "--max-size", "14"),
    ("plotdata", "--target", "cos-pi", "--size", "12"),
)


def _window(rng: random.Random, target: str) -> tuple[Fraction, Fraction]:
    """A sample window inside the target's domain: (0, ~12) for exp-neg,
    (-1, 1) for sin-pi."""
    if target == "exp-neg":
        return Fraction(rng.randint(1, 100), 100), Fraction(rng.randint(800, 1200), 100)
    return Fraction(rng.randint(-99, -80), 100), Fraction(rng.randint(80, 99), 100)


def rounds(workload: str, seed: int, smoke: bool = False):
    """Endless iterator of rounds: each a list of argv lists, in seed order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(seed)
    base = (SMOKE if smoke else FULL)[workload]
    windows = {}
    for argv in base:
        if argv[0] == "plotdata" and not any(a.startswith("--xmin") for a in argv):
            windows[tuple(argv)] = _window(rng, argv[argv.index("--target") + 1])
    jobs = []
    for argv in base:
        job = list(argv)
        if argv[0] in FORMAT:
            job += ["--format", FORMAT[argv[0]]]
        if tuple(argv) in windows:
            xmin, xmax = windows[tuple(argv)]
            job += [f"--xmin={xmin}", f"--xmax={xmax}"]
        jobs.append(job)
    while True:
        order = list(jobs)
        rng.shuffle(order)
        yield order


def is_known_fault(argv: list[str]) -> bool:
    return any(tuple(argv[: len(k)]) == k for k in KNOWN_FAULTS)
