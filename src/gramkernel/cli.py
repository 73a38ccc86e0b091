"""Command-line surface: kernels, condition tables, variances, polynomials,
plot data, and the self-verification report, as text, CSV, or JSON.

Exact rationals are serialized as ``p/q`` strings; pi-dependent exact values
as canonical ``q*pi^m`` sums.  Decimals are rendered from the exact values and
never feed back into any exact field: ``cond`` renders kappa exactly, while
``variance`` and ``plotdata`` evaluate at ``--precision-bits`` (default 256),
the only commands that take it.
``plotdata --samples`` takes 2 to 65536 points (65536 take about 15 s), and
its window ends ``--xmin``/``--xmax`` are at most 10**6 in magnitude with a
denominator below 10**30.
Exit codes: 0 success, 1 verification failed, 2 usage or I/O error (such as an
``--out`` path that cannot be written, a ``--samples`` count or window end out
of bounds or a numeric option that is not an integer), 3 internal error (any
other exception: one line ``internal error: TYPE: MESSAGE`` on stderr).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction
from math import inf

from .approx import (
    eval_polynomial,
    function_moments,
    project,
    target_by_name,
    target_value,
    taylor_comparator,
    variance_rows,
    TARGETS,
)
from .checks import run_checks
from .conditioning import condition_table
from .exactscalar import (
    DEFAULT_PRECISION_BITS,
    MIN_PRECISION_BITS,
    SIG_DIGITS,
    decimal_str,
    eval_pilaurent,
    mpf_decimal_str,
)
from .families import FAMILIES, family_by_name
from .kernelbuild import build_kernel

MIN_SAMPLES, MAX_SAMPLES = 2, 65536
MAX_WINDOW_END, MAX_WINDOW_DEN = 10**6, 10**30


def _int_option(text: str, low: int, high: float, expected: str) -> int:
    """``text`` as an integer in [low, high]; anything else, a non-integer
    included, is a usage error that says what was expected."""
    try:
        value = int(text)
        if low <= value <= high:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{expected}, got {text}")


def _positive_int(text: str) -> int:
    return _int_option(text, 1, inf, "must be a positive integer")


def _sample_count(text: str) -> int:
    expected = f"samples must be between {MIN_SAMPLES} and {MAX_SAMPLES}"
    return _int_option(text, MIN_SAMPLES, MAX_SAMPLES, expected)


def _precision(text: str) -> int:
    expected = f"precision-bits must be >= {MIN_PRECISION_BITS}"
    return _int_option(text, MIN_PRECISION_BITS, inf, expected)


def _window_end(text: str) -> Fraction:
    """A ``plotdata`` window end, exact, at most 10**6 in magnitude with a
    denominator below 10**30.  A decimal exponent beyond ``len(text) + 100``
    breaks a bound for any nonzero mantissa that short, so it is clipped
    before ``Fraction`` expands it: ``1e100000000`` fails at once."""
    try:
        value = Fraction(re.sub(r"([eE][-+]?)([\d_]+)(\s*)\Z",
                                lambda m: f"{m[1]}{min(int(m[2]), len(text) + 100)}{m[3]}", text))
        if abs(value) <= MAX_WINDOW_END and value.denominator < MAX_WINDOW_DEN:
            return value
    except (ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError(f"must be a number of magnitude at most {MAX_WINDOW_END} "
                                     f"with a denominator below 10**30, got {text}")


def _emit(args, payload: dict | None, header: list[str], rows: list[list[str]],
          lines: list[str] | None) -> None:
    """Write one command's result as JSON, CSV or text, to ``--out`` or stdout."""
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = "\n".join(lines) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        _write_atomically(args.out, text)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc.strerror or exc}") from None


def _write_atomically(path: str, text: str) -> None:
    """Write a temp file beside ``path``, then rename it over ``path``.

    Readers see the old file or the whole new one, never a partial one; on
    failure the temp file is removed and the error propagates.
    """
    import os  # only --out needs it

    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def cmd_kernel(args) -> int:
    family = family_by_name(args.family)
    kernel = build_kernel(family, args.size)
    grade = kernel.sqrtpi_power
    cells = [[str(x) for x in row] for row in kernel.entries]
    width = max(len(c) for row in cells for c in row)
    _emit(
        args,
        {"family": family.name, "size": kernel.n, "grade": grade, "data": cells},
        [f"c{j + 1}" for j in range(kernel.n)] + ["grade"],
        [row + [str(grade)] for row in cells],
        [f"family={family.name} size={kernel.n} grade={grade}"]
        + ["  ".join(c.rjust(width) for c in row) for row in cells],
    )
    return 0


def cmd_cond(args) -> int:
    family = family_by_name(args.family)
    table = condition_table(family, args.max_size)
    rows = [(r.size, str(r.kappa_exact), r.kappa_decimal) for r in table]
    _emit(
        args,
        {
            "family": family.name,
            "sizes": [size for size, _, _ in rows],
            "grade": 0,
            "data": [
                {"size": size, "kappa_exact": exact, "kappa_decimal": dec}
                for size, exact, dec in rows
            ],
        },
        ["size", "kappa_exact", "kappa_decimal"],
        [[str(size), exact, dec] for size, exact, dec in rows],
        [f"family={family.name}", "size  kappa"]
        + [f"{size:>4}  {dec}  (= {exact})" for size, exact, dec in rows],
    )
    return 0


def cmd_variance(args) -> int:
    target = target_by_name(args.target)
    rows = variance_rows(target, args.max_size)
    # pure rationals (Fraction values) are worth emitting exactly too
    exact = all(isinstance(v, Fraction) for pair in rows for v in pair)
    columns = ["taylor", "estimate"] + (["taylor_exact", "estimate_exact"] if exact else [])
    table = []
    for size, pair in enumerate(rows, start=1):
        cells = [
            mpf_decimal_str(eval_pilaurent(v, args.precision_bits), SIG_DIGITS) for v in pair
        ]
        if exact:
            cells += [str(v) for v in pair]
        table.append((size, cells))
    lines = [f"target={target.name}", "size  taylor_variance  estimate_variance"]
    for size, cells in table:
        extra = f"  (exact {cells[2]}, {cells[3]})" if exact else ""
        lines.append(f"{size:>4}  {cells[0]}  {cells[1]}{extra}")
    _emit(
        args,
        {
            "target": target.name,
            "sizes": [size for size, _ in table],
            "grade": 0,
            "data": [{"size": size, **dict(zip(columns, cells))} for size, cells in table],
        },
        ["size"] + columns,
        [[str(size)] + cells for size, cells in table],
        lines,
    )
    return 0


def cmd_project(args) -> int:
    target = target_by_name(args.target)
    family = target.natural_family
    kernel = build_kernel(family, args.size)
    estimate = project(kernel, function_moments(target, args.size))
    taylor = taylor_comparator(target, args.size)

    by_power: dict[int, list[str | None]] = {}
    for slot, poly in enumerate((estimate, taylor)):
        for idx, coeff in enumerate(poly.coefficients):
            by_power.setdefault(family.basis_power(idx + 1), [None, None])[slot] = str(coeff)
    table = [(p, *by_power[p]) for p in sorted(by_power)]
    _emit(
        args,
        {
            "target": target.name,
            "size": args.size,
            "grade": 0,
            "data": [{"power": p, "estimate": est, "taylor": tay} for p, est, tay in table],
        },
        ["power", "estimate", "taylor"],
        [[str(p), est or "", tay or ""] for p, est, tay in table],
        [f"target={target.name} size={args.size}"]
        + [f"x^{p}: estimate={est or '-'}  taylor={tay or '-'}" for p, est, tay in table],
    )
    return 0


def cmd_plotdata(args) -> int:
    target = target_by_name(args.target)
    xmin, xmax = args.xmin, args.xmax
    if not xmin < xmax:
        raise ValueError(f"xmin must be < xmax, got {xmin} >= {xmax}")
    family = target.natural_family
    kernel = build_kernel(family, args.size)
    estimate = project(kernel, function_moments(target, args.size))
    taylor = taylor_comparator(target, args.size)

    step = (xmax - xmin) / (args.samples - 1)
    xs = [xmin + i * step for i in range(args.samples)]
    columns = (
        target_value(target, xs, args.precision_bits),
        eval_polynomial(estimate, xs, args.precision_bits),
        eval_polynomial(taylor, xs, args.precision_bits),
    )
    rows = [
        [decimal_str(x, SIG_DIGITS)] + [mpf_decimal_str(v, SIG_DIGITS) for v in values]
        for x, *values in zip(xs, *columns)
    ]
    _emit(args, None, ["x", "f", "estimate", "taylor"], rows, None)
    return 0


def cmd_verify(args) -> int:
    results = run_checks(args.max_size, inject_corruption=args.inject_corruption)
    n_failed = sum(not r.passed for r in results)
    status = ["pass" if r.passed else "FAIL" for r in results]
    _emit(
        args,
        {
            "max_size": args.max_size,
            "passed": len(results) - n_failed,
            "failed": n_failed,
            "data": [
                {"check": r.name, "family": r.family, "size": r.size, "passed": r.passed}
                for r in results
            ],
        },
        ["check", "family", "size", "result"],
        [[r.name, r.family, str(r.size), st] for r, st in zip(results, status)],
        [f"{st}  {r.name}  family={r.family}  size={r.size}" for r, st in zip(results, status)]
        + [
            f"{len(results) - n_failed} passed, {n_failed} failed "
            f"(families x sizes 1..{args.max_size})"
        ],
    )
    return 1 if n_failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramkernel",
        description="Exact reproducing-kernel tables over the classical weighted domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, precision=False):
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        if precision:
            p.add_argument("--precision-bits", type=_precision, default=DEFAULT_PRECISION_BITS)
        p.add_argument("--out", metavar="PATH", default=None)

    p_kernel = sub.add_parser("kernel", help="exact kernel matrix B = G^-1")
    p_kernel.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p_kernel.add_argument("--size", type=_positive_int, required=True)
    add_common(p_kernel)
    p_kernel.set_defaults(func=cmd_kernel)

    p_cond = sub.add_parser("cond", help="infinity-norm condition numbers")
    p_cond.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p_cond.add_argument("--max-size", type=_positive_int, required=True)
    add_common(p_cond)
    p_cond.set_defaults(func=cmd_cond)

    p_var = sub.add_parser("variance", help="error variances: Taylor vs kernel estimate")
    p_var.add_argument("--target", choices=sorted(TARGETS), required=True)
    p_var.add_argument("--max-size", type=_positive_int, required=True)
    add_common(p_var, precision=True)
    p_var.set_defaults(func=cmd_variance)

    p_proj = sub.add_parser("project", help="estimate and Taylor coefficients")
    p_proj.add_argument("--target", choices=sorted(TARGETS), required=True)
    p_proj.add_argument("--size", type=_positive_int, required=True)
    add_common(p_proj)
    p_proj.set_defaults(func=cmd_project)

    p_plot = sub.add_parser("plotdata", help="CSV samples of f, estimate, and Taylor")
    p_plot.add_argument("--target", choices=sorted(TARGETS), required=True)
    p_plot.add_argument("--size", type=_positive_int, required=True)
    p_plot.add_argument("--xmin", type=_window_end, default="0")
    p_plot.add_argument("--xmax", type=_window_end, default="10")
    p_plot.add_argument("--samples", type=_sample_count, default=512)
    p_plot.add_argument("--precision-bits", type=_precision, default=DEFAULT_PRECISION_BITS)
    p_plot.add_argument("--out", metavar="PATH", default=None)
    p_plot.set_defaults(func=cmd_plotdata, format="csv")

    p_verify = sub.add_parser("verify", help="run the exact self-verification suites")
    p_verify.add_argument("--max-size", type=_positive_int, required=True)
    p_verify.add_argument(
        "--inject-corruption",
        action="store_true",
        help="test hook: corrupt one kernel entry so the checks must fail",
    )
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        parser.exit(2, f"error: {exc}\n")
    except Exception as exc:  # a fault of the program, not of the input
        message = str(exc).replace("\n", " ")
        parser.exit(3, f"internal error: {type(exc).__name__}: {message}\n")


if __name__ == "__main__":
    sys.exit(main())
