"""Command-line surface: kernels, condition tables, variances, polynomials,
plot data, and the self-verification report, as text, CSV, or JSON.

Exact rationals are serialized as ``p/q`` strings; pi-dependent exact values
as canonical ``q*pi^m`` sums.  Every decimal is an exact value rounded to 17
significant digits by ``exactscalar``'s one renderer, and never feeds back
into any exact field: ``variance`` and ``plotdata`` round the exact value of a
float evaluated at ``--precision-bits`` (default 256), the only commands that
take it.  A table's rows are built once, under one column list: the CSV
header and the keys of the JSON ``data`` objects.
``plotdata --samples`` takes 2 to 65536 points (65536 take about 5 s), and
its window ends ``--xmin``/``--xmax`` are at most 10**6 in magnitude with a
denominator below 10**30.
``verify`` writes one stderr line ``FAIL <check> family=<f> size=<n>: <detail>``
per failing check, in every format, and its JSON rows of failing checks carry
that ``detail``; a passing run writes nothing to stderr.
``--out PATH`` writes the file PATH resolves to, through any symlinks: a
regular or new file atomically (a temp file renamed over it), anything else,
such as a FIFO or a device, in place.
Exit codes: 0 success, 1 verification failed, 2 usage or I/O error: an
argument argparse refuses (such as a ``--samples`` count or window end out of
bounds or a numeric option that is not an integer) or a :class:`UsageError`
(``plotdata``'s ``xmin >= xmax``, an ``--out`` path that cannot be written;
one line ``error: MESSAGE`` on stderr).  3 internal error: any other
exception, ``ValueError`` and ``ZeroDivisionError`` included, is a fault of
the program, not of the input (one line ``internal error: TYPE: MESSAGE``).
Only the invoked subcommand's parser is built; the full parser is built only
for root help, an unknown command or arguments the subcommand leaves over.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import re
import sys
from decimal import ROUND_HALF_EVEN
from fractions import Fraction
from math import inf

from .approx import (
    eval_polynomial,
    function_moments,
    project,
    sample_grid,
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
    _render,
    decimal_str,
    eval_pilaurent,
    mpf_decimal_str,
)
from .families import FAMILIES, family_by_name
from .kernelbuild import build_kernel

MIN_SAMPLES, MAX_SAMPLES = 2, 65536
MAX_WINDOW_END, MAX_WINDOW_DEN = 10**6, 10**30


class UsageError(Exception):
    """An input the command cannot act on, found after parsing: exit 2."""


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


def _emit(args, head: dict | None, header: list[str], rows: list[list],
          lines: list[str] | None) -> None:
    """Write one command's result as JSON, CSV or text, to ``--out`` or stdout.

    ``rows`` hold typed cells, None for a missing value (an empty CSV cell);
    JSON's ``data`` is one object per row keyed by ``header``, unless ``head``
    has its own."""
    if args.format == "json":
        payload = head if "data" in head else {
            **head, "data": [dict(zip(header, row)) for row in rows]}
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
        _write_out(args.out, text)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc.strerror or exc}") from None


def _write_out(path: str, text: str) -> None:
    """Write ``text`` to the file ``path`` resolves to, through any symlinks.

    A regular or missing target gets a temp file beside it, renamed over it,
    so readers see the old file or the whole new one, never a partial one;
    on failure the temp file is removed and the error propagates.  Any other
    target (a FIFO, a device) is written in place.
    """
    import os  # only --out needs it
    import stat

    target = os.path.realpath(path)
    try:
        in_place = not stat.S_ISREG(os.stat(target).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    tmp = f"{target}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, target)
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
    rows = [[size, str(kappa), decimal_str(kappa)]
            for size, kappa in enumerate(condition_table(family, args.max_size), start=1)]
    _emit(
        args,
        {"family": family.name, "sizes": [row[0] for row in rows], "grade": 0},
        ["size", "kappa_exact", "kappa_decimal"],
        rows,
        [f"family={family.name}", "size  kappa"]
        + [f"{size:>4}  {dec}  (= {exact})" for size, exact, dec in rows],
    )
    return 0


def cmd_variance(args) -> int:
    target = target_by_name(args.target)
    pairs = variance_rows(target, args.max_size)
    # pure rationals (Fraction values) are worth emitting exactly too
    exact = all(isinstance(v, Fraction) for pair in pairs for v in pair)
    rows = [
        [size] + [mpf_decimal_str(eval_pilaurent(v, args.precision_bits)) for v in pair]
        + ([str(v) for v in pair] if exact else [])
        for size, pair in enumerate(pairs, start=1)
    ]
    _emit(
        args,
        {"target": target.name, "sizes": [row[0] for row in rows], "grade": 0},
        ["size", "taylor", "estimate"] + (["taylor_exact", "estimate_exact"] if exact else []),
        rows,
        [f"target={target.name}", "size  taylor_variance  estimate_variance"]
        + [f"{size:>4}  {tay}  {est}" + ("  (exact {}, {})".format(*extra) if extra else "")
           for size, tay, est, *extra in rows],
    )
    return 0


def _estimate_and_taylor(target, size: int):
    """The kernel estimate of ``target`` at ``size`` and its Taylor comparator."""
    kernel = build_kernel(target.natural_family, size)
    return project(kernel, function_moments(target, size)), taylor_comparator(target, size)


def cmd_project(args) -> int:
    target = target_by_name(args.target)
    family = target.natural_family
    estimate, taylor = _estimate_and_taylor(target, args.size)

    by_power: dict[int, list[str | None]] = {}
    for slot, poly in enumerate((estimate, taylor)):
        for idx, coeff in enumerate(poly.coefficients):
            by_power.setdefault(family.basis_power(idx + 1), [None, None])[slot] = str(coeff)
    rows = [[p, *by_power[p]] for p in sorted(by_power)]
    _emit(
        args,
        {"target": target.name, "size": args.size, "grade": 0},
        ["power", "estimate", "taylor"],
        rows,
        [f"target={target.name} size={args.size}"]
        + [f"x^{p}: estimate={est or '-'}  taylor={tay or '-'}" for p, est, tay in rows],
    )
    return 0


def cmd_plotdata(args) -> int:
    target = target_by_name(args.target)
    xmin, xmax = args.xmin, args.xmax
    if not xmin < xmax:
        raise UsageError(f"xmin must be < xmax, got {xmin} >= {xmax}")
    estimate, taylor = _estimate_and_taylor(target, args.size)

    nums, den = sample_grid(xmin, xmax, args.samples)
    columns = (
        target_value(target, nums, den, args.precision_bits),
        eval_polynomial(estimate, nums, den, args.precision_bits),
        eval_polynomial(taylor, nums, den, args.precision_bits),
    )
    # x = num/den unreduced: its correctly rounded digits are decimal_str's
    rows = [
        [_render(num, den, SIG_DIGITS, ROUND_HALF_EVEN, "")] + [mpf_decimal_str(v) for v in values]
        for num, *values in zip(nums, *columns)
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
                {"check": r.name, "family": r.family, "size": r.size, "passed": r.passed,
                 **({"detail": r.detail} if r.detail else {})}
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
    for r in results:
        if not r.passed:
            sys.stderr.write(f"FAIL {r.name} family={r.family} size={r.size}: {r.detail}\n")
    return 1 if n_failed else 0


def _common(p, precision=False):
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    if precision:
        p.add_argument("--precision-bits", type=_precision, default=DEFAULT_PRECISION_BITS)
    p.add_argument("--out", metavar="PATH", default=None)


# Each subcommand's arguments are added by one function, which names its
# command function when it runs, so a replaced ``cli.cmd_*`` is the one called.
def _kernel_args(p):
    p.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p.add_argument("--size", type=_positive_int, required=True)
    _common(p)
    p.set_defaults(func=cmd_kernel)


def _cond_args(p):
    p.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p.add_argument("--max-size", type=_positive_int, required=True)
    _common(p)
    p.set_defaults(func=cmd_cond)


def _variance_args(p):
    p.add_argument("--target", choices=sorted(TARGETS), required=True)
    p.add_argument("--max-size", type=_positive_int, required=True)
    _common(p, precision=True)
    p.set_defaults(func=cmd_variance)


def _project_args(p):
    p.add_argument("--target", choices=sorted(TARGETS), required=True)
    p.add_argument("--size", type=_positive_int, required=True)
    _common(p)
    p.set_defaults(func=cmd_project)


def _plotdata_args(p):
    p.add_argument("--target", choices=sorted(TARGETS), required=True)
    p.add_argument("--size", type=_positive_int, required=True)
    p.add_argument("--xmin", type=_window_end, default="0")
    p.add_argument("--xmax", type=_window_end, default="10")
    p.add_argument("--samples", type=_sample_count, default=512)
    p.add_argument("--precision-bits", type=_precision, default=DEFAULT_PRECISION_BITS)
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_plotdata, format="csv")


def _verify_args(p):
    p.add_argument("--max-size", type=_positive_int, required=True)
    p.add_argument(
        "--inject-corruption",
        action="store_true",
        help="test hook: corrupt one kernel entry so the checks must fail",
    )
    _common(p)
    p.set_defaults(func=cmd_verify)


_SUBCOMMANDS = {  # name -> (help, adds its arguments)
    "kernel": ("exact kernel matrix B = G^-1", _kernel_args),
    "cond": ("infinity-norm condition numbers", _cond_args),
    "variance": ("error variances: Taylor vs kernel estimate", _variance_args),
    "project": ("estimate and Taylor coefficients", _project_args),
    "plotdata": ("CSV samples of f, estimate, and Taylor", _plotdata_args),
    "verify": ("run the exact self-verification suites", _verify_args),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramkernel",
        description="Exact reproducing-kernel tables over the classical weighted domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the named
    subcommand's parser when that suffices: the parser the full one hands the
    subcommand's arguments to, with the same prog, so the same help and
    errors.  Root help, an unknown command and arguments the subcommand
    leaves over are reported by the full parser, as before."""
    if argv and argv[0] in _SUBCOMMANDS:
        parser = argparse.ArgumentParser(prog=f"gramkernel {argv[0]}")
        _SUBCOMMANDS[argv[0]][1](parser)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except UsageError as exc:
        code, message = 2, f"error: {exc}"
    except Exception as exc:  # a fault of the program, not of the input
        code, message = 3, f"internal error: {type(exc).__name__}: {exc}".replace("\n", " ")
    # as in argparse's exit: a closed stderr loses the message, never the exit code
    with contextlib.suppress(AttributeError, OSError):
        sys.stderr.write(message + "\n")
    sys.exit(code)


if __name__ == "__main__":
    sys.exit(main())
