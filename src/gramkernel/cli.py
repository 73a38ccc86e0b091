"""Command-line surface: kernels, condition tables, variances, polynomials,
plot data, and the self-verification report, as text, CSV, or JSON.

Exact rationals are serialized as ``p/q`` strings; pi-dependent exact values
as canonical ``q*pi^m`` sums.  Every decimal is an exact value rounded to 17
significant digits by ``exactscalar``'s one digit routine, and never feeds
back into any exact field.  Every subcommand runs on integers alone; none
imports ``mpmath``.  ``cond`` prints every decimal correctly rounded from the
exact value, and so do ``variance`` and ``plotdata``, which certify
pi-Laurent values and f by integer enclosures in Ziv's loop, started at 256
bits; no option sets a precision.  The one exception is ``plotdata``'s f at
an exact zero of sin(pi x) or cos(pi x): it prints what a 256-bit float
evaluation returns there, rounding noise, not 0.  A table's rows are built
once, under one column list: the CSV header and the keys of the JSON
``data`` objects.  ``--size`` and ``--max-size`` take 1 to a ceiling per
subcommand, which ``--help`` gives (``MAX_SIZES``: kernel 200, cond 400,
variance 100, project 100, plotdata 100, verify 24); at its ceiling no
family or target takes more than about 6 s of CPU (``kernel`` at 200 under
1 s), but for ``plotdata`` windows with ends near 10**6 over denominators
near 10**30 (7.3 s for cos-pi at size 100).  ``plotdata --samples``
takes 2 to 65536 points, with ``--size`` times ``--samples`` at most
``MAX_PLOT_POINTS``, and its window ends ``--xmin``/``--xmax`` are at most
10**6 in magnitude with a denominator below 10**30.
``verify`` writes one stderr line ``FAIL <check> family=<f> size=<n>: <detail>``
per failing check, in every format, and its JSON rows of failing checks carry
that ``detail``; a passing run writes nothing to stderr.
``--out PATH`` writes the file PATH resolves to, through any symlinks: a
regular or new file atomically (a temp file renamed over it), anything else,
such as a FIFO or a device, in place.
Exit codes: 0 success, 1 verification failed, 2 usage or I/O error: an
argument argparse refuses (such as a size, ``--samples`` count or window end
out of bounds or a numeric option that is not an integer) or a
:class:`UsageError` (``plotdata``'s ``xmin >= xmax`` or size times samples
above ``MAX_PLOT_POINTS``, an ``--out`` path or a stdout that cannot be
written, full or closed; one line ``error: MESSAGE`` on stderr).
3 internal error: any other exception, ``ValueError`` and
``ZeroDivisionError`` included, is a fault of the program, not of the input
(one line ``internal error: TYPE: MESSAGE``).
A well-formed argv is read from the option table alone; argparse runs only for
help, errors and unusual spellings, and prints exactly what it always printed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import sys
from fractions import Fraction
from math import gcd, inf
from types import SimpleNamespace

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
    SIG_DIGITS,
    _render,
    certified_decimal_str,
    decimal_str,
)
from .families import FAMILIES, family_by_name
from .kernelbuild import build_kernel

MIN_SAMPLES, MAX_SAMPLES = 2, 65536
MAX_PLOT_POINTS = 16384  # the largest plotdata --size times --samples
MAX_WINDOW_END, MAX_WINDOW_DEN = 10**6, 10**30
# the largest --size or --max-size of each subcommand
MAX_SIZES = {"kernel": 200, "cond": 400, "variance": 100, "project": 100, "plotdata": 100,
             "verify": 24}


class UsageError(Exception):
    """An input the command cannot act on, found after parsing: exit 2."""


def _refused(message: str) -> Exception:
    """The error an option's ``type`` raises for a value it refuses."""
    import argparse  # only a refused value needs it

    return argparse.ArgumentTypeError(message)


def _int_option(text: str, low: int, high: float, expected: str) -> int:
    """``text`` as an integer in [low, high]; anything else, a non-integer
    included, is a usage error that says what was expected."""
    try:
        value = int(text)
        if low <= value <= high:
            return value
    except ValueError:
        pass
    raise _refused(f"{expected}, got {text}")


def _size(flag: str, command: str) -> tuple:
    """``command``'s ``--size`` or ``--max-size``: an integer from 1 to its
    ceiling in ``MAX_SIZES``; above it, the message names the ceiling."""
    ceiling = MAX_SIZES[command]

    def size(text: str) -> int:
        value = _int_option(text, 1, inf, "must be a positive integer")
        if value > ceiling:
            raise _refused(f"must be at most {ceiling}, got {text}")
        return value

    return flag, {"type": size, "required": True, "help": f"an integer from 1 to {ceiling}"}


def _sample_count(text: str) -> int:
    expected = f"samples must be between {MIN_SAMPLES} and {MAX_SAMPLES}"
    return _int_option(text, MIN_SAMPLES, MAX_SAMPLES, expected)


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
    raise _refused(f"must be a number of magnitude at most {MAX_WINDOW_END} "
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
        if sys.stdout is None:  # descriptor 1 was closed when Python started
            raise UsageError("cannot write stdout: Bad file descriptor")
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            import os  # only a failed write needs it

            # as in Python's note on SIGPIPE: the interpreter's own flush of
            # stdout at exit must not fail again and turn exit 2 into 120
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise UsageError(f"cannot write stdout: {exc.strerror or exc}") from None
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
    grade, den = kernel.sqrtpi_power, kernel.den
    # str(Fraction(a, den)) once per distinct integer a of B, without the Fraction
    text = {a: f"{a // g}" if (g := gcd(a, den)) == den else f"{a // g}/{den // g}"
            for a in set().union(*kernel.ints)}
    cells = [[text[a] for a in row] for row in kernel.ints]
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
    bits = [DEFAULT_PRECISION_BITS] * 2  # each column starts at the precision its last row needed

    def decimal(column, value):
        text, bits[column] = certified_decimal_str(value, bits[column])
        return text

    rows = [
        [size] + [decimal(column, v) for column, v in enumerate(pair)]
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
    if args.size * args.samples > MAX_PLOT_POINTS:
        raise UsageError(f"size x samples must be at most {MAX_PLOT_POINTS}, "
                         f"got {args.size} x {args.samples} = {args.size * args.samples}")
    estimate, taylor = _estimate_and_taylor(target, args.size)

    nums, den = sample_grid(xmin, xmax, args.samples)
    columns = (
        target_value(target, nums, den),
        eval_polynomial(estimate, nums, den),
        eval_polynomial(taylor, nums, den),
    )
    # x = num/den unreduced: its correctly rounded digits are decimal_str's
    rows = [[_render(num, den, SIG_DIGITS, True, ""), *values]
            for num, *values in zip(nums, *columns)]
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


# Each subcommand's options are ``(flag, add_argument kwargs)`` pairs in help
# order; its command function is looked up by name when argv is parsed, so a
# replaced ``cli.cmd_*`` is the one called.
_FAMILY = ("--family", {"choices": sorted(FAMILIES), "required": True})
_TARGET = ("--target", {"choices": sorted(TARGETS), "required": True})
_FORMAT = ("--format", {"choices": ("text", "csv", "json"), "default": "text"})
_OUT = ("--out", {"metavar": "PATH", "default": None})

_SUBCOMMANDS = {  # name -> (help, command function's name, options, other defaults)
    "kernel": ("exact kernel matrix B = G^-1", "cmd_kernel",
               (_FAMILY, _size("--size", "kernel"), _FORMAT, _OUT), {}),
    "cond": ("infinity-norm condition numbers", "cmd_cond",
             (_FAMILY, _size("--max-size", "cond"), _FORMAT, _OUT), {}),
    "variance": ("error variances: Taylor vs kernel estimate", "cmd_variance",
                 (_TARGET, _size("--max-size", "variance"), _FORMAT, _OUT), {}),
    "project": ("estimate and Taylor coefficients", "cmd_project",
                (_TARGET, _size("--size", "project"), _FORMAT, _OUT), {}),
    "plotdata": ("CSV samples of f, estimate, and Taylor", "cmd_plotdata", (
        _TARGET, _size("--size", "plotdata"), ("--xmin", {"type": _window_end, "default": "0"}),
        ("--xmax", {"type": _window_end, "default": "10"}),
        ("--samples", {"type": _sample_count, "default": 512, "help": (
            f"{MIN_SAMPLES} to {MAX_SAMPLES}, with size x samples at most {MAX_PLOT_POINTS}")}),
        _OUT),
        {"format": "csv"}),
    "verify": ("run the exact self-verification suites", "cmd_verify", (
        _size("--max-size", "verify"), ("--inject-corruption", {
            "action": "store_true", "default": False,
            "help": "test hook: corrupt one kernel entry so the checks must fail"}),
        _FORMAT, _OUT), {}),
}


def build_parser():
    import argparse  # only help, errors and unusual spellings build a parser

    class OneValue(argparse.Action):
        """Store one value; argparse drops a ``--flag=--`` value, leaving [],
        past ``type`` and ``choices``, and that is refused here."""

        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:
                raise argparse.ArgumentError(self, "expected one argument")
            setattr(namespace, self.dest, values)

    parser = argparse.ArgumentParser(
        prog="gramkernel",
        description="Exact reproducing-kernel tables over the classical weighted domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options, defaults) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, spec in options:
            p.add_argument(flag, **{"action": OneValue, **spec})
        p.set_defaults(func=globals()[func], **defaults)
    return parser


def _read(argv: list[str]) -> SimpleNamespace | None:
    """``build_parser().parse_args(argv)`` without ``command``, for an argv
    of a subcommand and its flags, each spelled in full and given at most
    once as ``--flag value`` or ``--flag=value``, with every value valid and
    every required flag given.  None for the rest, which argparse reads."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, func, options, defaults = _SUBCOMMANDS[argv[0]]
    specs, given = dict(options), {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        spec = specs.get(flag)
        if spec is None or flag in given or eq and "action" in spec:
            return None
        if "action" in spec:  # store_true, which takes no value
            given[flag] = True
            continue
        if not eq:
            value = next(tokens, "-")  # a missing value reads as "-"
        # argparse may read a spaced "-..." as a flag, and drops a "--" value
        if value == "--" or not eq and value.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(value)
        except Exception:  # argparse reports what a type refuses
            return None
        if value not in spec.get("choices", (value,)):
            return None
        given[flag] = value
    namespace = {"func": globals()[func], **defaults}
    for flag, spec in options:
        if flag not in given and spec.get("required"):
            return None
        default = spec.get("default")
        if isinstance(default, str):  # as argparse, through the type
            default = spec.get("type", str)(default)
        namespace[flag[2:].replace("-", "_")] = given.get(flag, default)
    return SimpleNamespace(**namespace)


def _parse(argv: list[str]):
    """``build_parser().parse_args(argv)``, from the option table when ``_read`` can."""
    return _read(argv) or build_parser().parse_args(argv)


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
