"""Output checks: is one job's printed output right?

Each check parses what the CLI printed and compares it against
``refmath`` (values computed apart from the program) or against
properties the method guarantees.  None compares against a stored copy of
earlier output.  ``check(argv, code, text)`` returns None when the output
is right and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import re
from decimal import Decimal
from fractions import Fraction

from mpmath import mp, mpf

import refmath as ref

_TERM = re.compile(r"\s*(-|\+ |- )?(\d+(?:/\d+)?)(?:\*pi(?:\^(-?\d+))?)?")


def options(argv: list[str]) -> dict[str, str | bool]:
    """``--name value`` pairs (flags map to True) of a job's argv."""
    out: dict[str, str | bool] = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if "=" in key:
            key, value = key.split("=", 1)
            out[key] = value
            i += 1
        elif i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[key] = argv[i + 1]
            i += 2
        else:
            out[key] = True
            i += 1
    return out


def parse_pi_laurent(text: str) -> dict[int, Fraction]:
    """'-12*pi^-3 + 2*pi^-1' -> {-3: -12, -1: 2}; plain rationals -> {0: q}."""
    terms: dict[int, Fraction] = {}
    pos = 0
    while pos < len(text):
        match = _TERM.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError(f"not a pi-Laurent sum: {text!r}")
        sign, q, exp = match.groups()
        m = 0 if "pi" not in match.group(0) else int(exp) if exp else 1
        if m in terms:
            raise ValueError(f"repeated pi exponent in {text!r}")
        terms[m] = -Fraction(q) if sign and "-" in sign else Fraction(q)
        pos = match.end()
    return terms


def laurent_value(terms: dict[int, Fraction]) -> mpf:
    pi = +mp.pi
    return sum((ref.to_mpf(q) * pi**m for m, q in terms.items()), mpf(0))


def check(argv: list[str], code: int, text: str) -> str | None:
    opts = options(argv)
    want_code = 1 if opts.get("inject-corruption") else 0
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    try:
        return CHECKS[argv[0]](opts, text)
    except (ValueError, KeyError, TypeError, IndexError, ArithmeticError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"


def _kernel(opts, text):
    doc = json.loads(text)
    family, n = opts["family"], int(opts["size"])
    grade = -1 if ref.FAMILIES[family][0] == "hermite" else 0
    if (doc["family"], doc["size"], doc["grade"]) != (family, n, grade):
        return f"header {doc['family']}/{doc['size']}/{doc['grade']}"
    b = [[Fraction(x) for x in row] for row in doc["data"]]
    if len(b) != n or any(len(row) != n for row in b):
        return "kernel is not n x n"
    if not ref.gram_identity_holds(family, b):
        return "G * B != I"
    return None


def _cond(opts, text):
    doc = json.loads(text)
    family, top = opts["family"], int(opts["max-size"])
    if doc["family"] != family or doc["sizes"] != list(range(1, top + 1)):
        return "wrong family or sizes"
    for row in doc["data"]:
        kappa = ref.kappa(family, row["size"])
        if Fraction(row["kappa_exact"]) != kappa:
            return f"size {row['size']}: exact kappa differs"
        if not ref.decimal_ok(row["kappa_decimal"], kappa):
            return f"size {row['size']}: kappa decimal {row['kappa_decimal']} not correctly rounded"
    return None


def _variance(opts, text):
    doc = json.loads(text)
    target, top = opts["target"], int(opts["max-size"])
    if doc["target"] != target or doc["sizes"] != list(range(1, top + 1)):
        return "wrong target or sizes"
    previous = None
    with mp.workprec(ref.REF_BITS):
        for row in doc["data"]:
            n = row["size"]
            want_est = ref.estimate_variance(target, n)
            want_tay = ref.error_variance(target, ref.taylor_coefficients(target, n))
            if target == "exp-neg" and (Fraction(row["estimate_exact"]) != want_est
                                        or Fraction(row["taylor_exact"]) != want_tay):
                return f"size {n}: exact variance differs"
            for col, want in (("estimate", want_est), ("taylor", want_tay)):
                if not ref.decimal_ok(row[col], want):
                    return f"size {n}: {col} variance {row[col]} is not {mp.nstr(ref.to_mpf(want), 20)}"
            est = Decimal(row["estimate"])
            if est <= 0 or Decimal(row["taylor"]) <= 0:
                return f"size {n}: variance not positive"
            if previous is not None and est > previous:
                return f"size {n}: estimate variance rises"
            previous = est
    return None


def _project(opts, text):
    doc = json.loads(text)
    target, n = opts["target"], int(opts["size"])
    family = ref.TARGET_FAMILY[target]
    taylor = ref.exact_taylor_terms(target, n)
    powers = sorted({ref.power(family, k) for k in range(max(n, len(taylor)))})
    if doc["target"] != target or doc["size"] != n or [r["power"] for r in doc["data"]] != powers:
        return "wrong target, size or powers"
    est = [parse_pi_laurent(r["estimate"]) for r in doc["data"][:n]]
    if any(r["estimate"] is not None for r in doc["data"][n:]):
        return "estimate has too many coefficients"
    if [parse_pi_laurent(r["taylor"]) for r in doc["data"][:len(taylor)]] != taylor:
        return "Taylor coefficients differ"
    # the estimate must solve the normal equations G c = m
    g = ref.gram(family, n)
    if target == "exp-neg":
        c = [t.get(0, Fraction(0)) for t in est]
        if any(len(t) > 1 or (t and 0 not in t) for t in est):
            return "exp-neg estimate is not rational"
        m = ref.target_moments(target, n)
        if any(sum(g[i][j] * c[j] for j in range(n)) != m[i] for i in range(n)):
            return "estimate does not solve G c = m"
        return None
    with mp.workprec(ref.REF_BITS):
        c = [laurent_value(t) for t in est]
        m = ref.target_moments(target, n)
        for i in range(n):
            resid = sum((g[i][j] * c[j] for j in range(n)), mpf(0)) - m[i]
            if abs(resid) > mpf(2) ** (-ref.REF_BITS // 2):
                return f"estimate does not solve G c = m (row {i + 1}: {mp.nstr(resid, 3)})"
    return None


def _plotdata(opts, text):
    target, n = opts["target"], int(opts["size"])
    samples = int(opts.get("samples", 512))
    xmin, xmax = Fraction(opts.get("xmin", "0")), Fraction(opts.get("xmax", "10"))
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["x", "f", "estimate", "taylor"] or len(rows) != samples + 1:
        return "wrong header or row count"
    step = (xmax - xmin) / (samples - 1)
    with mp.workprec(ref.REF_BITS):
        est = ref.projection(target, n)
        tay = ref.taylor_coefficients(target, n)
        for i, row in enumerate(rows[1:]):
            x = xmin + i * step
            wants = (x, ref.target_value(target, x), ref.poly_value(target, est, x),
                     ref.poly_value(target, tay, x))
            for col, shown, want in zip(rows[0], row, wants):
                if not ref.decimal_ok(shown, want):
                    return f"x={x}: {col} {shown} is not {mp.nstr(ref.to_mpf(want), 20)}"
    return None


def _verify(opts, text):
    doc = json.loads(text)
    top = int(opts["max-size"])
    by_cell: dict[tuple[str, int], set[str]] = {}
    failed = set()
    for r in doc["data"]:
        by_cell.setdefault((r["family"], r["size"]), set()).add(r["check"])
        if not r["passed"]:
            failed.add(r["check"])
    cells = {(f, s) for f in ref.FAMILIES for s in range(1, top + 1)}
    names = set.union(*by_cell.values()) if by_cell else set()
    if set(by_cell) != cells or any(v != names for v in by_cell.values()):
        return "checks do not cover every family and size alike"
    if doc["failed"] + doc["passed"] != len(doc["data"]) or "oracle-equivalence" not in names:
        return "inconsistent counts"
    if opts.get("inject-corruption"):
        bad = [r for r in doc["data"] if not r["passed"]]
        every = [r for r in doc["data"] if r["check"] == "oracle-equivalence"]
        if failed != {"oracle-equivalence"} or len(bad) != len(every):
            return f"negative control: failing checks are {sorted(failed)}"
    elif failed:
        return f"checks failed: {sorted(failed)}"
    return None


CHECKS = {
    "kernel": _kernel,
    "cond": _cond,
    "variance": _variance,
    "project": _project,
    "plotdata": _plotdata,
    "verify": _verify,
}
