"""Per-layer spans, recorded from outside the program.

``install`` wraps the public functions of each ``gramkernel`` module listed
in ``LAYERS`` and rebinds every module-level reference to them, so calls
between modules pass through the wrappers.  A span is
``[layer, function, parent span index, start, end]``, held in memory for
the whole job.  Times are CPU seconds of the job process, the same clock
as job time.  ``summary`` turns the spans of one job into self times (a
span minus its child spans), call counts and distinct-argument counts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer -> (module, public functions).  Self time of a layer is the time
# inside these functions minus the time in spans of other layers they call.
# Functions that a module keeps references to by identity (such as the
# check_* functions in gramkernel.checks) are left unwrapped on purpose.
LAYERS = {
    "families": ("families", ("coeff_matrix", "norm_vector", "monomial_moment", "family_by_name")),
    "kernelbuild.build_kernel": ("kernelbuild", ("build_kernel",)),
    "oracle.gram_from_moments": ("oracle", ("gram_from_moments",)),
    "oracle.invert": ("oracle", ("invert_exact", "bareiss_inverse", "leading_principal_minors")),
    "approx.error_variance": ("approx", ("error_variance",)),
    "approx.function_moments": ("approx", ("function_moments",)),
    "approx.project": ("approx", ("project",)),
    "approx.eval_polynomial": ("approx", ("eval_polynomial",)),
    "approx.target_value": ("approx", ("target_value",)),
    "approx.other": ("approx", ("taylor_comparator", "taylor_polynomial",
                                "monomial_moment_vector", "target_by_name")),
    "exactscalar.render": ("exactscalar", ("eval_pilaurent", "decimal_str",
                                           "mpf_decimal_str", "to_bigfloat")),
    "conditioning": ("conditioning", ("condition_table", "condition_number", "inf_norm")),
    "checks": ("checks", ("run_checks",)),
}

# Layers whose calls are keyed by argument, to count distinct work per call.
KEYED = ("kernelbuild.build_kernel", "oracle.invert", "exactscalar.render")


class Recorder:
    """Spans of one job.  ``kept`` maps a span index to (args, result) for
    the keyed layers; keys and bit lengths are computed after the job."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack = [-1]
        self.kept: dict[int, tuple] = {}

    def wrap(self, layer: str, name: str, fn):
        spans, stack, kept, clock = self.spans, self.stack, self.kept, time.process_time
        keep = layer in KEYED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, name, stack[-1], 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if keep:
                kept[idx] = (args, result)
            return result

        return traced


def install() -> Recorder:
    """Wrap every function in LAYERS and rebind all references to it.

    A module or function of LAYERS that the program lacks is an error, so
    that a renamed layer cannot read as a layer that takes no time.
    """
    rec = Recorder()
    wrappers = {}
    for layer, (module, names) in LAYERS.items():
        mod = importlib.import_module(f"gramkernel.{module}")
        for name in names:
            fn = getattr(mod, name, None)
            if fn is None:
                raise LookupError(f"gramkernel.{module} has no {name}; update spans.LAYERS")
            wrappers[id(fn)] = (fn, rec.wrap(layer, name, fn))
    for modname, mod in list(sys.modules.items()):
        if modname == "gramkernel" or modname.startswith("gramkernel."):
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
    return rec


def _key(name: str, args: tuple):
    if name == "build_kernel":
        return (args[0].name, args[1])
    if name == "invert_exact":
        return (name, args[0].family.name, args[0].n)
    if name in ("bareiss_inverse", "leading_principal_minors"):
        return (name, args[0])
    return (name,) + tuple(args)


def _max_bits(kernel) -> int:
    return max(q.numerator.bit_length() + q.denominator.bit_length()
               for row in kernel.entries for q in row)


def summary(rec: Recorder, job_seconds: float) -> dict:
    """Per-layer self time, outermost calls and distinct keys of one job.

    A call counts once per entry into a layer from outside it, so a
    function calling another of its own layer is one call.
    """
    spans = rec.spans
    child_time = [0.0] * len(spans)
    top_time = 0.0
    for layer, _, parent, t0, t1 in spans:
        if parent < 0:
            top_time += t1 - t0
        else:
            child_time[parent] += t1 - t0
    out = {layer: {"self_s": 0.0, "calls": 0, "distinct": 0} for layer in LAYERS}
    keys: dict[str, set] = {layer: set() for layer in KEYED}
    max_bits = 0
    for idx, (layer, name, parent, t0, t1) in enumerate(spans):
        entry = out[layer]
        entry["self_s"] += (t1 - t0) - child_time[idx]
        if parent < 0 or spans[parent][0] != layer:
            entry["calls"] += 1
            if layer in keys:
                keys[layer].add(_key(name, rec.kept[idx][0]))
        if name == "build_kernel":
            max_bits = max(max_bits, _max_bits(rec.kept[idx][1]))
    for layer, seen in keys.items():
        out[layer]["distinct"] = len(seen)
    out["cli"] = {"self_s": job_seconds - top_time, "calls": 1, "distinct": 1}
    return {"layers": out, "max_bits": max_bits}
