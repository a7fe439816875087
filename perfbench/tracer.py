"""Span tracing of relbell's layers, installed from outside the package.

A layer is one module of ``relbell``.  ``install`` replaces each layer's
public functions with a wrapper that records a span (name, start, end,
parent, raised) per call.  It rebinds every name that points at a wrapped
function: the module attribute itself and the copies that other modules
took with ``from ... import``.  Dataclasses are traced through their
``__post_init__`` (the validation that dominates their construction), their
public methods and their classmethods.  Three kinds of callable stay
unwrapped because wrapping them would change behaviour or is not possible
from outside: properties, the generated dataclass ``__init__`` and private
helpers (``_observable_vector``, ``_half_angle_parts``, ...).  Their time
stays in the caller's self time.

Spans are kept in memory and aggregated (and optionally written out) only
after the traced pass, so the cost inside the pass is one list append and
two clock reads per call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import time

LAYERS = ("linalg", "kinematics", "wigner", "bell", "observables",
          "optimizer", "verify", "cli")

TSIRELSON = 2.0 * math.sqrt(2.0)


class Tracer:
    """Records spans of wrapped calls; single-threaded by design.

    A span is a tuple ((layer, name), parent index or -1, start, end, raised).
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.optimizer_results = []
        self.check_results = []

    def wrap(self, fn, layer: str, name: str, on_result=None):
        spans, stack = self.spans, self.stack
        key = (layer, name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (key, parent, t0, t1, raised)
            if on_result is not None:
                on_result(result)
            return result

        return traced


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def _dataclasses(module):
    for obj in vars(module).values():
        if (inspect.isclass(obj) and obj.__module__ == module.__name__
                and hasattr(obj, "__dataclass_fields__")):
            yield obj


def install(tracer: Tracer, package) -> None:
    """Wrap every layer of ``package`` in place; there is no uninstall."""
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
               for layer in LAYERS}
    replaced = {}
    hooks = {
        ("optimizer", "maximize_chsh"): tracer.optimizer_results.append,
    }
    for layer, module in modules.items():
        for name, fn in list(_public_functions(module)):
            hook = hooks.get((layer, name))
            if layer == "verify" and name.startswith("check_"):
                hook = tracer.check_results.append
                label = "check." + name[len("check_"):]
            else:
                label = name
            replaced[fn] = tracer.wrap(fn, layer, label, hook)
        for cls in _dataclasses(module):
            for name, attr in list(vars(cls).items()):
                label = f"{cls.__name__}.{name}"
                public = not name.startswith("_")
                if name == "__post_init__" or (inspect.isfunction(attr) and public):
                    setattr(cls, name, tracer.wrap(attr, layer, label))
                elif isinstance(attr, classmethod) and public:
                    setattr(cls, name, classmethod(tracer.wrap(attr.__func__, layer, label)))
    # run_checks binds ALL_CHECKS as a default argument at definition time
    verify = modules["verify"]
    checks = tuple(replaced.get(c, c) for c in verify.ALL_CHECKS)
    verify.ALL_CHECKS = checks
    verify.run_checks.__defaults__ = (checks,)
    for module in (package, *modules.values()):
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(module, name, replaced[obj])


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def aggregate(tracer: Tracer, wall_s: float, check_names) -> dict:
    """Per-layer metrics of one traced pass of wall time ``wall_s``.

    Self time is a span's duration minus the union of its children's
    intervals.  The benchmark's own time (``bench.self_s``) is the wall time
    minus the union of the root spans.  ``accounting_error_s`` is how far
    the layer self times plus the benchmark's own time miss the wall time;
    with properly nested spans and no double counting it is rounding only.
    """
    spans = tracer.spans
    children = [[] for _ in spans]
    roots = []
    for _, parent, s, e, _ in spans:
        (children[parent] if parent >= 0 else roots).append((s, e))
    stats = {layer: {"calls": 0, "self_s": 0.0, "entry_us": [], "failures": 0}
             for layer in LAYERS}
    check_s = {name: 0.0 for name in check_names}
    min_self = 0.0
    for i, ((layer, name), parent, s, e, raised) in enumerate(spans):
        st = stats[layer]
        covered = _union_length([(max(a, s), min(b, e)) for a, b in children[i]
                                 if a < e and b > s])
        self_s = (e - s) - covered
        min_self = min(min_self, self_s)
        st["calls"] += 1
        st["self_s"] += self_s
        if parent < 0 or spans[parent][0][0] != layer:
            st["entry_us"].append((e - s) * 1e6)
            st["failures"] += raised
        if name.startswith("check."):
            check = name[len("check."):]
            check_s[check] = check_s.get(check, 0.0) + (e - s)
    bench_self = wall_s - _union_length(roots)
    layer_self = sum(st["self_s"] for st in stats.values())
    out = {}
    for layer, st in stats.items():
        out[f"{layer}.calls"] = st["calls"]
        out[f"{layer}.self_s"] = st["self_s"]
        out[f"{layer}.us_per_call_p50"] = (statistics.median(st["entry_us"])
                                           if st["entry_us"] else 0.0)
        out[f"{layer}.failures"] = st["failures"]
    for name, secs in check_s.items():
        out[f"verify.check_s.{name}"] = secs
    opt = tracer.optimizer_results
    out["optimizer.iterations"] = sum(r.iterations for r in opt)
    out["optimizer.converged_ratio"] = (sum(r.converged for r in opt) / len(opt)) if opt else 0.0
    out["optimizer.bound_gap_max"] = max((TSIRELSON - r.value for r in opt), default=0.0)
    ratios = [r.residual / r.tolerance for r in tracer.check_results if r.tolerance > 0]
    out["verify.residual_ratio_max"] = max(ratios, default=0.0)
    out["bench.self_s"] = bench_self
    out["trace.spans"] = len(spans)
    out["trace.accounting_error_s"] = abs(layer_self + bench_self - wall_s)
    out["trace.min_self_s"] = min_self
    return out


def write_spans(tracer: Tracer, path) -> None:
    """Write spans as TSV: index, parent, layer, name, start_us, end_us, raised."""
    if not tracer.spans:
        return
    t_origin = tracer.spans[0][2]
    with open(path, "w") as fh:
        fh.write("index\tparent\tlayer\tname\tstart_us\tend_us\traised\n")
        for i, ((layer, name), parent, s, e, raised) in enumerate(tracer.spans):
            fh.write(f"{i}\t{parent}\t{layer}\t{name}\t{(s - t_origin) * 1e6:.3f}"
                     f"\t{(e - t_origin) * 1e6:.3f}\t{int(raised)}\n")
