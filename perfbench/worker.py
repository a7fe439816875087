"""Child process of ``run.py``: one workload's timed passes, gates and trace.

Run by ``run.py`` with relbell's ``src`` on PYTHONPATH and numpy's thread
pools pinned to one thread; it writes its result as JSON to ``--result``.
A workload's input is split into chunks, and one pass runs every chunk
once.  Chunks run round-robin: the first pass always runs; after it, the
next chunk starts only while its median time still fits in the budget.
``run_s`` is the sum over chunks of each chunk's median time, the time of
one pass with bursts of contention filtered out chunk by chunk.  After
every run of a chunk the worker also times ``reference_kernel``, a fixed
amount of numpy work that does not touch relbell, for about a quarter of
the chunk's time.  ``run_rel`` is ``run_s`` divided by the kernel's median
time over the same run: one pass in kernel units.  The ratio cancels the
drift of a shared machine's speed, which moves both alike.
Correctness figures, ``attempted`` and ``failed`` come from the first pass,
so they repeat exactly for a seed; every later run of a chunk must
reproduce its first outputs.  With ``--trace 1`` half the budget is spent
untraced, then one more pass runs with every layer wrapped (see
``tracer.py``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter

import numpy as np

import relbell
import scipy
from relbell import verify

import tracer
import workloads


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


#: the reference kernel runs after a chunk for at least this share of its time
REF_SHARE = 0.25

_REF_RNG = np.random.default_rng(0)
_REF_MATRICES = [_REF_RNG.normal(size=(2, 2)) + 1j * _REF_RNG.normal(size=(2, 2))
                 for _ in range(64)]
_REF_VECTORS = [_REF_RNG.normal(size=3) for _ in range(64)]


def reference_kernel(n: int = 200) -> float:
    """Fixed small-array numpy and float work, independent of relbell.

    It has the same character as relbell's hot paths (2x2 and 4x4 complex
    products, norms, Python float math), so when a shared host slows the
    process down, this kernel slows down by about the same share.
    """
    acc = 0.0
    for k in range(n):
        a, b = _REF_MATRICES[k % 64], _REF_MATRICES[(7 * k) % 64]
        m = np.kron(a @ b, a.conj().T)
        v = _REF_VECTORS[k % 64]
        acc += float(np.linalg.norm(v)) + math.sqrt(abs(complex(np.trace(m))))
        acc += float(np.vdot(v, v).real)
    return acc


def _timed_reference(min_s: float) -> float:
    """Seconds per ``reference_kernel`` call, over calls lasting at least ``min_s``."""
    calls = 0
    t0 = time.perf_counter()
    while True:
        reference_kernel()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_s:
            return elapsed / calls


def _passes(wl, chunks, workdir, budget_s):
    """Run the chunks round-robin, untraced, each followed by the reference kernel.

    Returns each chunk's times and outcomes, and the kernel's times.
    """
    times = [[] for _ in chunks]
    outcomes = [[] for _ in chunks]
    ref_times = []
    start = time.perf_counter()
    for n in itertools.count():
        c = n % len(chunks)
        if n >= len(chunks) and (time.perf_counter() - start
                                 + statistics.median(times[c]) > budget_s):
            break
        t0 = time.perf_counter()
        outputs = wl.run(chunks[c], workdir)
        times[c].append(time.perf_counter() - t0)
        outcomes[c].append(wl.check(chunks[c], outputs, workdir))
        ref_times.append(_timed_reference(REF_SHARE * times[c][-1]))
    return times, outcomes, ref_times


def _merge_notes(notes) -> dict:
    """The chunks' notes of the first pass: counts summed, other values listed."""
    merged = {}
    for note in notes:
        for key, value in note.items():
            if isinstance(value, dict):
                merged[key] = dict(Counter(merged.get(key, {})) + Counter(value))
            elif isinstance(value, int):
                merged[key] = merged.get(key, 0) + value
            else:
                merged.setdefault(key, []).append(value)
    return merged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    chunks = wl.inputs(np.random.default_rng(args.seed), workloads.SIZES[args.size])
    budget = args.seconds / 2 if args.trace else args.seconds
    times, outcomes, ref_times = _passes(wl, chunks, args.workdir, budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = [o[0] for o in outcomes]
    attempted = sum(o.attempted for o in first)
    failed = sum(o.failed for o in first)
    errors = sum((o.errors for o in first), Counter())
    examples = {}
    for o in first:
        for kind, kept in o.examples.items():
            examples[kind] = (examples.get(kind, []) + kept)[:workloads.EXAMPLES_PER_TYPE]
    gates = {
        "outputs correct": all(o.wrong == 0 for runs in outcomes for o in runs),
        "no item failed": getattr(wl, "raises_allowed", False) or failed == 0,
        "repeated passes identical": all(o.fingerprint == runs[0].fingerprint
                                         for runs in outcomes for o in runs),
    }
    run_s = sum(statistics.median(t) for t in times)
    quartiles = [_quartiles(t) for t in times]
    ref_s = statistics.median(ref_times)
    metrics = {
        "run_s": (run_s, "s"),
        "run_rel": (run_s / ref_s, "1"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ratio": ((attempted - failed) / attempted if attempted else 0.0, "1"),
    }
    summary = {
        "run_s": {"median": run_s, "q1": sum(q[0] for q in quartiles),
                  "q3": sum(q[1] for q in quartiles), "chunks": len(chunks),
                  "n": min(len(t) for t in times), "runs": sum(len(t) for t in times)},
        "reference_kernel_s": {"median": ref_s, "q1": _quartiles(ref_times)[0],
                               "q3": _quartiles(ref_times)[1], "n": len(ref_times)},
        "fail_ratio": failed / attempted if attempted else 1.0,
        "max_residual": max(o.residual for o in first),
        "items_per_pass": attempted,
        "failures_by_type": dict(errors),
        "failing_inputs": examples,
        "notes": _merge_notes([o.notes for o in first]),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "relbell": relbell.__version__},
    }

    if args.trace:
        tr = tracer.Tracer()
        check_names = [c.__name__[len("check_"):] for c in verify.ALL_CHECKS]
        tracer.install(tr, relbell)
        t0 = time.perf_counter()
        traced_outputs = [wl.run(chunk, args.workdir) for chunk in chunks]
        traced_s = time.perf_counter() - t0
        traced = [wl.check(chunk, out, args.workdir)
                  for chunk, out in zip(chunks, traced_outputs)]
        layer = tracer.aggregate(tr, traced_s, check_names)
        if args.spans:
            tracer.write_spans(tr, args.spans)
        gates["traced pass identical"] = all(t.fingerprint == o.fingerprint
                                             for t, o in zip(traced, first))
        gates["trace self times add up"] = (
            layer["trace.accounting_error_s"] <= 1e-6 * traced_s + 1e-9
            and layer["trace.min_self_s"] >= -1e-9)
        units = {"calls": "count", "self_s": "s", "us_per_call_p50": "us",
                 "failures": "count", "iterations": "count", "converged_ratio": "1",
                 "bound_gap_max": "1", "residual_ratio_max": "1"}
        for name, value in layer.items():
            unit = "s" if ".check_s." in name else units.get(name.split(".")[-1], "1")
            metrics[name] = (value, unit)
        metrics["cli.bytes_out"] = (sum(t.bytes_out for t in traced), "bytes")
        metrics["trace.overhead_ratio"] = (traced_s / run_s, "1")
        summary["trace"] = {"traced_s": traced_s, "spans": layer["trace.spans"],
                            "accounting_error_s": layer["trace.accounting_error_s"]}

    result = {
        "correct": all(gates.values()),
        "gates": gates,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "summary": summary,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
