"""relbell benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_scans --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  The line before it is a summary record with the wall
time of a pass (run_s) and its quartiles, pass counts, fail_ratio,
max_residual, failures by type and provenance.
See perfbench/README.md for what each workload and metric means.

The benchmark imports relbell from ``src/`` (it need not be installed).
All child interpreters get numpy's thread pools pinned to one thread.
Exits 2 without a result when ``src/relbell`` or BENCHMARK.json is missing,
1 when a child fails or a metric is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_scans", "optimal_scan", "verify", "random_pairs")

THREAD_PINNING = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: modules whose cumulative import time is reported as setup.import_s.<module>
IMPORT_MODULES = ("relbell", "relbell.optimizer", "relbell.verify",
                  "scipy.optimize", "scipy.linalg", "numpy")

_SETUP_SNIPPET = ("import time; t0 = time.perf_counter(); import relbell; "
                  "print(repr(time.perf_counter() - t0))")

CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """A failure of the benchmark itself; no result is printed."""


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINNING)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(workdir)
    return env


def _run(cmd, env, timeout):
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{cmd[1:3]} timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def measure_setup(env, samples: int) -> list:
    """Seconds of ``import relbell`` in fresh interpreters, after one untimed warm-up."""
    cmd = [sys.executable, "-c", _SETUP_SNIPPET]
    _run(cmd, env, 60)  # compiles bytecode on a fresh checkout
    return [float(_run(cmd, env, 60).stdout.strip()) for _ in range(samples)]


def import_breakdown(env, samples: int) -> dict:
    """Median cumulative import seconds per module from ``python -X importtime``.

    ``import relbell`` does not load ``relbell.verify``; the CLI entry point
    does, so the breakdown imports ``relbell.cli`` after ``relbell``.
    """
    seen = {m: [] for m in IMPORT_MODULES}
    for _ in range(samples):
        err = _run([sys.executable, "-X", "importtime", "-c", "import relbell, relbell.cli"],
                   env, 60).stderr
        found = set()
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = (part.strip() for part in line.split("|"))
            if name in seen and name not in found and cumulative.isdigit():
                seen[name].append(int(cumulative) * 1e-6)
                found.add(name)
    missing = [m for m, v in seen.items() if len(v) != samples]
    if missing:
        raise BenchError(f"-X importtime did not report {missing}")
    return {m: statistics.median(v) for m, v in seen.items()}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance(args, versions) -> dict:
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "relbell": versions.get("relbell"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "child_env": THREAD_PINNING,
    }


def bench(args) -> tuple:
    """Run one benchmark invocation; return (summary record, final result line)."""
    if not (ROOT / "src" / "relbell" / "__init__.py").is_file():
        raise FileNotFoundError(f"relbell sources not found under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env = child_env(workdir)
        small = args.size == "tiny"
        setup = measure_setup(env, 1 if small else 7)
        imports = import_breakdown(env, 1 if small else 3) if args.trace else {}
        result_path = workdir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size,
               "--workdir", str(workdir), "--result", str(result_path)]
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            cmd += ["--spans", str(out_dir / f"spans-{args.workload}.tsv")]
        proc = _run(cmd, env, CHILD_TIMEOUT_S)
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()

    metrics = result["metrics"]
    metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    for module, secs in imports.items():
        metrics[f"setup.import_s.{module}"] = {"value": secs, "unit": "s"}
    chosen = {}
    for m in wanted:
        if m["name"] not in metrics:
            raise BenchError(f"metric {m['name']} was not measured")
        if metrics[m["name"]]["unit"] != m["unit"]:
            raise BenchError(f"metric {m['name']} has unit {metrics[m['name']]['unit']}, "
                             f"BENCHMARK.json says {m['unit']}")
        chosen[m["name"]] = metrics[m["name"]]

    summary = dict(result["summary"])
    summary["setup_s"] = {"median": statistics.median(setup), "samples": setup, "n": len(setup)}
    summary["gates"] = result["gates"]
    summary["provenance"] = provenance(args, summary.pop("versions"))
    if proc.stdout.strip():
        summary["worker_stdout"] = proc.stdout[-2000:]
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": chosen}
    return summary, line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time budget of the measured passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced pass")
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: minimal inputs, for the harness self-test")
    args = ap.parse_args(argv)
    try:
        summary, line = bench(args)
    except (FileNotFoundError, BenchError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, FileNotFoundError) else 1
    for name, m in line["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} run_s = {summary['run_s']['median']:.6g} s (wall), "
          f"fail_ratio = {summary['fail_ratio']:.6g} 1, "
          f"max_residual = {summary['max_residual']:.6g} 1, correct = {line['correct']}")
    print("summary " + json.dumps(summary, default=str))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
