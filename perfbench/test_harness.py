"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench

It checks that every metric named in BENCHMARK.json is emitted with its
unit, that each correctness gate fires on a corrupted copy of the output it
checks, that the trace accounting catches double-counted time, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = workloads.SIZES["tiny"]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "paper_scans", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_counts_repeat_for_a_seed_whatever_the_budget():
    lines = []
    for seconds in ("0.5", "3"):
        proc = _bench("--workload", "random_pairs", "--seed", "4", "--seconds", seconds,
                      "--trace", "0", "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        lines.append(json.loads(proc.stdout.splitlines()[-1]))
    assert lines[0]["failed"] > 0
    assert [(x["attempted"], x["failed"]) for x in lines] == [(24, lines[0]["failed"])] * 2


def _pass(name, tmp_path, seed=5, pick=lambda chunk: True):
    wl = workloads.WORKLOADS[name]
    inputs = next(c for c in wl.inputs(np.random.default_rng(seed), TINY) if pick(c))
    outputs = wl.run(inputs, str(tmp_path))
    clean = wl.check(inputs, outputs, str(tmp_path))
    assert clean.wrong == 0 and clean.attempted > 0
    return wl, inputs, outputs, clean


def _edit_csv(path, row, col, edit):
    lines = Path(path).read_text().split("\n")
    cells = lines[row].split(",")
    cells[col] = edit(cells[col])
    lines[row] = ",".join(cells)
    Path(path).write_text("\n".join(lines))


def _perturbed(cell, delta=1e-8):
    return repr(float(cell) + delta)


@pytest.mark.parametrize("kind,col", [("chsh", 1), ("chsh", 2), ("wigner", 2)])
def test_paper_scans_gate_catches_one_perturbed_value(tmp_path, kind, col):
    wl, inputs, outputs, clean = _pass(
        "paper_scans", tmp_path,
        pick=lambda c: c[0]["kind"] == kind and (kind == "wigner" or c[0]["state"] == "00"))
    scan, = inputs
    _edit_csv(tmp_path / scan["out"], 2, col, _perturbed)
    bad = wl.check(inputs, outputs, str(tmp_path))
    assert bad.wrong == 1 and bad.failed == 1
    assert bad.fingerprint != clean.fingerprint


def test_paper_scans_gate_catches_a_missing_row(tmp_path):
    wl, inputs, outputs, _ = _pass("paper_scans", tmp_path)
    path = tmp_path / inputs[0]["out"]
    lines = path.read_text().split("\n")
    path.write_text("\n".join(lines[:-2] + [""]))
    assert wl.check(inputs, outputs, str(tmp_path)).wrong > 0


@pytest.mark.parametrize("value", ["2.9", "1.5"])  # above Tsirelson; below the fixed curve
def test_optimal_scan_gate_catches_impossible_values(tmp_path, value):
    wl, inputs, outputs, _ = _pass("optimal_scan", tmp_path)
    _edit_csv(tmp_path / inputs["out"], 1, 1, lambda _: value)
    assert wl.check(inputs, outputs, str(tmp_path)).wrong == 1


@pytest.mark.parametrize("edit", [
    lambda line: line.replace(" PASS", " FAIL"),
    lambda line: re.sub(r"max_residual=\S+", "max_residual=1.000e-10", line),  # > tol
])
def test_verify_gate_catches_a_failing_check(tmp_path, edit):
    wl, inputs, outputs, _ = _pass("verify", tmp_path)
    (code, stdout), = outputs
    lines = stdout.split("\n")
    k = next(i for i, line in enumerate(lines) if line.startswith("check tensor_product"))
    lines[k] = edit(lines[k])
    bad = wl.check(inputs, [(code, "\n".join(lines))], str(tmp_path))
    assert bad.wrong == 1


def test_verify_gate_catches_a_missing_check(tmp_path):
    wl, inputs, outputs, _ = _pass("verify", tmp_path)
    (code, stdout), = outputs
    stdout = "\n".join(line for line in stdout.split("\n")
                       if not line.startswith("check chsh_curves"))
    assert wl.check(inputs, [(code, stdout)], str(tmp_path)).wrong > 0


@pytest.mark.parametrize("corrupt", [
    lambda once, twice, value: (once * (1 + 1e-9), twice, value),
    lambda once, twice, value: (once, twice, 2.0 * math.sqrt(2.0) + 1e-9),
])
def test_random_pairs_gate_catches_a_corrupted_item(tmp_path, corrupt):
    wl, inputs, outputs, clean = _pass("random_pairs", tmp_path)
    k = next(i for i, res in enumerate(outputs) if not isinstance(res, Exception))
    outputs = list(outputs)
    outputs[k] = corrupt(*outputs[k])
    bad = wl.check(inputs, outputs, str(tmp_path))
    assert bad.wrong == 1 and bad.failed == clean.failed + 1


def test_random_pairs_counts_raised_items_by_type(tmp_path):
    wl, inputs, outputs, clean = _pass("random_pairs", tmp_path)
    k = next(i for i, res in enumerate(outputs) if not isinstance(res, Exception))
    outputs = list(outputs)
    outputs[k] = ValueError("injected")
    bad = wl.check(inputs, outputs, str(tmp_path))
    assert bad.wrong == 0
    assert bad.errors["ValueError"] == clean.errors["ValueError"] + 1
    assert any(ex["error"] == "injected" for ex in bad.examples["ValueError"]) or \
        len(bad.examples["ValueError"]) == workloads.EXAMPLES_PER_TYPE


def test_trace_accounting_catches_double_counted_time():
    tr = tracer.Tracer()
    key = ("bell", "f")
    tr.spans[:] = [(key, -1, 0.0, 10.0, False),
                   (("wigner", "g"), 0, 1.0, 4.0, False),
                   (("wigner", "g"), 0, 1.0, 4.0, False)]  # the same call recorded twice
    layer = tracer.aggregate(tr, 10.0, [])
    assert layer["trace.accounting_error_s"] == pytest.approx(3.0)
    tr.spans[:] = tr.spans[:2]
    layer = tracer.aggregate(tr, 12.0, [])
    assert layer["trace.accounting_error_s"] == 0.0
    assert layer["bench.self_s"] == pytest.approx(2.0)
    assert layer["bell.self_s"] == pytest.approx(7.0)
    assert layer["wigner.us_per_call_p50"] == pytest.approx(3e6)
