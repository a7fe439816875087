"""The package namespace: what ``import relbell`` loads and which names it binds.

``import relbell`` loads numpy and the numpy-only modules; ``maximize_chsh``
and ``OptimizationResult`` load ``relbell.optimizer`` (and scipy) the first
time either is read.  The CLI still imports the optimizer and ``verify``, so
``import relbell, relbell.cli`` reports every module the benchmark's trace
mode times.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relbell
import relbell.optimizer

ROOT = Path(__file__).resolve().parent.parent


def _python(*args):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_loads_no_scipy():
    # relbell.verify too: its matrix_exponential oracle is numpy's
    _python("-c", "import relbell, relbell.verify, sys; "
                  "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
                  "assert not loaded, loaded")


def test_namespace():
    assert relbell.maximize_chsh is relbell.optimizer.maximize_chsh
    assert relbell.OptimizationResult is relbell.optimizer.OptimizationResult
    star = {}
    exec("from relbell import *", star)
    assert set(relbell.__all__) <= set(star)
    for name in relbell.__all__:
        assert star[name] is getattr(relbell, name)
    assert set(relbell.__all__) <= set(dir(relbell))
    with pytest.raises(AttributeError, match="no_such_name"):
        relbell.no_such_name


def test_cli_import_reports_the_benchmarks_trace_modules():
    """``perfbench/run.py --trace 1`` fails unless ``-X importtime`` reports each module."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    err = _python("-X", "importtime", "-c", "import relbell, relbell.cli").stderr
    reported = {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
                if line.startswith("import time:") and "|" in line}
    assert set(run.IMPORT_MODULES) <= reported, set(run.IMPORT_MODULES) - reported


def test_one_entry_point_per_value_type():
    """Constructors and ``chsh`` take rows themselves: no class defines ``_rows``, no
    ``_chsh_amps`` exists, and ``cli`` imports no underscored name from another module.

    ``tests/test_verify.py::TestOneReducer`` reads ``verify``'s source the same way.
    """
    for path in sorted((ROOT / "src" / "relbell").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                defined = {n.name for n in node.body if isinstance(n, ast.FunctionDef)} | {
                    t.id for n in node.body if isinstance(n, ast.Assign)
                    for t in n.targets if isinstance(t, ast.Name)}
                assert "_rows" not in defined, f"{path.name}: {node.name}._rows"
            named = getattr(node, "name", None) or getattr(node, "id", None) \
                or getattr(node, "attr", None)
            assert named != "_chsh_amps", f"{path.name}:{node.lineno}"
            if path.name == "cli.py" and isinstance(node, ast.ImportFrom):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, f"cli.py:{node.lineno} imports {private}"
