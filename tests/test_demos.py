"""Smoke test: every script under ``demos/``, the README's library sketch and CLI lines run.

Each demo runs in its own interpreter with ``src`` on the path, from a
temporary directory, so the PNG that ``chsh_curves.py`` saves when
matplotlib is installed lands there.  The README sketch runs in-process,
so the README cannot import a name the package no longer has, and every
``relbell`` line of its command-line block must parse, so it cannot use a
flag the CLI no longer has.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from relbell.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_sketch():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_readme_command_lines_parse():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()  # join the backslash continuations
    commands = [argv for argv in (shlex.split(line, comments=True) for line in lines) if argv]
    assert commands and all(argv[0] == "relbell" for argv in commands)
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
