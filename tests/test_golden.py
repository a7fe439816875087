"""Byte-for-byte regression against committed CLI outputs, and their accuracy.

The files under ``tests/data/`` were written by the CLI before the 2x2/4x4
helpers in ``linalg``, ``kinematics``, ``wigner`` and ``observables`` were
rewritten without numpy's general-purpose wrappers, regenerated once for
the cancellation-free form of the boost-corrected observable, once when
``chsh`` moved from four 4x4 matrix elements to the contraction
a.T(b + b') + a'.T(b - b') of the correlation tensor, and once more when the
pair kernel became one algebraic, component-wise body for floats and rows
(only + - * / and sqrt), and once when each brute-force oracle became one
numpy body for one row or n (only ``verify`` residual lines moved).  The
moved values are listed in CHANGES.md.  Every command below must still produce
exactly those bytes: same digits, same signed zeros (the dumps print
exact-zero amplitudes, so a stray -0.0 would show).

A change meant to alter these outputs regenerates the files by running the
commands below, scores them with ``tests/error_audit.py`` before and after,
and records both in CHANGES.md.  No file's worst error against the 40-digit
reference may rise above ``WORST_ULPS``, its value before the algebraic
kernel.
"""

from pathlib import Path

import pytest

import error_audit
from relbell.cli import main

DATA = Path(__file__).parent / "data"

CSV_COMMANDS = {
    "chsh_00_case1_em100.csv": ["chsh-scan", "--state", "00", "--vectors", "case1",
                                "--e-over-m", "100", "--steps", "21"],
    "chsh_11_case1_em100.csv": ["chsh-scan", "--state", "11", "--vectors", "case1",
                                "--e-over-m", "100", "--steps", "21"],
    "chsh_01_case2_em100.csv": ["chsh-scan", "--state", "01", "--vectors", "case2",
                                "--e-over-m", "100", "--steps", "21"],
    "chsh_10_case2_em100.csv": ["chsh-scan", "--state", "10", "--vectors", "case2",
                                "--e-over-m", "100", "--steps", "21"],
    "wigner_scan.csv": ["wigner-scan", "--e-over-m", "10,100,1000", "--steps", "21"],
}

STDOUT_COMMANDS = {
    "eval_00_dump.txt": ["eval", "--beta", "0.6", "--e-over-m", "10", "--state", "00",
                         "--dump"],
    "optimize_11.txt": ["optimize", "--beta", "0.8", "--state", "11", "--e-over-m", "100"],
    "verify_seed42_dump.txt": ["verify", "--seed", "42", "--samples", "20", "--dump"],
    "verify_seed7_samples50.txt": ["verify", "--seed", "7", "--samples", "50"],
    "verify_seed0_samples150_dump.txt": ["verify", "--seed", "0", "--samples", "150",
                                         "--dump"],
}


#: each file's worst error against ``error_audit``'s 40-digit reference, in
#: ulp(1), as it was before the algebraic pair kernel (rounded up in the
#: third decimal); ``verify_seed7_samples50.txt`` holds residuals only
WORST_ULPS = {
    "chsh_00_case1_em100.csv": 6.069,
    "chsh_01_case2_em100.csv": 1.986,
    "chsh_10_case2_em100.csv": 5.515,
    "chsh_11_case1_em100.csv": 6.423,
    "eval_00_dump.txt": 2.617,
    "optimize_11.txt": 0.937,
    "verify_seed0_samples150_dump.txt": 2.617,
    "verify_seed42_dump.txt": 2.617,
    "verify_seed7_samples50.txt": 0.0,
    "wigner_scan.csv": 0.705,
}


@pytest.mark.parametrize("name", sorted(CSV_COMMANDS))
def test_csv_bytes(name, tmp_path):
    out = tmp_path / name
    assert main(CSV_COMMANDS[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("name", sorted(STDOUT_COMMANDS))
def test_stdout_bytes(name, capsys):
    assert main(STDOUT_COMMANDS[name]) == 0
    assert capsys.readouterr().out.encode("ascii") == (DATA / name).read_bytes()


def test_every_file_has_a_bound():
    assert sorted(WORST_ULPS) == sorted({**CSV_COMMANDS, **STDOUT_COMMANDS})


@pytest.mark.parametrize("name", sorted(WORST_ULPS))
def test_worst_error_does_not_rise(name):
    errors = error_audit.score_file(DATA / name)
    assert max((e for _, e in errors), default=0.0) <= WORST_ULPS[name]
