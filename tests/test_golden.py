"""Byte-for-byte regression against committed CLI outputs.

The files under ``tests/data/`` were written by the CLI before the 2x2/4x4
helpers in ``linalg``, ``kinematics``, ``wigner`` and ``observables`` were
rewritten without numpy's general-purpose wrappers, regenerated once for
the cancellation-free form of the boost-corrected observable, and once more
when ``chsh`` moved from four 4x4 matrix elements to the contraction
a.T(b + b') + a'.T(b - b') of the correlation tensor (the moved digits are
no less exact against ``tests/mp_oracle.py``; see CHANGES.md).  Every
command below must still produce exactly those bytes: same digits, same
signed zeros (the dumps print exact-zero amplitudes, so a stray -0.0 would
show).

A change meant to alter these outputs regenerates the files by running the
commands below and records that in CHANGES.md.
"""

from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", sorted(CSV_COMMANDS))
def test_csv_bytes(name, tmp_path):
    out = tmp_path / name
    assert main(CSV_COMMANDS[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("name", sorted(STDOUT_COMMANDS))
def test_stdout_bytes(name, capsys):
    assert main(STDOUT_COMMANDS[name]) == 0
    assert capsys.readouterr().out.encode("ascii") == (DATA / name).read_bytes()
