"""Byte-for-byte regression against committed CLI outputs, and their accuracy.

The files under ``tests/data/`` were written by the CLI before the 2x2/4x4
helpers in ``linalg``, ``kinematics``, ``wigner`` and ``observables`` were
rewritten without numpy's general-purpose wrappers, regenerated once for
the cancellation-free form of the boost-corrected observable, once when
``chsh`` moved from four 4x4 matrix elements to the contraction
a.T(b + b') + a'.T(b - b') of the correlation tensor, and once more when the
pair kernel became one algebraic, component-wise body for floats and rows
(only + - * / and sqrt), once when each brute-force oracle became one
numpy body for one row or n (only ``verify`` residual lines moved), and
once when ``wigner_angle`` became algebraic (the omega columns and
``verify`` residual lines moved).  The moved values are listed in
CHANGES.md.  Every command below must still produce exactly those bytes:
same digits, same signed zeros (the dumps print exact-zero amplitudes, so a
stray -0.0 would show).

A change meant to alter these outputs regenerates the files by running the
commands below, scores them with ``tests/error_audit.py`` before and after,
and records both in CHANGES.md.  No file's worst error against the 40-digit
reference may rise above ``WORST_ULPS``, its value before the algebraic
kernel.

``scalar_pipeline.txt`` pins the library's scalar route instead of the CLI:
64 items of ``scalar_pipeline()`` below, each a pair from
``FourMomentum.from_spatial`` boosted twice and measured with ``chsh``.  It
was written before the scalar kernel shed its per-call glue (one kind test
per kernel call, one array per output) and regenerates with

    PYTHONPATH=src python tests/test_golden.py > tests/data/scalar_pipeline.txt
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import error_audit
from relbell.bell import bell_state, boost_two_particle
from relbell.cli import main
from relbell.kinematics import BoostSpec, FourMomentum
from relbell.observables import ChshSettings, chsh

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
    "chsh_10_optimal.csv": ["chsh-scan", "--state", "10", "--vectors", "optimal", "--steps", "21"],
    "wigner_scan_clamped.csv": ["wigner-scan", "--e-over-m", "1.5,10,1000", "--steps", "11",
                                "--beta-max", "1"],
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
#: third decimal); ``verify_seed7_samples50.txt`` holds residuals only.
#: ``chsh_10_optimal.csv`` and ``wigner_scan_clamped.csv`` (the clamped
#: beta = 1 rows) came later, written before the scans took their Wigner
#: angles as rows and formatted each column in one pass; theirs is the
#: score they had then
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
    "chsh_10_optimal.csv": 0.871,
    "wigner_scan_clamped.csv": 0.537,
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


def test_audit_compare_reads_json_only(tmp_path):
    # two JSON files are all --compare reads: it runs without relbell on the path
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    before.write_text(json.dumps({"f": [["x", 1.0], ["y", 2.0]]}))
    after.write_text(json.dumps({"f": [["x", 0.5], ["y", 2.0]]}))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, error_audit.__file__, "--compare", str(before),
                           str(after)], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("f: worst 2.000 -> 2.000, median 1.500 -> 1.250 ulp(1); "
                           "1 better, 0 worse, 1 equal of 2\n")


#: the first boost of item k: generic, into one particle's rest frame, or
#: within 1e-8 to 1e-2 rad of anti-collinear with the first particle's momentum
PIPELINE_KINDS = ("generic", "rest_frame", "anti_collinear")


def _line(key: str, *values) -> str:
    return " ".join([key] + [f"{float(v):.17g}" for v in values])


def scalar_pipeline(seed: int = 25, items: int = 64) -> str:
    """Inputs and outputs of ``items`` scalar pipeline items drawn from numpy seed ``seed``.

    Each item is ``bell_state`` on ``FourMomentum.from_spatial(p)`` with E/m
    log-uniform in [1, 1e6], a first boost of its kind, a generic second
    boost and ``chsh`` at random settings.  Both boosted pairs print their
    amplitudes (Re, Im in basis order), ``kin_factor`` and each label's
    (q, E').  Numbers carry 17 significant digits, so inputs and outputs
    round-trip float64 exactly.
    """
    rng = np.random.default_rng(seed)
    lines = []
    for k in range(items):
        kind = PIPELINE_KINDS[k % len(PIPELINE_KINDS)]
        n = error_audit._unit(rng)
        r = math.exp(rng.uniform(0.0, math.log(1e6)))
        p = math.sqrt((r - 1.0) * (r + 1.0)) * n
        pair = bell_state(*(int(x) for x in rng.integers(2, size=2)), FourMomentum.from_spatial(p))
        if kind == "generic":
            e1, beta1 = error_audit._unit(rng), float(rng.uniform(0.0, 0.99))
        elif kind == "rest_frame":  # along -p_hat stops the first particle, along p_hat the second
            e1 = n if rng.integers(2) else -n
            beta1 = pair.p_label.p_mag / pair.p_label.E
        else:
            u = error_audit._unit(rng)
            u -= (u @ n) * n
            tilt = math.exp(rng.uniform(math.log(1e-8), math.log(1e-2)))
            e1 = -n + tilt * u / np.linalg.norm(u)
            e1 /= np.linalg.norm(e1)
            beta1 = float(rng.uniform(0.0, 0.99))
        e2, beta2 = error_audit._unit(rng), float(rng.uniform(0.0, 0.99))
        settings = [error_audit._unit(rng) for _ in range(4)]
        beta_obs, e_obs = float(rng.uniform(0.0, 0.99)), error_audit._unit(rng)
        once = boost_two_particle(pair, BoostSpec(e1, beta1))
        twice = boost_two_particle(once, BoostSpec(e2, beta2))
        value = chsh(twice, ChshSettings(*settings), beta_obs, e_obs)
        lines += [f"# item {k} {kind}", _line("state", *pair.amps.view(float)), _line("p", *p),
                  _line("boost1", *e1, beta1), _line("boost2", *e2, beta2),
                  _line("settings", *np.concatenate(settings)), _line("observer", *e_obs, beta_obs)]
        for name, s in (("once", once), ("twice", twice)):
            lines += [_line(f"{name} amps", *s.amps.view(float)),
                      _line(f"{name} kin_factor", s.kin_factor),
                      _line(f"{name} q1", *s.p_label.p, s.p_label.E),
                      _line(f"{name} q2", *s.p2_label.p, s.p2_label.E)]
        lines.append(_line("chsh", value))
    return "\n".join(lines) + "\n"


def test_scalar_pipeline_bytes():
    assert scalar_pipeline().encode("ascii") == (DATA / "scalar_pipeline.txt").read_bytes()


if __name__ == "__main__":
    sys.stdout.write(scalar_pipeline())
