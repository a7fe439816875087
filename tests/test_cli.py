"""CLI surface: CSV scans, verification, optimization, eval, exit codes, parser reuse."""

import argparse
import importlib
import math
import os
import sys

import numpy as np
import pytest

from relbell import bell, cli, observables
from relbell.bell import TwoQubitState, bell_state, boost_two_particle
from relbell.cli import BETA_CLAMP, _fmt, main
from relbell.kinematics import BoostSpec, EnergyOverflowError, FourMomentum, X_HAT, _unchecked
from relbell.observables import CASE1_SETTINGS, CASE2_SETTINGS, chsh, chsh_max, chsh_universal
from relbell.wigner import WignerRotation, _quaternion, wigner_angle


def _read_csv(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    text = raw.decode("ascii")
    assert "\r" not in text  # LF endings only
    lines = text.strip().split("\n")
    return lines[0], [ln.split(",") for ln in lines[1:]]


class TestWignerScan:
    def test_grid_and_header(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["wigner-scan", "--beta-min", "0", "--beta-max", "0.99",
                     "--steps", "5", "--e-over-m", "10,100,1000",
                     "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == "beta,e_over_m,omega_rad"
        assert len(rows) == 15
        # beta = 0 rows carry omega exactly 0
        for row in rows:
            if float(row[0]) == 0.0:
                assert float(row[2]) == 0.0

    def test_two_point_grid(self, tmp_path):
        out = tmp_path / "w.csv"
        main(["wigner-scan", "--beta-min", "0", "--beta-max", "0.5",
              "--steps", "2", "--e-over-m", "10", "--out", str(out)])
        _, rows = _read_csv(out)
        assert [float(r[0]) for r in rows] == [0.0, 0.5]

    def test_rows_match_library(self, tmp_path):
        out = tmp_path / "w.csv"
        main(["wigner-scan", "--steps", "7", "--e-over-m", "100", "--out", str(out)])
        _, rows = _read_csv(out)
        for row in rows:
            assert float(row[2]) == wigner_angle(float(row[0]), float(row[1]))

    def test_monotone_per_series(self, tmp_path):
        out = tmp_path / "w.csv"
        main(["wigner-scan", "--beta-min", "0", "--beta-max", "0.99",
              "--steps", "100", "--e-over-m", "10,100,1000", "--out", str(out)])
        _, rows = _read_csv(out)
        assert len(rows) == 300
        for ratio in ("10", "100", "1000"):
            series = [float(r[2]) for r in rows if float(r[1]) == float(ratio)]
            assert all(b > a for a, b in zip(series, series[1:]))

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["wigner-scan", "--steps", "9", "--out"]
        main(args + [str(a)])
        main(args + [str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_beta_one_clamped_and_recorded(self, tmp_path):
        out = tmp_path / "w.csv"
        main(["wigner-scan", "--beta-min", "0.5", "--beta-max", "1.0",
              "--steps", "2", "--e-over-m", "10", "--out", str(out)])
        _, rows = _read_csv(out)
        assert float(rows[-1][0]) == 1.0 - 1e-12

    def test_invalid_grid_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["wigner-scan", "--beta-min", "0.9", "--beta-max", "0.1",
                  "--out", str(tmp_path / "w.csv")])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["wigner-scan", "--steps", "1", "--out", str(tmp_path / "w.csv")])
        assert exc.value.code == 2

    def test_unwritable_path_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["wigner-scan", "--out", "/nonexistent-dir/w.csv"])
        assert exc.value.code == 2


class TestChshScan:
    def test_universal_curve_round_trip(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["chsh-scan", "--state", "10", "--vectors", "case2",
                     "--beta-min", "0", "--beta-max", "1", "--steps", "21",
                     "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == "beta,chsh,omega_rad"
        for row in rows:
            beta, value, omega = float(row[0]), float(row[1]), row[2]
            assert omega == ""  # state-independent curve
            assert abs(value - chsh_universal(beta)) < 1e-12
        assert abs(float(rows[0][1]) - 2.0 * math.sqrt(2.0)) < 1e-12

    def test_correlated_state_curve_has_omega(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["chsh-scan", "--state", "00", "--vectors", "case1",
              "--e-over-m", "10", "--beta-min", "0", "--beta-max", "0.9",
              "--steps", "10", "--out", str(out)])
        _, rows = _read_csv(out)
        for row in rows:
            beta = float(row[0])
            om = float(row[2])
            assert om == wigner_angle(beta, 10.0)
            expected = (2.0 / math.sqrt(2.0 - beta**2)) * (
                math.sqrt(1.0 - beta**2) + math.cos(2 * om))
            assert abs(float(row[1]) - expected) < 1e-10

    def test_angle_dependent_state_requires_ratio(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["chsh-scan", "--state", "00", "--vectors", "case1",
                  "--out", str(tmp_path / "c.csv")])
        assert exc.value.code == 2

    def test_optimal_vectors_ignore_seed_and_restarts(self, tmp_path):
        args = ["chsh-scan", "--state", "10", "--vectors", "optimal", "--steps", "3"]
        outs = []
        for extra in ([], ["--seed", "1"], ["--seed", "9", "--restarts", "2"]):
            outs.append(tmp_path / f"c{len(outs)}.csv")
            assert main(args + extra + ["--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()

    def test_optimal_vectors_dominate_fixed(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["chsh-scan", "--state", "10", "--vectors", "optimal",
              "--beta-min", "0", "--beta-max", "1", "--steps", "3",
              "--out", str(out)])
        _, rows = _read_csv(out)
        assert float(rows[-1][0]) == BETA_CLAMP
        for row in rows:
            assert float(row[1]) >= chsh_universal(float(row[0])) - 1e-12
            assert abs(float(row[1]) - 2.0 * math.sqrt(2.0)) <= 1e-12

    def test_byte_identical_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["chsh-scan", "--state", "10", "--vectors", "optimal",
                "--steps", "3", "--restarts", "2", "--seed", "9", "--out"]
        main(args + [str(a)])
        main(args + [str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestChshScanPairKernel:
    """``chsh-scan`` builds its pair once and boosts it through the pair kernel."""

    @staticmethod
    def _scan(tmp_path, state, vectors, e_over_m, steps=101):
        out = tmp_path / f"{state}_{vectors}.csv"
        assert main(["chsh-scan", "--state", state, "--vectors", vectors,
                     "--e-over-m", repr(e_over_m), "--beta-min", "0", "--beta-max", "1",
                     "--steps", str(steps), "--out", str(out)]) == 0
        return _read_csv(out)[1]

    @pytest.mark.parametrize("e_over_m", [10.0, 1000.0])
    @pytest.mark.parametrize("vectors", ["case1", "case2", "optimal"])
    @pytest.mark.parametrize("state", ["00", "01", "10", "11"])
    def test_rows_equal_public_route(self, tmp_path, state, vectors, e_over_m):
        # the oracle boosts every row, so the optimal rows check that a boost keeps chsh_max
        settings = CASE1_SETTINGS if vectors == "case1" else CASE2_SETTINGS
        rest = bell_state(int(state[0]), int(state[1]), FourMomentum.along_z(e_over_m))
        rows = self._scan(tmp_path, state, vectors, e_over_m)
        betas = [min(float(b), BETA_CLAMP) for b in np.linspace(0.0, 1.0, 101)]
        assert [row[0] for row in rows] == [_fmt(b) for b in betas]
        assert rows[-1][0] == _fmt(BETA_CLAMP)
        for row, b in zip(rows, betas):
            s = rest if b == 0.0 else boost_two_particle(rest, BoostSpec(X_HAT, b))
            value = chsh_max(s) if vectors == "optimal" else chsh(s, settings, b, X_HAT)
            assert row[1] == _fmt(value)

    def test_optimal_scan_boosts_nothing(self, tmp_path, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the optimal chsh-scan boosted its pair")

        monkeypatch.setattr(cli, "boost_two_particle", forbidden)
        monkeypatch.setattr(cli, "BoostSpec", forbidden)
        rest = bell_state(0, 0, FourMomentum.along_z(10.0))
        assert [row[1] for row in self._scan(tmp_path, "00", "optimal", 10.0)] == [
            _fmt(chsh_max(rest))] * 101

    @pytest.mark.parametrize("vectors", ["case1", "optimal"])
    def test_builds_no_wigner_rotation(self, tmp_path, monkeypatch, vectors):
        def forbidden(self):
            raise AssertionError("chsh-scan built a WignerRotation")

        monkeypatch.setattr(WignerRotation, "__post_init__", forbidden)
        assert len(self._scan(tmp_path, "00", vectors, 10.0, steps=5)) == 5

    @pytest.mark.parametrize("vectors", ["case2", "optimal"])
    def test_builds_the_pair_once(self, tmp_path, monkeypatch, vectors):
        calls = []

        def counted(*args):
            calls.append(args)
            return bell_state(*args)

        monkeypatch.setattr(cli, "bell_state", counted)
        assert len(self._scan(tmp_path, "10", vectors, 100.0)) == 101
        assert len(calls) == 1

    def test_quaternion_off_unit_norm_raises(self, tmp_path, monkeypatch):
        def off_norm(b, p):
            cos_half, sin_half_vec, k2, q, energy = _quaternion(b, p)
            return cos_half * (1.0 + 1e-9), sin_half_vec, k2, q, energy

        monkeypatch.setattr(bell, "_quaternion", off_norm)
        with pytest.raises(ValueError, match="^su2 is not unitary$"):
            self._scan(tmp_path, "00", "case1", 10.0, steps=3)

    def test_observable_off_unit_norm_raises(self, tmp_path, monkeypatch):
        vectors = observables._observable_vectors
        monkeypatch.setattr(observables, "_observable_vectors", lambda a, beta, e: [
            tuple((1.0 + 1e-9) * x for x in v) for v in vectors(a, beta, e)])
        with pytest.raises(ValueError, match="^observable must square to the identity$"):
            self._scan(tmp_path, "10", "case2", 10.0, steps=3)

    def test_nonfinite_amplitudes_are_not_real(self, tmp_path, monkeypatch):
        # T is real by construction; NaN amplitudes fail its finite-real check
        boost = cli.boost_two_particle

        def nan_amps(s, b):
            out = boost(s, b)
            return _unchecked(TwoQubitState, **{
                **out.__dict__, "amps": np.full_like(out.amps, complex(math.nan, 0.0))})

        monkeypatch.setattr(cli, "boost_two_particle", nan_amps)
        with pytest.raises(ArithmeticError, match="correlation tensor not real"):
            self._scan(tmp_path, "10", "case2", 10.0, steps=3)


class TestVerifyCommand:
    def test_passes_and_prints_report(self, capsys):
        assert main(["verify", "--seed", "42", "--samples", "40"]) == 0
        out = capsys.readouterr().out
        assert "verify: 20/20 checks passed" in out
        assert "seed=42" in out
        assert out.count("PASS") == 20

    def test_single_sample(self):
        assert main(["verify", "--seed", "1", "--samples", "1"]) == 0

    def test_failure_exits_1(self, capsys, monkeypatch):
        import relbell.cli as cli_mod
        from relbell.verify import CheckResult

        def fake_run_checks(seed, samples):
            return [CheckResult("synthetic", 1.0, 1e-12, samples, "inputs: x=1")]

        monkeypatch.setattr(cli_mod, "run_checks", fake_run_checks)
        assert main(["verify", "--samples", "5"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "worst inputs: inputs: x=1" in out

    def test_dump_prints_reference_states(self, capsys):
        main(["verify", "--samples", "1", "--dump"])
        out = capsys.readouterr().out
        for state in ("00", "01", "10", "11"):
            assert f"# state {state} boosted beta=0.6 e_over_m=10" in out
        assert "kin_factor 1.25" in out

    def test_negative_seed_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "-1", "--samples", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "seed must be >= 0, got -1" in captured.err
        assert captured.out == ""

    def test_invalid_samples_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--samples", "0"])
        assert exc.value.code == 2


class TestOptimizeCommand:
    def test_rest_frame_recovery(self, capsys):
        assert main(["optimize", "--state", "10", "--beta", "0.0"]) == 0
        out = capsys.readouterr().out
        lines = dict(ln.split(maxsplit=1) for ln in out.strip().split("\n"))
        assert list(lines) == ["state", "beta", "e_over_m", "value",
                               "baseline_fixed_settings", "a", "a_prime", "b", "b_prime"]
        assert float(lines["value"]) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert float(lines["baseline_fixed_settings"]) == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-12)

    def test_relativistic_dominates_baseline(self, capsys):
        main(["optimize", "--state", "10", "--beta", "0.9"])
        out = capsys.readouterr().out
        lines = dict(ln.split(maxsplit=1) for ln in out.strip().split("\n"))
        assert float(lines["value"]) >= float(lines["baseline_fixed_settings"]) - 1e-12
        assert float(lines["value"]) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("command,flag", [
        ("optimize", "--restarts"), ("optimize", "--tol"), ("optimize", "--seed"),
        ("eval", "--restarts"), ("eval", "--tol"), ("eval", "--seed"),
        ("chsh-scan", "--tol"),
    ])
    def test_search_flags_removed(self, tmp_path, command, flag):
        args = {"optimize": ["optimize", "--beta", "0.5"],
                "eval": ["eval", "--beta", "0.5", "--state", "10", "--vectors", "optimal"],
                "chsh-scan": ["chsh-scan", "--vectors", "optimal", "--steps", "2",
                              "--out", str(tmp_path / "c.csv")]}[command]
        with pytest.raises(SystemExit) as exc:
            main(args + [flag, "1"])
        assert exc.value.code == 2

    def test_invalid_beta_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--state", "10", "--beta", "1.5"])
        assert exc.value.code == 2


class TestEvalCommand:
    def test_point_values(self, capsys):
        assert main(["eval", "--beta", "0.6", "--e-over-m", "10",
                     "--state", "00", "--vectors", "case1"]) == 0
        out = capsys.readouterr().out
        lines = dict(ln.split(maxsplit=1) for ln in out.strip().split("\n"))
        assert float(lines["omega_rad"]) == pytest.approx(wigner_angle(0.6, 10.0), abs=0)
        assert float(lines["kin_factor"]) == pytest.approx(1.25, rel=1e-14)
        assert float(lines["chsh_case1"]) == pytest.approx(
            float(lines["chsh_closed"]), abs=1e-10)
        pairs = (("00", "case1"), ("11", "case1"), ("01", "case2"), ("10", "case2"))
        for state, vectors in pairs:
            for beta in ("0", "0.6", "0.99"):
                assert main(["eval", "--beta", beta, "--e-over-m", "10",
                             "--state", state, "--vectors", vectors]) == 0
                out = capsys.readouterr().out
                lines = dict(ln.split(maxsplit=1) for ln in out.strip().split("\n"))
                assert float(lines[f"chsh_{vectors}"]) == pytest.approx(
                    float(lines["chsh_closed"]), abs=1e-10), (state, beta)

    def test_optimal_without_seed(self, capsys):
        rest = bell_state(0, 0, FourMomentum.along_z(10.0))
        for beta in ("1", "0.6"):  # the rest pair's maximum, which a boost keeps
            assert main(["eval", "--beta", beta, "--state", "00", "--vectors", "optimal"]) == 0
            out = capsys.readouterr().out
            lines = dict(ln.split(maxsplit=1) for ln in out.strip().split("\n"))
            assert lines["chsh_optimal"] == _fmt(chsh_max(rest)), beta
            assert float(lines["chsh_optimal"]) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_light_speed_closed_form(self, capsys):
        main(["eval", "--beta", "1"])
        out = capsys.readouterr().out
        lines = dict(ln.split(maxsplit=1) for ln in out.strip().split("\n"))
        assert float(lines["chsh_universal"]) == pytest.approx(2.0, abs=1e-12)
        # the exact beta -> 1 limit for every state: cos(omega) -> m/E in the
        # rotating sector, the universal curve's endpoints in the other
        for r in (10.0, 1000.0):
            expected = {"00": 2.0 * (2.0 / r**2 - 1.0), "11": -2.0 * (2.0 / r**2 - 1.0),
                        "01": -2.0, "10": 2.0}
            for state, closed in expected.items():
                vectors = "case1" if state in ("00", "11") else "case2"
                assert main(["eval", "--beta", "1", "--e-over-m", str(r),
                             "--state", state, "--vectors", vectors]) == 0
                out = capsys.readouterr().out
                lines = dict(ln.split(maxsplit=1) for ln in out.strip().split("\n"))
                assert float(lines["chsh_closed"]) == pytest.approx(closed, abs=1e-12), (state, r)

    def test_light_speed_prints_the_limits_only(self, capsys):
        # the boosted pair exists below beta = 1 only: its kin_factor (which diverges), its
        # CHSH at fixed settings and its dump are left out, not printed at BETA_CLAMP
        head = "beta 1\ne_over_m 10\nomega_rad 1.4706289056333368\nchsh_universal 2\n"
        for state, vectors, tail in (("10", "case2", "chsh_closed 2\n"),
                                     ("00", "case1", "chsh_closed -1.96\n"),
                                     ("01", "case1", "")):
            assert main(["eval", "--beta", "1", "--e-over-m", "10", "--state", state,
                         "--vectors", vectors, "--dump"]) == 0
            assert capsys.readouterr().out == head + tail, (state, vectors)
        # the maximum over settings is the rest pair's at every beta < 1, a boost keeping C
        assert main(["eval", "--beta", "1", "--e-over-m", "10", "--state", "11",
                     "--vectors", "optimal"]) == 0
        rest = bell_state(1, 1, FourMomentum.along_z(10.0))
        assert capsys.readouterr().out == head + f"chsh_optimal {_fmt(chsh_max(rest))}\n"

    def test_dump_appended(self, capsys):
        main(["eval", "--beta", "0.0", "--state", "10", "--dump"])
        out = capsys.readouterr().out
        assert "+- 0.70710678118654746 0" in out


class TestSeedResolution:
    def test_flag_sets_seed(self, capsys):
        main(["verify", "--samples", "1", "--seed", "9"])
        assert "seed=9" in capsys.readouterr().out

    def test_default_seed_zero(self, capsys):
        main(["verify", "--samples", "1"])
        assert "seed=0" in capsys.readouterr().out

    def test_environment_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("RELBELL_SEED", "123")
        main(["verify", "--samples", "1"])
        assert "seed=0" in capsys.readouterr().out


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_ratio_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["wigner-scan", "--e-over-m", "0.5", "--out", str(tmp_path / "w.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, text", [
        (["wigner-scan", "--e-over-m", "abc"], "abc"),
        (["wigner-scan", "--e-over-m", "10,x"], "x"),
        (["eval", "--beta", "0.5", "--e-over-m", "abc"], "abc"),
    ])
    def test_non_numeric_ratio_exits_2(self, tmp_path, capsys, argv, text):
        out = tmp_path / "w.csv"
        if argv[0] == "wigner-scan":
            argv = argv + ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --e-over-m: E/m must be a number, got '{text}'" in err
        assert "_ratio" not in err
        assert not out.exists()

    @pytest.mark.parametrize("ratio", ["nan", "inf", "10,inf", "1e400"])
    def test_nonfinite_ratio_exits_2(self, tmp_path, capsys, ratio):
        out = tmp_path / "w.csv"
        with pytest.raises(SystemExit) as exc:
            main(["wigner-scan", "--e-over-m", ratio, "--out", str(out)])
        assert exc.value.code == 2
        assert "E/m must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["chsh-scan", "--state", "00", "--vectors", "case1", "--e-over-m", "inf"],
        ["chsh-scan", "--state", "10", "--e-over-m", "nan"],
        ["eval", "--beta", "0.5", "--e-over-m", "inf"],
        ["optimize", "--beta", "0.5", "--e-over-m", "nan"],
    ])
    def test_nonfinite_ratio_exits_2_everywhere(self, tmp_path, capsys, argv):
        if argv[0] == "chsh-scan":
            argv = argv + ["--out", str(tmp_path / "c.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "E/m must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["chsh-scan", "--state", "00", "--vectors", "case1", "--e-over-m", "1"],
        ["chsh-scan", "--state", "10", "--e-over-m", "1"],
        ["optimize", "--beta", "0.5", "--e-over-m", "1"],
        ["eval", "--beta", "0.5", "--e-over-m", "1", "--state", "10"],
    ])
    def test_pair_at_rest_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "c.csv"
        if argv[0] == "chsh-scan":
            argv = argv + ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "E/m must be > 1 for a momentum-conserved pair" in captured.err
        assert captured.out == ""
        assert not out.exists()

    PAIR_COMMANDS = {
        "chsh-scan fixed": ["chsh-scan", "--state", "00", "--vectors", "case1", "--e-over-m"],
        "chsh-scan optimal": ["chsh-scan", "--state", "10", "--vectors", "optimal",
                              "--e-over-m"],
        "eval --state": ["eval", "--beta", "0.9999999999", "--state", "10", "--e-over-m"],
        "optimize": ["optimize", "--beta", "0.9999999999", "--e-over-m"],
    }

    def _pair_command(self, name, ratio, out):
        argv = self.PAIR_COMMANDS[name] + [ratio]
        return argv + ["--out", str(out)] if argv[0] == "chsh-scan" else argv

    @pytest.mark.parametrize("name, ratio", [
        (name, ratio) for name in sorted(PAIR_COMMANDS) for ratio in ("1e150", "1e200")
        if (name, ratio) != ("chsh-scan optimal", "1e150")])  # boosts nothing: see below
    def test_overflowing_pair_exits_2(self, tmp_path, capsys, name, ratio):
        # 1e150: the boosted energy's square overflows (gamma E past 1.34e154 at the top
        # speed); 1e200: the pair's own (E/m)^2
        out = tmp_path / "c.csv"
        with pytest.raises(SystemExit) as exc:
            main(self._pair_command(name, ratio, out))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "relbell: error: energy overflows: " in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_optimal_scan_runs_where_only_the_boosted_pair_overflows(self, tmp_path, capsys):
        # the optimal scan prints the rest pair's maximum on every row and boosts nothing
        out = tmp_path / "c.csv"
        assert main(self._pair_command("chsh-scan optimal", "1e150", out)) == 0
        assert capsys.readouterr().err == ""
        rest = bell_state(1, 0, FourMomentum.along_z(1e150))
        assert _fmt(chsh_max(rest)) == "2.8284271247461903"
        assert [row[1] for row in _read_csv(out)[1]] == [_fmt(chsh_max(rest))] * 101

    def test_overflow_names_one_row(self, tmp_path, capsys):
        # the first boosted row whose E^2 overflows (the clamped beta = 1 row), not every row
        pair = bell_state(0, 0, FourMomentum.along_z(1e150))
        with pytest.raises(EnergyOverflowError, match=r"for E=(\S+)$") as one:
            boost_two_particle(pair, BoostSpec(X_HAT, BETA_CLAMP))
        energy = str(one.value).rsplit("=", 1)[1]
        with pytest.raises(SystemExit):
            main(["chsh-scan", "--state", "00", "--vectors", "case1", "--e-over-m", "1e150",
                  "--out", str(tmp_path / "c.csv")])
        err = capsys.readouterr().err
        assert len(err.splitlines()) <= 3 and f"for E={energy} in row 99\n" in err

    @pytest.mark.parametrize("name", sorted(PAIR_COMMANDS))
    def test_large_finite_pair_still_runs(self, tmp_path, capsys, name):
        out = tmp_path / "c.csv"
        assert main(self._pair_command(name, "1e100", out)) == 0

    @pytest.mark.parametrize("ratio", ["1e150", "1e200"])
    def test_overflowing_ratio_without_pair_runs(self, tmp_path, capsys, ratio):
        out = tmp_path / "w.csv"
        assert main(["wigner-scan", "--e-over-m", ratio, "--beta-max", "1", "--steps", "3",
                     "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert [float(r[2]) for r in rows] == [wigner_angle(min(b, BETA_CLAMP), float(ratio))
                                              for b in (0.0, 0.5, 1.0)]
        assert main(["eval", "--beta", "0.5", "--e-over-m", ratio]) == 0
        assert f"omega_rad {_fmt(wigner_angle(0.5, float(ratio)))}\n" in capsys.readouterr().out

    def test_unit_ratio_without_pair(self, tmp_path, capsys):
        # a single particle at rest has Omega = 0 at every beta
        out = tmp_path / "w.csv"
        assert main(["wigner-scan", "--e-over-m", "1", "--steps", "3",
                     "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert [float(r[2]) for r in rows] == [0.0, 0.0, 0.0]
        assert main(["eval", "--beta", "0.5", "--e-over-m", "1"]) == 0
        assert "omega_rad 0\n" in capsys.readouterr().out


class TestCsvWrite:
    """A CSV is written over its path in place: no O_TRUNC, the same bytes, the same errors."""

    ARGV = ["chsh-scan", "--state", "10", "--vectors", "case2"]

    def _fresh(self, tmp_path, steps: str) -> bytes:
        out = tmp_path / f"fresh{steps}.csv"
        assert main(self.ARGV + ["--steps", steps, "--out", str(out)]) == 0
        return out.read_bytes()

    def test_rerun_over_a_longer_file_leaves_only_the_new_bytes(self, tmp_path):
        out = tmp_path / "c.csv"
        out.write_bytes(b"x" * 100_000)
        assert main(self.ARGV + ["--steps", "101", "--out", str(out)]) == 0
        assert out.read_bytes() == self._fresh(tmp_path, "101")
        assert main(self.ARGV + ["--steps", "3", "--out", str(out)]) == 0
        assert out.read_bytes() == self._fresh(tmp_path, "3")

    def test_opens_without_truncation(self, tmp_path, monkeypatch):
        flags = []
        real_open = os.open

        def recording_open(path, flag, *args, **kwargs):
            flags.append(flag)
            assert not flag & os.O_TRUNC, "the CSV was opened with O_TRUNC"
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(cli.os, "open", recording_open)
        out = tmp_path / "c.csv"
        for steps in ("5", "3"):
            assert main(self.ARGV + ["--steps", steps, "--out", str(out)]) == 0
        assert len(flags) == 2 and all(f & os.O_WRONLY and f & os.O_CREAT for f in flags)
        monkeypatch.undo()
        assert out.read_bytes() == self._fresh(tmp_path, "3")

    def test_short_writes_give_the_bytes(self, tmp_path, monkeypatch):
        real_write = os.write
        sizes = []

        def seven_bytes(fd, data):
            sizes.append(len(data))
            return real_write(fd, bytes(data[:7]))

        monkeypatch.setattr(cli.os, "write", seven_bytes)
        out = tmp_path / "c.csv"
        assert main(self.ARGV + ["--steps", "5", "--out", str(out)]) == 0
        monkeypatch.undo()
        fresh = self._fresh(tmp_path, "5")
        assert out.read_bytes() == fresh
        assert len(sizes) == -(-len(fresh) // 7)  # every call took its 7 bytes and no more

    def _guard_truncate(self, monkeypatch) -> list:
        cuts = []
        real_ftruncate = os.ftruncate

        def recording_ftruncate(fd, length):
            cuts.append(length)
            return real_ftruncate(fd, length)

        monkeypatch.setattr(cli.os, "ftruncate", recording_ftruncate)
        return cuts

    def test_no_shorter_file_is_not_cut(self, tmp_path, monkeypatch):
        out = tmp_path / "c.csv"
        cuts = self._guard_truncate(monkeypatch)
        for steps in ("3", "3", "5"):  # a new file, a rewrite as long, a longer one
            assert main(self.ARGV + ["--steps", steps, "--out", str(out)]) == 0
        assert cuts == []
        monkeypatch.undo()
        assert out.read_bytes() == self._fresh(tmp_path, "5")

    def test_shorter_rewrite_leaves_the_new_bytes(self, tmp_path, monkeypatch):
        out = tmp_path / "c.csv"
        assert main(self.ARGV + ["--steps", "5", "--out", str(out)]) == 0
        cuts = self._guard_truncate(monkeypatch)
        assert main(self.ARGV + ["--steps", "3", "--out", str(out)]) == 0
        monkeypatch.undo()
        fresh = self._fresh(tmp_path, "3")
        assert out.read_bytes() == fresh and cuts == [len(fresh)]

    def test_devnull(self):
        assert main(self.ARGV + ["--steps", "3", "--out", os.devnull]) == 0

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_pipe_receives_the_bytes(self, tmp_path):
        fresh = self._fresh(tmp_path, "3")  # 3 rows fit in the pipe's buffer
        read, write = os.pipe()
        with os.fdopen(read, "rb") as fh:
            try:
                code = main(self.ARGV + ["--steps", "3", "--out", f"/proc/self/fd/{write}"])
            finally:
                os.close(write)
            assert code == 0 and fh.read() == fresh

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_dev_stdout(self, tmp_path, capfd):
        fresh = self._fresh(tmp_path, "3")
        capfd.readouterr()
        assert main(self.ARGV + ["--steps", "3", "--out", "/dev/stdout"]) == 0
        assert capfd.readouterr().out.encode("ascii") == fresh

    def test_directory_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGV + ["--steps", "3", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"cannot write {str(tmp_path)!r}" in capsys.readouterr().err


class TestParserReuse:
    """``main`` builds its parser once per process and parses each call once, with the
    command's own parser; one call leaves nothing for the next."""

    DEFAULTS = ["chsh-scan", "--steps", "3"]

    @staticmethod
    def _scan(argv, path) -> bytes:
        assert main(argv + ["--out", str(path)]) == 0
        return path.read_bytes()

    def _alone(self, tmp_path) -> bytes:
        cli._parser.cache_clear()  # a fresh parser, as in a new process
        return self._scan(self.DEFAULTS, tmp_path / "alone.csv")

    def test_defaults_survive_an_overriding_call(self, tmp_path):
        alone = self._alone(tmp_path)
        overridden = self._scan(["chsh-scan", "--state", "00", "--vectors", "case1",
                                 "--e-over-m", "100", "--steps", "3"], tmp_path / "o.csv")
        assert overridden != alone
        assert self._scan(self.DEFAULTS, tmp_path / "after.csv") == alone

    @pytest.mark.parametrize("bad", [
        ["chsh-scan", "--state", "00", "--e-over-m", "100", "--steps", "x"],  # argparse rejects
        ["chsh-scan", "--state", "00", "--vectors", "case1", "--steps", "3"],  # the command does
    ])
    def test_usage_error_leaves_the_next_call_unchanged(self, tmp_path, capsys, bad):
        alone = self._alone(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(bad + ["--out", str(tmp_path / "bad.csv")])
        assert exc.value.code == 2
        assert self._scan(self.DEFAULTS, tmp_path / "after.csv") == alone

    def test_one_tree_per_process(self, tmp_path, capsys, monkeypatch):
        made = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            made.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser()
        tree = len(made)
        assert tree > 1  # the top-level parser and one per subcommand
        made.clear()
        importlib.reload(cli)  # runs the module body again, with a fresh cache
        assert made == []
        self._scan(self.DEFAULTS, tmp_path / "c.csv")
        assert len(made) == tree
        self._scan(self.DEFAULTS, tmp_path / "c.csv")
        assert main(["eval", "--beta", "0.5"]) == 0
        with pytest.raises(SystemExit):
            main(["frobnicate"])
        assert len(made) == tree

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()

    #: one valid call per command ("@" stands for the CSV path)
    VALID = [
        ["wigner-scan", "--steps", "3", "--e-over-m", "10,100", "--out", "@"],
        ["chsh-scan", "--state", "00", "--vectors", "case1", "--e-over-m", "100", "--steps", "3",
         "--out", "@"],
        ["verify", "--samples", "1", "--dump"],
        ["optimize", "--beta", "0.6", "--state", "01"],
        ["eval", "--beta", "0.6", "--state", "00", "--vectors", "case1", "--dump"],
    ]
    MATRIX = VALID + [
        ["chsh-scan", "--vectors", "optimal", "--steps", "3", "--out", "@"],
        [], ["-h"], ["--help"], ["chsh-scan", "-h"], ["frobnicate"],
        ["eval", "--beta", "0.5", "--frob", "1"],  # an unknown option after the command
        ["--frob", "eval", "--beta", "0.5"],  # and before it
        ["eval", "--beta", "0.5", "--state", "22"],  # an invalid choice
        ["eval", "--beta", "x"],  # a bad type
        ["wigner-scan", "--steps", "3"],  # no --out
        ["optimize", "--beta", "0.5", "--restarts", "1"],  # a removed search flag
        ["chsh-scan", "--tol", "1e-9", "--out", "@"],
        ["eval", "--beta", "-0.5"],
    ]

    @staticmethod
    def _outcome(call, argv, path, capsys) -> tuple:
        """Exit code, stdout, stderr and CSV bytes (None without a file) of ``call(argv)``."""
        try:
            code = call([str(path) if a == "@" else a for a in argv])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        csv = path.read_bytes() if path.exists() else None
        path.unlink(missing_ok=True)
        return code, out, err, csv

    @staticmethod
    def _whole_tree(argv) -> int:
        parser = cli.build_parser()
        args = parser.parse_args(argv)
        return cli._COMMANDS[args.command](parser, args)

    @pytest.mark.parametrize("argv", MATRIX, ids=lambda argv: " ".join(argv) or "no arguments")
    def test_same_outcome_as_the_whole_tree(self, tmp_path, capsys, argv):
        path = tmp_path / "c.csv"
        assert (self._outcome(main, argv, path, capsys)
                == self._outcome(self._whole_tree, argv, path, capsys))

    def test_one_parse_per_call(self, tmp_path, capsys, monkeypatch):
        parsed = []
        parse = argparse.ArgumentParser.parse_known_args

        def counting_parse(parser, *args, **kwargs):
            parsed.append(parser.prog)
            return parse(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse)
        for argv in self.VALID:
            parsed.clear()
            assert self._outcome(main, argv, tmp_path / "c.csv", capsys)[0] == 0
            assert parsed == [f"relbell {argv[0]}"]

    @pytest.mark.parametrize("argv", [["eval", "--beta", "0.5"], ["frobnicate"]])
    def test_no_argv_reads_sys_argv(self, tmp_path, capsys, monkeypatch, argv):
        path = tmp_path / "c.csv"
        given = self._outcome(main, argv, path, capsys)
        monkeypatch.setattr(sys, "argv", ["relbell", *argv])
        assert self._outcome(lambda _: main(), argv, path, capsys) == given
