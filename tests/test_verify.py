"""The randomized invariant suite itself: all green on a correct build."""

import ast
import re

import numpy as np
import pytest

from relbell.kinematics import BoostSpec, FourMomentum
from relbell.linalg import max_abs_diff
from relbell.verify import ALL_CHECKS, CheckResult, check_oracle_equivalence, run_checks
from relbell.wigner import little_group_closed, little_group_oracle


class TestRunChecks:
    def test_all_pass_on_correct_build(self):
        results = run_checks(seed=42, samples=150)
        failed = [r.name for r in results if not r.passed]
        assert failed == [], failed

    def test_single_sample_runs(self):
        results = run_checks(seed=1, samples=1)
        assert len(results) == len(ALL_CHECKS)
        assert all(r.passed for r in results)

    def test_deterministic_for_fixed_seed(self):
        a = run_checks(seed=9, samples=50)
        b = run_checks(seed=9, samples=50)
        assert [(r.name, r.residual) for r in a] == [(r.name, r.residual) for r in b]

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError, match="samples"):
            run_checks(seed=0, samples=0)

    def test_every_check_reports_worst_inputs_fields(self):
        for r in run_checks(seed=3, samples=20):
            assert r.tolerance >= 0.0
            assert np.isfinite(r.residual)


class TestCheckResult:
    def test_pass_boundary_inclusive(self):
        assert CheckResult("x", 1e-12, 1e-12, 1).passed
        assert not CheckResult("x", 2e-12, 1e-12, 1).passed


class TestWorstInputs:
    def test_reported_inputs_reproduce_the_residual(self):
        # the floats print as round-trip reprs, so the worst sample rebuilds exactly;
        # at this seed the worst of 50 samples is the 27th, so describing the first
        # or the last sample instead would not reproduce it
        res = check_oracle_equivalence(np.random.default_rng(1), 50)
        assert res.residual > 0.0
        m = re.fullmatch(r"beta=(.+), e=(\[.+\]), p=(\[.+\])", res.worst)
        b = BoostSpec(ast.literal_eval(m[2]), float(m[1]))
        p = FourMomentum.from_spatial(ast.literal_eval(m[3]))
        recomputed = max_abs_diff(little_group_closed(b, p).su2, little_group_oracle(b, p))
        assert recomputed == res.residual

    def test_positive_residual_names_its_inputs(self):
        for r in run_checks(seed=5, samples=20):
            assert r.residual == 0.0 or r.worst, r.name
