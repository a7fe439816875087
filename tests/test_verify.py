"""The randomized invariant suite itself: all green on a correct build."""

import ast
import inspect
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import draw_reference
import verify_reference
from relbell import verify
from relbell.bell import bell_decompose, bell_state, boost_two_particle
from relbell.kinematics import (
    BoostSpec,
    FourMomentum,
    X_HAT,
    apply_boost,
    boost_matrix,
    minkowski_defect,
    standard_boost,
)
from relbell.linalg import max_abs_diff
from relbell.observables import (
    CASE1_SETTINGS,
    CASE2_SETTINGS,
    chsh,
    chsh_case1_closed,
    chsh_universal,
)
from relbell.verify import (
    ALL_CHECKS,
    CheckResult,
    _AMPS,
    _DIRECTION,
    _batch,
    _boosts,
    _draws,
    _momenta_and_boosts,
    _paper_draw,
    check_boost_inverse,
    check_chsh_curves,
    check_lorentz_spinor_angle,
    check_minkowski_orthogonality,
    check_mixing_rotation,
    check_oracle_equivalence,
    check_sector_invariance,
    check_standard_boost,
    run_checks,
)
from relbell.wigner import (
    little_group_closed,
    little_group_lorentz,
    little_group_oracle,
    rotation_angle,
    wigner_angle,
)

_PAPER_INPUTS = r"beta=(.+), E/m=(.+)"


def _scalar_samples(rng, samples):
    """The momentum-and-boost samples of the oracle checks, drawn one at a time as in the
    sample order and built by the public scalar constructors."""
    for _ in range(samples):
        p = FourMomentum.from_spatial(draw_reference.spatial_momentum(rng, 1e3))
        yield p, BoostSpec(draw_reference.unit(rng), rng.uniform(0.0, 0.99))


def _worst_sample(rng, samples, worst):
    """The one scalar sample whose ``beta=..., E/m=...`` (either order) is ``worst``."""
    found = [(p, b) for p, b in _scalar_samples(rng, samples)
             if worst in (f"beta={b.beta}, E/m={p.gamma}", f"E/m={p.gamma}, beta={b.beta}")]
    assert len(found) == 1, worst
    return found[0]


def _paper_pair(i, j, beta, e_over_m):
    """The public scalar route of the paper's geometry: bell_state, then boost_two_particle."""
    return boost_two_particle(bell_state(i, j, FourMomentum.along_z(e_over_m)),
                              BoostSpec(X_HAT, beta))


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
        # at seed 2 and 7 samples a residual formed as np.float64 once won the reduction
        for r in run_checks(seed=3, samples=20) + run_checks(seed=2, samples=7):
            assert r.tolerance >= 0.0
            assert type(r.residual) is float, r.name
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

    # The batched checks below evaluate all their samples at once; the worst
    # inputs they report must rebuild the residual through the public scalar
    # functions, so each batch still measures the public route.
    def test_sector_invariance_inputs_rebuild_through_public_calls(self):
        # the pair kernel keeps the sectors exactly here, so every sample's leak,
        # rebuilt through the public calls in the check's draw order, is the residual
        res = check_sector_invariance(np.random.default_rng(1), 50)
        rng = np.random.default_rng(1)
        leaks = []
        for _ in range(50):
            beta, e_over_m = draw_reference.paper_draw(rng, 1.0)
            for i, j in ((0, 0), (1, 1), (0, 1), (1, 0)):
                out = bell_decompose(_paper_pair(i, j, beta, e_over_m)).as_array()
                leaks.append(max(abs(out[o]) for o in ((1, 2) if i == j else (0, 3))))
        assert max(leaks) == res.residual == 0.0 and res.worst == ""

    def test_mixing_rotation_inputs_rebuild_through_public_calls(self):
        res = check_mixing_rotation(np.random.default_rng(1), 50)
        assert res.residual > 0.0
        beta, e_over_m = map(float, re.fullmatch(_PAPER_INPUTS, res.worst).groups())
        om = wigner_angle(beta, e_over_m)
        c00 = bell_decompose(_paper_pair(0, 0, beta, e_over_m)).as_array()
        c11 = bell_decompose(_paper_pair(1, 1, beta, e_over_m)).as_array()
        recomputed = max(max_abs_diff(c00, [math.cos(om), 0.0, 0.0, -math.sin(om)]),
                         max_abs_diff(c11, [math.sin(om), 0.0, 0.0, math.cos(om)]))
        assert recomputed == res.residual

    def test_chsh_curves_inputs_rebuild_through_public_calls(self):
        res = check_chsh_curves(np.random.default_rng(1), 50)
        assert res.residual > 0.0
        beta, e_over_m = map(float, re.fullmatch(_PAPER_INPUTS, res.worst).groups())
        s10, s00 = (_paper_pair(i, j, beta, e_over_m) for i, j in ((1, 0), (0, 0)))
        recomputed = max(abs(chsh(s10, CASE2_SETTINGS, beta, X_HAT) - chsh_universal(beta)),
                         abs(chsh(s00, CASE1_SETTINGS, beta, X_HAT)
                             - chsh_case1_closed(beta, wigner_angle(beta, e_over_m))))
        assert recomputed == res.residual

    def test_lorentz_spinor_angle_random_worst_rebuilds_through_public_calls(self):
        # at this seed and size a random sample beats the 60 special-geometry rows
        res = check_lorentz_spinor_angle(np.random.default_rng(20), 200)
        assert not res.worst.startswith("special")
        p, b = _worst_sample(np.random.default_rng(20), 200, res.worst)
        omega = rotation_angle(little_group_lorentz(b, p))
        recomputed = abs(omega - little_group_closed(b, p).omega)
        assert recomputed == res.residual

    def test_lorentz_spinor_angle_special_worst_rebuilds_through_public_calls(self):
        res = check_lorentz_spinor_angle(np.random.default_rng(1), 50)
        assert res.residual > 0.0
        beta, e_over_m = map(float, re.fullmatch("special " + _PAPER_INPUTS, res.worst).groups())
        omega = rotation_angle(little_group_lorentz(BoostSpec(X_HAT, beta),
                                                    FourMomentum.along_z(e_over_m)))
        assert abs(omega - wigner_angle(beta, e_over_m)) == res.residual

    def test_standard_boost_inputs_rebuild_through_public_calls(self):
        res = check_standard_boost(np.random.default_rng(1), 50)
        assert res.residual > 0.0
        p, b = _worst_sample(np.random.default_rng(1), 50, res.worst)
        mapped = apply_boost(standard_boost(p), FourMomentum.rest(p.m)).four_vector
        recomputed = max(float(np.max(np.abs(mapped - p.four_vector))) / max(p.E, 1.0),
                         abs(little_group_lorentz(b, p)[3, 3] - 1.0))
        assert recomputed == res.residual

    @pytest.mark.parametrize("check", [check_minkowski_orthogonality, check_boost_inverse])
    def test_boost_inputs_rebuild_through_public_calls(self, check):
        res = check(np.random.default_rng(1), 50)
        assert res.residual > 0.0
        m = re.fullmatch(r"beta=(.+), e=(\[.+\])", res.worst)
        b = BoostSpec(ast.literal_eval(m[2]), float(m[1]))
        L = boost_matrix(b)
        recomputed = (minkowski_defect(L) if check is check_minkowski_orthogonality
                      else max_abs_diff(L @ boost_matrix(b.inverse()), np.eye(4)))
        assert recomputed == res.residual

    def test_positive_residual_names_its_inputs(self):
        for r in run_checks(seed=5, samples=20):
            assert r.residual == 0.0 or r.worst, r.name


_SEEDS = range(200)
_SIZES = (1, 2, 50)  # each draw checked as a prefix of one 50-sample reference per seed
_LARGE, _LARGE_SEEDS = 1000, range(2)


class _Drawn(Exception):
    """Raised in place of a check's evaluation, carrying the draws it was about to use."""


def _bytes(columns):
    return [(c.dtype.str, c.shape, c.tobytes()) for c in columns]


@pytest.fixture(scope="session")
def numpys_draws():
    """``draw_reference.stacked(reference, default_rng(seed), size)``, drawn once per session:
    several checks and helpers share one reference."""
    drawn = {}

    def draws(reference, seed, size):
        if (reference, seed, size) not in drawn:
            drawn[reference, seed, size] = draw_reference.stacked(
                reference, np.random.default_rng(seed), size)
        return drawn[reference, seed, size]
    return draws


def _assert_numpys_draws(numpys_draws, draw, reference, seeds=_SEEDS, sizes=_SIZES):
    """``draw(rng, n)`` gives, column for column and byte for byte, the first n samples
    of ``reference`` drawn one sample at a time with numpy's own calls."""
    for seed in seeds:
        want = numpys_draws(reference, seed, max(sizes))
        for n in sizes:
            got = draw(np.random.default_rng(seed), n)
            assert _bytes(got) == _bytes(w[:n] for w in want), (seed, n)


class TestDrawsAreNumpys:
    """The draws equal numpy's ``normal``/``uniform`` draws in the same order, bit for bit."""

    def test_batched_arithmetic_over_many_samples(self, numpys_draws):
        # the directions' v/|v| and the momenta's |p| v run over the stacked rows
        _assert_numpys_draws(
            numpys_draws, lambda rng, n: _draws(rng, n, _DIRECTION, verify._momentum(1e4)),
            lambda rng: (draw_reference.unit(rng), draw_reference.spatial_momentum(rng, 1e4)),
            sizes=_SIZES + (_LARGE,))

    @pytest.mark.parametrize("seeds, sizes", [(_SEEDS, _SIZES), (_LARGE_SEEDS, (_LARGE,))])
    def test_helpers(self, numpys_draws, seeds, sizes):
        def boosts(rng, n):
            b = _boosts(rng, n)
            return b.e, b.beta

        def momenta_and_boosts(max_gamma, beta_max):
            def draw(rng, n):
                p, b = _momenta_and_boosts(rng, n, max_gamma, beta_max)
                return p.p, b.e, b.beta
            return draw
        cases = [
            (boosts, draw_reference.boost()),
            (momenta_and_boosts(1e3, 0.99), draw_reference.momentum_and_boost()),
            (momenta_and_boosts(1e4, 0.999), draw_reference.momentum_and_boost(1e4, 0.999)),
            (lambda rng, n: _draws(rng, n, *_paper_draw()), draw_reference.paper_draw),
            (lambda rng, n: _draws(rng, n, *_paper_draw(1.0)), draw_reference.paper_draw_from_1),
            (lambda rng, n: _draws(rng, n, _AMPS), lambda rng: (draw_reference.random_amps(rng),)),
        ]
        for draw, reference in cases:
            _assert_numpys_draws(numpys_draws, draw, reference, seeds, sizes)

    @pytest.mark.parametrize("name", sorted(draw_reference.CHECK_DRAWS))
    def test_each_checks_draws(self, monkeypatch, numpys_draws, name):
        real = verify._draws

        def recording(*args):
            raise _Drawn(real(*args))
        monkeypatch.setattr(verify, "_draws", recording)

        def draw(rng, n):
            with pytest.raises(_Drawn) as drawn:
                getattr(verify, name)(rng, n)
            return drawn.value.args[0]
        reference = draw_reference.CHECK_DRAWS[name]
        _assert_numpys_draws(numpys_draws, draw, reference)
        _assert_numpys_draws(numpys_draws, draw, reference, _LARGE_SEEDS, (_LARGE,))

    def test_every_drawing_check_has_a_reference(self):
        whole_batch = {"check_tensor_product", "check_matrix_exponential"}
        drawing = {c.__name__ for c in ALL_CHECKS if c is not verify.check_wigner_monotonicity}
        assert drawing - whole_batch == set(draw_reference.CHECK_DRAWS)


class _Recorder:
    """A Generator whose method calls are logged as (name, args, kwargs) before they run."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            self._calls.append((name, args, kwargs))
            return method(*args, **kwargs)
        return call


def test_per_sample_draws_call_only_the_cheap_primitives():
    """``normal`` and ``uniform`` give the bits of ``standard_normal`` and ``random`` at a higher
    cost per call; only the two checks that draw all their samples in one call keep them."""
    calls = {}

    def recorded(check):
        def run(rng, samples):
            calls[check.__name__] = []
            return check(_Recorder(rng, calls[check.__name__]), samples)
        return run
    results = run_checks(0, 5, checks=[recorded(c) for c in ALL_CHECKS])
    assert results == run_checks(0, 5)
    whole_batch = {"check_tensor_product": "normal", "check_matrix_exponential": "uniform"}
    for name, log in calls.items():
        if name in whole_batch:
            ((method, _, kwargs),) = log
            assert method == whole_batch[name] and kwargs["size"][0] == 5, log
        else:
            assert {method for method, _, _ in log} <= {"standard_normal", "random"}, (name, log)
    assert sum(map(len, calls.values())) > 5 * len(draw_reference.CHECK_DRAWS)


@pytest.mark.parametrize("name", sorted(verify_reference.PER_STATE))
def test_stacked_checks_equal_the_per_state_form(name):
    """Stacking a check's states, settings and rows into one kernel call moves no bit:
    the residual, the reported inputs and the sample count are the per-state form's."""
    check, reference = getattr(verify, name), verify_reference.PER_STATE[name]
    for seed in range(20):
        for samples in (1, 7, 50):
            got = check(np.random.default_rng(seed), samples)
            want = reference(np.random.default_rng(seed), samples)
            assert repr(got) == repr(want), (seed, samples)


#: Generator calls of ``run_checks(0, 50)``: one per run of same-kind draws in a sample
GENERATOR_CALLS = 1656


def test_run_checks_makes_one_kernel_call_per_check_and_few_generator_calls(monkeypatch):
    """The dispatch bound of a 50-sample run: the pair kernel, the 4x4 oracle and the
    Generator are each called a fixed, small number of times.  A check that goes back to
    one call per state, per row set or per draw shows up here."""
    counts = {"boost_two_particle": 0, "little_group_lorentz": 0}

    def counted(name):
        real = getattr(verify, name)

        def call(*args):
            counts[name] += 1
            return real(*args)
        return call
    generator_calls = []

    def recorded(check):
        return lambda rng, samples: check(_Recorder(rng, generator_calls), samples)
    expected = run_checks(0, 50)
    for name in counts:
        monkeypatch.setattr(verify, name, counted(name))
    assert run_checks(0, 50, checks=[recorded(c) for c in ALL_CHECKS]) == expected
    assert counts == {"boost_two_particle": 7, "little_group_lorentz": 2}
    assert len(generator_calls) <= GENERATOR_CALLS


class TestNanResiduals:
    """A NaN residual is the worst: the first NaN wins and its check fails, inputs named."""

    def test_batch_reports_the_first_nan(self):
        res = _batch("x", 1e-12, 3, np.array([1e-20, np.nan, 5e-13]), lambda k: f"sample {k}")
        assert math.isnan(res.residual) and res.worst == "sample 1" and not res.passed

    @pytest.mark.parametrize("check, closed_form", [
        (check_chsh_curves, "chsh_case1_closed"),
        (verify.check_closed_form_correlations, "expectation_case2_closed"),
    ])
    def test_nan_in_the_second_comparison_fails_its_check(self, monkeypatch, check, closed_form):
        # each sample's residual is the larger of two comparisons; a NaN in either is the worst
        monkeypatch.setattr(verify, closed_form, lambda *args: np.full(3, math.nan))
        res = check(np.random.default_rng(0), 3)
        assert math.isnan(res.residual) and res.worst.startswith("beta=") and not res.passed

    def test_cli_verify_fails_on_a_nan(self, monkeypatch, capsys):
        from relbell import cli

        def check_nan(rng, samples):
            return _batch("nan_check", 1e-12, samples, np.array([0.0, np.nan]),
                          lambda k: f"sample {k}")
        monkeypatch.setattr(cli, "run_checks",
                            lambda seed, samples: run_checks(seed, samples, checks=(check_nan,)))
        assert cli.main(["verify", "--seed", "0", "--samples", "2"]) == 1
        out = capsys.readouterr().out
        assert "check nan_check: max_residual=nan" in out and "FAIL" in out
        assert "worst inputs: sample 1" in out


def _worst(name, tol, samples, trials):
    """The reduction rule written as a plain fold over (residual, describe) pairs.

    The first strict maximum above 0 wins, and a NaN beats every number, so
    the first NaN is the worst; ``describe()`` runs for each new maximum.
    """
    worst, arg = 0.0, ""
    for r, describe in trials:
        if r > worst or (math.isnan(r) and not math.isnan(worst)):
            worst, arg = r, describe()
    return CheckResult(name, worst, tol, samples, arg)


class TestBatchIsWorst:
    """``_batch`` picks the sample the fold ``_worst`` would: the same residual and inputs."""

    @pytest.mark.parametrize("residuals", [
        [0.0], [-1.0, -2.0], [-0.0, 0.0], [3e-13, 1e-12, 1e-12, 2e-13], [1e-12, 1e-12],
        [np.nan], [np.nan, np.nan], [1e-9, np.inf, np.nan], [5e-13, np.inf, np.inf],
        [1e-20, np.nan, 5e-13, np.nan, 1.0],
    ])
    def test_edge_cases(self, residuals):
        self._assert_same(np.array(residuals, dtype=float))

    def test_random_batches(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            r = rng.choice([-1e-12, 0.0, 1e-13, 2e-13, 1e-12, np.nan], size=rng.integers(1, 12))
            self._assert_same(r)

    @staticmethod
    def _assert_same(residuals):
        describe = lambda k: f"sample {k}"  # noqa: E731
        got = _batch("x", 1e-12, len(residuals), residuals, describe)
        want = _worst("x", 1e-12, len(residuals),
                      ((r, lambda k=k: describe(k)) for k, r in enumerate(residuals.tolist())))
        assert repr(got) == repr(want)


class TestOneReducer:
    """Every check reduces its residuals through ``_batch``; no second reducer comes back."""

    _TREE = ast.parse(inspect.getsource(verify))

    def test_no_generator_and_no_fold(self):
        for node in ast.walk(self._TREE):
            assert not isinstance(node, (ast.Yield, ast.YieldFrom)), node.lineno
            assert not (isinstance(node, ast.FunctionDef) and node.name == "_worst")
            assert not (isinstance(node, ast.Name) and node.id == "_worst"), node.lineno

    @pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__)
    def test_check_returns_through_batch(self, check):
        (function,) = ast.parse(textwrap.dedent(inspect.getsource(check))).body
        last = function.body[-1]
        assert isinstance(last, ast.Return) and isinstance(last.value, ast.Call), check
        assert isinstance(last.value.func, ast.Name) and last.value.func.id == "_batch", check


def test_cli_verify_leaks_no_numpy_warnings():
    """Masked rows (at rest, zero boost, the series branch) must not warn on the CLI's stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "relbell.cli", "verify",
                           "--seed", "3", "--samples", "200"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
