"""CHSH maximization: the closed form against known optima and the search oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf, sqrt

from draw_reference import spatial_momentum, unit
import error_audit
import mp_oracle
from relbell.bell import TwoQubitState, bell_state, boost_two_particle
from relbell.cli import BETA_CLAMP
from relbell.kinematics import BoostSpec, FourMomentum, X_HAT, _unchecked
from relbell.observables import (REST_OPTIMAL_SETTINGS, TSIRELSON_BOUND, _correlation_tensor,
                                  chsh, chsh_max)
from relbell.optimizer import maximize_chsh, search_chsh

STATES = ("00", "01", "10", "11")
S2 = 1.0 / math.sqrt(2.0)
ULP1 = math.ulp(1.0)


def _boosted(state, beta, e_over_m=10.0):
    s = bell_state(int(state[0]), int(state[1]), FourMomentum.along_z(e_over_m))
    if beta == 0.0:
        return s
    return boost_two_particle(s, BoostSpec(X_HAT, beta))


def _random_pure_state(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return TwoQubitState(amps / np.linalg.norm(amps), 1.0, FourMomentum.along_z(10.0))


def _settings_array(res):
    c = res.settings
    return np.array([c.a, c.a_prime, c.b, c.b_prime])


class TestRestRecovery:
    @pytest.mark.parametrize("state", STATES)
    def test_reaches_tsirelson_at_rest(self, state):
        for e_over_m in (10.0, 1000.0):
            s = _boosted(state, 0.0, e_over_m)
            res = maximize_chsh(s, 0.0, X_HAT)
            assert abs(res.value - TSIRELSON_BOUND) <= 1e-12
            assert abs(chsh(s, res.settings, 0.0, X_HAT) - res.value) <= 1e-12
            assert res.iterations == 0 and res.converged is True

    def test_value_consistent_with_public_path(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            s, beta, e = _random_pure_state(rng), rng.uniform(0.0, 0.99), unit(rng)
            res = maximize_chsh(s, beta, e)
            assert abs(chsh(s, res.settings, beta, e) - res.value) <= 1e-12


class TestBoostedRecovery:
    """A boosted Bell pair differs from the rest-frame one by a local unitary,
    so 2*sqrt(2) stays attainable at every beta < 1, the clamped row included."""

    @pytest.mark.parametrize("beta", [0.3, 0.6, 0.9, 0.99, 0.99999, 0.999999, BETA_CLAMP])
    @pytest.mark.parametrize("e_over_m", [10.0, 1000.0])
    @pytest.mark.parametrize("state", STATES)
    def test_reaches_tsirelson_boosted(self, state, e_over_m, beta):
        s = _boosted(state, beta, e_over_m)
        res = maximize_chsh(s, beta, X_HAT)
        assert abs(res.value - TSIRELSON_BOUND) <= 1e-12
        assert np.all(np.isfinite(_settings_array(res)))
        assert abs(chsh(s, res.settings, beta, X_HAT) - res.value) <= 1e-12


class TestRankDeficient:
    """Product states have a rank-one T (s1 = 1, s2 = 0): the bare formula
    would divide by T(b - b') = 0."""

    @pytest.mark.parametrize("amps", [(1.0, 0.0, 0.0, 0.0), (S2, S2, 0.0, 0.0)],
                             ids=["up_up", "up_xplus"])
    def test_product_states(self, amps):
        s = TwoQubitState(np.array(amps, dtype=complex), 1.0, FourMomentum.along_z(10.0))
        res = maximize_chsh(s, 0.3, X_HAT)
        assert abs(res.value - 2.0) <= 1e-12
        assert np.all(np.isfinite(_settings_array(res)))
        assert abs(chsh(s, res.settings, 0.3, X_HAT) - res.value) <= 1e-12


_COMPONENTS = st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).filter(
    lambda v: sum(x * x for x in v) > 1e-6)
_DIRECTION = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: sum(x * x for x in v) > 1e-6)


class TestAgainstFortyDigits:
    """The value is the 40-digit Horodecki bound, and the settings reach it."""

    @settings(max_examples=100)
    @given(parts=_COMPONENTS, beta=st.floats(0.0, BETA_CLAMP), e=_DIRECTION)
    # a product state: s2 = 0, so a' is U's second column, not T(b - b') = 0
    @example(parts=[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], beta=0.3, e=(0.0, 0.6, 0.8))
    # cos(0.3)|00> + sin(0.3)|11>: a along z, perpendicular to e = x, at the clamped speed
    @example(parts=[math.cos(0.3), 0.0, 0.0, math.sin(0.3), 0.0, 0.0, 0.0, 0.0],
             beta=BETA_CLAMP, e=(1.0, 0.0, 0.0))
    def test_value_and_settings_reach_the_bound(self, parts, beta, e):
        amps = np.array(parts[:4]) + 1j * np.array(parts[4:])
        s = TwoQubitState(amps / np.linalg.norm(amps), 1.0, FourMomentum.along_z(10.0))
        e = np.array(e) / np.linalg.norm(e)
        res = maximize_chsh(s, beta, e)
        bound = mp_oracle.horodecki_bound(s.amps)
        # the worst seen, over these examples and 300 seeded draws, is 6.5 ulp(1)
        # for the value and 10 for chsh at the settings
        for value in (res.value, chsh(s, res.settings, beta, e)):
            assert float(abs(mpf(value) - bound)) <= 16 * math.ulp(1.0)


class TestChshMax:
    """``chsh_max``, the value of every optimal path, against 40 digits and the SVD of T.

    Over 3000 pure states (``tests/error_audit.py --optimal 3000``) its worst
    error is 2.36 ulp(1), against 5.52 for 2 sqrt(s1^2 + s2^2) from a float SVD.
    """

    @settings(max_examples=100)
    @given(parts=_COMPONENTS)
    @example(parts=[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])  # a product state: C = 0
    @example(parts=[math.cos(0.3), 0.0, 0.0, math.sin(0.3), 0.0, 0.0, 0.0, 0.0])
    @example(parts=[0.0, S2, -S2, 0.0, 0.0, 0.0, 0.0, 0.0])  # a Bell pair: C = 1
    @example(parts=[1e-3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-3])  # (|++> + i|-->)/sqrt(2): C = 1
    def test_random_states(self, parts):
        amps = np.array(parts[:4]) + 1j * np.array(parts[4:])
        s = TwoQubitState(amps / np.linalg.norm(amps), 1.0, FourMomentum.along_z(10.0))
        value = chsh_max(s)
        assert type(value) is float
        reference = mp_oracle.chsh_max(s.amps)
        assert float(abs(mpf(value) - reference)) <= 4 * ULP1
        with mp.workdps(mp_oracle.DPS):  # the SVD route at 40 digits, on the unit state
            psi = [mpc(complex(a)) for a in s.amps]
            norm = sqrt(sum(abs(a) ** 2 for a in psi))
            assert abs(mp_oracle.horodecki_bound([a / norm for a in psi]) - reference) <= 1e-35
        singular = np.linalg.svd(np.reshape(_correlation_tensor(s.amps), (3, 3)),
                                 compute_uv=False)
        assert abs(2.0 * math.hypot(singular[0], singular[1]) - value) <= 16 * ULP1
        assert maximize_chsh(s, 0.3, X_HAT).value == value

    def test_boosted_bell_pairs(self):
        """A boost is a local unitary: C stays 1 and the maximum 2 sqrt(2), to the domain's edge."""
        rng = np.random.default_rng(29)
        exact = mp_oracle.chsh_max([S2, 0.0, 0.0, S2])
        for k in range(200):
            p = FourMomentum.from_spatial(spatial_momentum(rng, 1e6))
            s = bell_state(int(rng.integers(2)), int(rng.integers(2)), p)
            beta = BETA_CLAMP if k % 10 == 0 else float(rng.uniform(0.0, BETA_CLAMP))
            s = boost_two_particle(s, BoostSpec(unit(rng), beta))
            value = chsh_max(s)
            assert float(abs(mpf(value) - mp_oracle.chsh_max(s.amps))) <= 4 * ULP1
            assert float(abs(mpf(value) - exact)) <= 4 * ULP1

    def test_product_states_give_two(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            u, v = (z / np.linalg.norm(z) for z in rng.normal(size=(2, 2)) + 1j * rng.normal(
                size=(2, 2)))
            s = TwoQubitState(np.kron(u, v), 1.0, FourMomentum.along_z(10.0))
            assert chsh_max(s) == 2.0

    def test_audit_of_the_optimal_values(self):
        """The audit's optimal grid at 11 betas and 200 pure states, scored against 40 digits."""
        scores = error_audit.score_optimal(200, steps=11)
        assert max(e for errors in scores.values() for _, e in errors) <= 3.0

    def test_nonfinite_amplitudes_raise(self):
        s = _unchecked(TwoQubitState, amps=np.full(4, complex(math.nan, 0.0)))
        with pytest.raises(ArithmeticError, match="^concurrence not finite$"):
            chsh_max(s)


class TestDominance:
    @pytest.mark.parametrize("beta", [0.0, 0.4, 0.8])
    def test_beats_fixed_settings(self, beta):
        s = _boosted("10", beta)
        res = maximize_chsh(s, beta, X_HAT)
        baseline = chsh(s, REST_OPTIMAL_SETTINGS["10"], beta, X_HAT)
        assert res.value >= baseline - 1e-12

    def test_never_exceeds_tsirelson(self):
        for beta in (0.0, 0.5, 0.9):
            res = maximize_chsh(_boosted("00", beta), beta, X_HAT)
            assert res.value <= TSIRELSON_BOUND + 1e-12

    def test_at_least_the_search_value(self):
        rng = np.random.default_rng(17)
        for k in range(8):
            s, beta, e = _random_pure_state(rng), rng.uniform(0.0, 0.95), unit(rng)
            value = maximize_chsh(s, beta, e).value
            reference = search_chsh(s, beta, e, restarts=4, seed=k).value
            assert reference - 1e-12 <= value <= TSIRELSON_BOUND + 1e-12


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        kwargs = dict(restarts=6, tol=1e-9, seed=42)
        a = search_chsh(_boosted("00", 0.5), 0.5, X_HAT, **kwargs)
        b = search_chsh(_boosted("00", 0.5), 0.5, X_HAT, **kwargs)
        assert a.value == b.value
        assert a.iterations == b.iterations
        assert a.converged == b.converged
        np.testing.assert_array_equal(a.settings.a, b.settings.a)
        np.testing.assert_array_equal(a.settings.a_prime, b.settings.a_prime)
        np.testing.assert_array_equal(a.settings.b, b.settings.b)
        np.testing.assert_array_equal(a.settings.b_prime, b.settings.b_prime)

    def test_different_seeds_may_differ_but_agree_on_value(self):
        a = search_chsh(_boosted("10", 0.0), 0.0, X_HAT, restarts=8, seed=1)
        b = search_chsh(_boosted("10", 0.0), 0.0, X_HAT, restarts=8, seed=2)
        assert a.value == pytest.approx(b.value, abs=1e-6)


class TestValidation:
    def test_beta_range(self):
        for fn in (maximize_chsh, search_chsh):
            with pytest.raises(ValueError, match="beta"):
                fn(_boosted("10", 0.0), 1.0, X_HAT)

    def test_restarts_positive(self):
        with pytest.raises(ValueError, match="restarts"):
            search_chsh(_boosted("10", 0.0), 0.0, X_HAT, restarts=0)

    def test_tol_positive(self):
        with pytest.raises(ValueError, match="tol"):
            search_chsh(_boosted("10", 0.0), 0.0, X_HAT, tol=0.0)

    def test_convergence_flag_reports_budget_exhaustion(self):
        res = search_chsh(_boosted("10", 0.0), 0.0, X_HAT,
                          restarts=1, max_iterations=3, seed=5)
        assert res.converged is False
