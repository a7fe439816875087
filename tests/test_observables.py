"""Boost-corrected spin observables, joint expectations and CHSH curves."""

import math

import numpy as np
import pytest

import mp_oracle
from relbell.bell import TwoQubitState, bell_state, boost_two_particle
from relbell.cli import BETA_CLAMP
from relbell.kinematics import BoostSpec, FourMomentum, X_HAT, Y_HAT, Z_HAT
from relbell.linalg import IDENTITY2, max_abs_diff, sigma_dot
from relbell.observables import (
    CASE1_SETTINGS,
    CASE2_SETTINGS,
    REST_OPTIMAL_SETTINGS,
    ChshSettings,
    SpinObservable,
    TSIRELSON_BOUND,
    chsh,
    chsh_case1_closed,
    chsh_universal,
    expectation_case1_closed,
    expectation_case2_closed,
    joint_expectation,
    _observable_vector,
    rel_spin_observable,
)
from relbell.verify import _unit
from relbell.wigner import wigner_angle

S2 = 1.0 / math.sqrt(2.0)


def _boosted(i, j, beta, e_over_m=10.0):
    s = bell_state(i, j, FourMomentum.along_z(e_over_m))
    if beta == 0.0:
        return s
    return boost_two_particle(s, BoostSpec(X_HAT, beta))


class TestRelSpinObservable:
    def test_reduces_to_pauli_at_rest(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = _unit(rng)
            got = rel_spin_observable(a, 0.0, X_HAT).m
            assert max_abs_diff(got, sigma_dot(a)) < 1e-15

    def test_parallel_direction_unchanged(self):
        for beta in (0.0, 0.5, 0.99, 1.0):
            got = rel_spin_observable(X_HAT, beta, X_HAT).m
            assert max_abs_diff(got, sigma_dot(X_HAT)) < 1e-14

    def test_perpendicular_direction_unchanged(self):
        # the sqrt(1-beta^2) factors cancel against the normalizer
        for beta in (0.1, 0.6, 0.95):
            got = rel_spin_observable(Z_HAT, beta, X_HAT).m
            assert max_abs_diff(got, sigma_dot(Z_HAT)) < 1e-14

    def test_squares_to_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            m = rel_spin_observable(_unit(rng), rng.uniform(0, 1), _unit(rng)).m
            assert max_abs_diff(m @ m, IDENTITY2) < 1e-12

    def test_light_speed_needs_parallel_component(self):
        with pytest.raises(ValueError, match="perpendicular"):
            rel_spin_observable(Z_HAT, 1.0, X_HAT)
        got = rel_spin_observable(np.array([-1.0, 0.0, 0.0]), 1.0, X_HAT).m
        assert max_abs_diff(got, -sigma_dot(X_HAT)) < 1e-14

    def test_beta_range(self):
        with pytest.raises(ValueError, match="beta"):
            rel_spin_observable(Z_HAT, 1.5, X_HAT)


class TestJointExpectation:
    def test_correlated_pair_z(self):
        s = _boosted(0, 0, 0.0)
        z = rel_spin_observable(Z_HAT, 0.0, X_HAT)
        assert joint_expectation(s, z, z) == pytest.approx(1.0, abs=1e-14)

    def test_correlated_pair_y(self):
        s = _boosted(0, 0, 0.0)
        y = rel_spin_observable(Y_HAT, 0.0, X_HAT)
        assert joint_expectation(s, y, y) == pytest.approx(-1.0, abs=1e-14)

    def test_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps /= np.linalg.norm(amps)
            s = TwoQubitState(amps=amps, kin_factor=1.0,
                              p_label=FourMomentum.along_z(2.0))
            beta = rng.uniform(0, 0.99)
            A = rel_spin_observable(_unit(rng), beta, X_HAT)
            B = rel_spin_observable(_unit(rng), beta, X_HAT)
            assert abs(joint_expectation(s, A, B)) <= 1.0 + 1e-12


class TestClosedFormCase1:
    def test_rest_limit(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = _unit(rng), _unit(rng)
            got = expectation_case1_closed(a, b, 0.0, 0.0)
            assert got == pytest.approx(a[0] * b[0] - a[1] * b[1] + a[2] * b[2], abs=1e-14)

    def test_light_speed_limit(self):
        # correlations collapse onto the boost axis
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = _unit(rng), _unit(rng)
            if abs(a[0]) < 1e-3 or abs(b[0]) < 1e-3:
                continue
            om = rng.uniform(0, math.pi / 2)
            got = expectation_case1_closed(a, b, 1.0, om)
            expected = math.copysign(1, a[0]) * math.copysign(1, b[0]) * math.cos(2 * om)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_matches_matrix_path(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            beta = rng.uniform(0, 0.99)
            r = math.exp(rng.uniform(math.log(1.001), math.log(1e3)))
            om = wigner_angle(beta, r)
            s = _boosted(0, 0, beta, r)
            a, b = _unit(rng), _unit(rng)
            A = rel_spin_observable(a, beta, X_HAT)
            B = rel_spin_observable(b, beta, X_HAT)
            assert abs(joint_expectation(s, A, B)
                       - expectation_case1_closed(a, b, beta, om)) < 1e-12


class TestClosedFormCase2:
    def test_rest_limit(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = _unit(rng), _unit(rng)
            got = expectation_case2_closed(a, b, 0.0)
            assert got == pytest.approx(a[0] * b[0] + a[1] * b[1] - a[2] * b[2], abs=1e-14)

    def test_light_speed_limit(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b = _unit(rng), _unit(rng)
            if abs(a[0]) < 1e-3 or abs(b[0]) < 1e-3:
                continue
            got = expectation_case2_closed(a, b, 1.0)
            assert got == pytest.approx(
                math.copysign(1, a[0]) * math.copysign(1, b[0]), abs=1e-12)

    def test_matches_matrix_path(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            beta = rng.uniform(0, 0.99)
            r = math.exp(rng.uniform(math.log(1.001), math.log(1e3)))
            s = _boosted(1, 0, beta, r)
            a, b = _unit(rng), _unit(rng)
            A = rel_spin_observable(a, beta, X_HAT)
            B = rel_spin_observable(b, beta, X_HAT)
            assert abs(joint_expectation(s, A, B)
                       - expectation_case2_closed(a, b, beta)) < 1e-12


class TestChsh:
    def test_maximal_violation_at_rest(self):
        assert chsh(_boosted(0, 0, 0.0), CASE1_SETTINGS, 0.0, X_HAT) == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-12)
        assert chsh(_boosted(1, 0, 0.0), CASE2_SETTINGS, 0.0, X_HAT) == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-12)

    def test_exchange_sector_curve(self):
        # beta = 0.8: (2/sqrt(1.36)) * 1.6
        got = chsh(_boosted(1, 0, 0.8), CASE2_SETTINGS, 0.8, X_HAT)
        assert got == pytest.approx(2.0 / math.sqrt(1.36) * 1.6, abs=1e-13)
        assert got == pytest.approx(chsh_universal(0.8), abs=1e-13)

    def test_correlated_sector_curve(self):
        for beta in (0.2, 0.5, 0.8):
            for r in (10.0, 1000.0):
                om = wigner_angle(beta, r)
                got = chsh(_boosted(0, 0, beta, r), CASE1_SETTINGS, beta, X_HAT)
                assert got == pytest.approx(chsh_case1_closed(beta, om), abs=1e-12)

    def test_tsirelson_bound_random(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps /= np.linalg.norm(amps)
            s = TwoQubitState(amps=amps, kin_factor=1.0,
                              p_label=FourMomentum.along_z(2.0))
            settings = ChshSettings(a=_unit(rng), a_prime=_unit(rng),
                                    b=_unit(rng), b_prime=_unit(rng))
            val = chsh(s, settings, rng.uniform(0, 0.999), _unit(rng))
            assert abs(val) <= TSIRELSON_BOUND + 1e-12


class TestUniversalCurve:
    def test_rest_value(self):
        assert chsh_universal(0.0) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_light_speed_value(self):
        assert chsh_universal(1.0) == pytest.approx(2.0, abs=1e-12)

    def test_intermediate_value(self):
        assert chsh_universal(0.8) == pytest.approx((2.0 / math.sqrt(1.36)) * 1.6, rel=1e-15)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.0, 1.0, 1000)
        vals = [chsh_universal(float(b)) for b in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(2.0 - 1e-12 <= v <= 2.0 * math.sqrt(2.0) + 1e-12 for v in vals)

    def test_domain(self):
        with pytest.raises(ValueError):
            chsh_universal(1.2)


class TestRestOptimalSettings:
    def test_all_states_reach_tsirelson_at_rest(self):
        for state, settings in REST_OPTIMAL_SETTINGS.items():
            s = _boosted(int(state[0]), int(state[1]), 0.0)
            assert chsh(s, settings, 0.0, X_HAT) == pytest.approx(
                2.0 * math.sqrt(2.0), abs=1e-12), state

    def test_exchange_sector_follows_universal_curve(self):
        for state in ("01", "10"):
            for beta in (0.3, 0.6, 0.9, 0.99):
                s = _boosted(int(state[0]), int(state[1]), beta)
                got = chsh(s, REST_OPTIMAL_SETTINGS[state], beta, X_HAT)
                assert got == pytest.approx(chsh_universal(beta), abs=1e-12), state

    def test_correlated_sector_follows_rotating_curve(self):
        for state in ("00", "11"):
            for beta in (0.3, 0.6, 0.9):
                for r in (10.0, 100.0):
                    s = _boosted(int(state[0]), int(state[1]), beta, r)
                    got = chsh(s, REST_OPTIMAL_SETTINGS[state], beta, X_HAT)
                    om = wigner_angle(beta, r)
                    assert got == pytest.approx(chsh_case1_closed(beta, om), abs=1e-12), state


class TestSpinObservableType:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            SpinObservable(m=np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_wrong_normalization(self):
        with pytest.raises(ValueError, match="square"):
            SpinObservable(m=0.5 * sigma_dot(Z_HAT))

    def test_square_message(self):
        m = (1.0 + 1e-9) * sigma_dot(X_HAT)
        with pytest.raises(ValueError, match="^observable must square to the identity$"):
            SpinObservable(m=m)

    def test_rejects_trace(self):
        # Hermitian and squaring to the identity, but not traceless
        with pytest.raises(ValueError, match="^observable must be traceless$"):
            SpinObservable(m=np.eye(2))

    def test_rejects_wrong_shape_and_nan(self):
        with pytest.raises(ValueError, match="2x2"):
            SpinObservable(m=np.eye(4))
        with pytest.raises(ValueError, match="^observable must be Hermitian$"):
            SpinObservable(m=np.full((2, 2), np.nan))


class TestObservableVector:
    def test_equals_vector_expression(self):
        # the component-wise form does the 3-vector arithmetic bit for bit
        rng = np.random.default_rng(43)
        for k in range(300):
            a, e = _unit(rng), _unit(rng)
            beta = 1.0 if k == 0 else rng.uniform(0.0, 1.0)
            ae = float(a @ e)
            squeeze = (1.0 - beta) * (1.0 + beta)
            num = math.sqrt(squeeze) * (a - ae * e) + ae * e
            expected = num / math.sqrt(ae * ae + squeeze * (1.0 - ae * ae))
            assert _observable_vector(a, beta, e).tobytes() == expected.tobytes()


def _matrix_chsh(s, c, beta, e):
    """<AB> + <AB'> + <A'B> - <A'B'> through the validated 2x2 and 4x4 matrices."""
    A, Ap, B, Bp = (rel_spin_observable(v, beta, e) for v in (c.a, c.a_prime, c.b, c.b_prime))
    return (joint_expectation(s, A, B) + joint_expectation(s, A, Bp)
            + joint_expectation(s, Ap, B) - joint_expectation(s, Ap, Bp))


class TestKernelOracle:
    """The correlation-tensor kernel against the 40-digit oracle on the README scans."""

    def test_no_less_exact_than_matrix_route(self):
        settings = {"00": CASE1_SETTINGS, "11": CASE1_SETTINGS,
                    "01": CASE2_SETTINGS, "10": CASE2_SETTINGS}
        betas = [min(float(b), BETA_CLAMP) for b in np.linspace(0.0, 1.0, 11)]
        kernel = matrix = 0.0
        for state, c in settings.items():
            for r in (10.0, 100.0, 1000.0):
                for beta in betas:
                    s = _boosted(int(state[0]), int(state[1]), beta, r)
                    exact = mp_oracle.chsh(s.amps, (c.a, c.a_prime, c.b, c.b_prime), beta, X_HAT)
                    kernel = max(kernel, float(abs(chsh(s, c, beta, X_HAT) - exact)))
                    matrix = max(matrix, float(abs(_matrix_chsh(s, c, beta, X_HAT) - exact)))
        assert 0.0 < kernel <= matrix < 2e-15


class TestClosedFormOracle:
    """The closed forms against the 40-digit oracle as beta -> 1."""

    BETAS = [1.0 - 10.0 ** -k for k in range(3, 13)] + [1.0 - 1e-8, 0.0, 0.6, 1.0]

    def test_chsh_curves(self):
        for beta in self.BETAS:
            assert abs(chsh_universal(beta) - mp_oracle.chsh_case1(beta, 0.0)) < 1e-15, beta
            for om in (0.1, 0.7, 1.4):
                got = chsh_case1_closed(beta, om)
                assert abs(got - mp_oracle.chsh_case1(beta, om)) < 1e-15, (beta, om)

    def test_expectations_near_perpendicular(self):
        # directions within about 1e-3 of the plane perpendicular to the boost
        rng = np.random.default_rng(47)
        for _ in range(300):
            beta = 1.0 - 10.0 ** rng.uniform(-12.0, -3.0)
            a, b = (v / np.linalg.norm(v) for v in
                    (np.array([rng.uniform(-1e-3, 1e-3), *rng.normal(size=2)])
                     for _ in range(2)))
            om = rng.uniform(0.0, math.pi / 2)
            got1 = expectation_case1_closed(a, b, beta, om)
            got2 = expectation_case2_closed(a, b, beta)
            assert abs(got1 - mp_oracle.expectation_case1(a, b, beta, om)) < 1e-15, beta
            assert abs(got2 - mp_oracle.expectation_case2(a, b, beta)) < 1e-15, beta


class TestClosedFormDomain:
    """The closed forms fail where the matrix route does and return Python floats."""

    def test_perpendicular_at_light_speed(self):
        message = "^observable undefined: direction perpendicular to the boost at beta = 1$"
        with pytest.raises(ValueError, match=message):
            rel_spin_observable(Y_HAT, 1.0, X_HAT)
        for a, b in ((Y_HAT, X_HAT), (X_HAT, Z_HAT)):
            with pytest.raises(ValueError, match=message):
                expectation_case1_closed(a, b, 1.0, 0.3)
            with pytest.raises(ValueError, match=message):
                expectation_case2_closed(a, b, 1.0)

    def test_return_python_floats(self):
        a, b = np.array([0.6, 0.8, 0.0]), np.array([0.8, 0.0, 0.6])
        for beta in (0.0, 0.6, 1.0):
            assert type(expectation_case1_closed(a, b, beta, 0.3)) is float
            assert type(expectation_case2_closed(a, b, beta)) is float

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_nonfinite_angle_rejected(self, omega):
        with pytest.raises(ValueError, match="^omega must be finite"):
            chsh_case1_closed(0.5, omega)
        with pytest.raises(ValueError, match="^omega must be finite"):
            expectation_case1_closed(X_HAT, Z_HAT, 0.5, omega)


class TestKernelParity:
    """The kernel equals the matrix route off the paper's geometry."""

    @staticmethod
    def _draws(rng, n):
        for _ in range(n):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            s = TwoQubitState(amps=amps / np.linalg.norm(amps), kin_factor=1.0,
                              p_label=FourMomentum.along_z(2.0))
            c = ChshSettings(*(_unit(rng) for _ in range(4)))
            yield s, c, _unit(rng)

    def test_random_states_settings_and_boosts(self):
        rng = np.random.default_rng(71)
        for k, (s, c, e) in enumerate(self._draws(rng, 300)):
            beta = 1.0 if k % 10 == 0 else rng.uniform(0.0, 1.0)  # a.e != 0 almost surely
            assert abs(chsh(s, c, beta, e) - _matrix_chsh(s, c, beta, e)) <= 1e-14

    def test_same_errors_as_matrix_route(self):
        s, c, _ = next(self._draws(np.random.default_rng(72), 1))
        perp = ChshSettings(a=Z_HAT, a_prime=c.a_prime, b=c.b, b_prime=c.b_prime)
        for args, match in (((perp, 1.0, X_HAT), "perpendicular to the boost"),
                            ((c, 0.5, 2.0 * X_HAT), "boost direction must be a unit vector"),
                            ((c, 1.5, X_HAT), "beta must lie in"),
                            ((c, -0.1, X_HAT), "beta must lie in")):
            with pytest.raises(ValueError, match=match):
                chsh(s, *args)
            with pytest.raises(ValueError, match=match):
                _matrix_chsh(s, *args)

    def test_builds_no_matrices(self, monkeypatch):
        from relbell import observables

        def forbidden(*args, **kwargs):
            raise AssertionError("chsh left the correlation-tensor route")

        for name in ("rel_spin_observable", "joint_expectation", "tensor", "sigma_dot"):
            monkeypatch.setattr(observables, name, forbidden)
        monkeypatch.setattr(SpinObservable, "__post_init__", forbidden)
        s = _boosted(1, 0, 0.0)
        assert chsh(s, CASE2_SETTINGS, 0.0, X_HAT) == pytest.approx(TSIRELSON_BOUND, abs=1e-15)

    def test_scalar_invariant_checks(self, monkeypatch):
        from relbell import observables

        s = _boosted(1, 0, 0.0)
        vector = observables._observable_vector
        monkeypatch.setattr(observables, "_observable_vector",
                            lambda a, beta, e: (1.0 + 1e-9) * vector(a, beta, e))
        with pytest.raises(ValueError, match="^observable must square to the identity$"):
            chsh(s, CASE2_SETTINGS, 0.0, X_HAT)
        monkeypatch.undo()
        # a phase of e^{i pi/4} on each factor makes every T_ij imaginary
        monkeypatch.setattr(observables, "_PAULIS", np.exp(0.25j * math.pi) * observables._PAULIS)
        with pytest.raises(ArithmeticError, match="correlation tensor not real"):
            chsh(s, CASE2_SETTINGS, 0.0, X_HAT)
