"""Little-group elements: closed form vs spinor oracle vs 4x4 composition."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import cosh, mp, mpc, mpf, sinh

import mp_oracle
from draw_reference import spatial_momentum, unit
from error_audit import omega_reference, score_angles
from relbell.cli import BETA_CLAMP
from relbell.kinematics import BoostSpec, FourMomentum, X_HAT, Z_HAT
from relbell.linalg import IDENTITY2, dagger, exp2, max_abs_diff, sigma_dot
from relbell.wigner import (
    WignerRotation,
    _quaternion,
    d_half_exponential,
    d_half_pure_boost,
    d_half_standard,
    little_group_closed,
    little_group_lorentz,
    little_group_oracle,
    rotation_angle,
    wigner_angle,
)


def _random_momentum(rng, max_gamma):
    return FourMomentum.from_spatial(spatial_momentum(rng, max_gamma))


def _accuracy_boosts():
    """Seeded boosts for the 40-digit accuracy tests, each along its own random direction.

    beta = 0 and beta = 1 - 1e-9 (along x and along a random e), then 400
    draws, half uniform in [0, 1) and half within 1e-9 to 1e-1 of 1.
    """
    rng = np.random.default_rng(37)
    boosts = [BoostSpec(e, beta) for beta in (0.0, 1.0 - 1e-9) for e in (X_HAT, unit(rng))]
    for k in range(400):
        beta = 1.0 - 10.0 ** rng.uniform(-9.0, -1.0) if k % 2 else rng.uniform(0.0, 1.0)
        boosts.append(BoostSpec(unit(rng), beta))
    return boosts


def _ulps(got, want, scale) -> float:
    """Largest |got - want| over the entries, in units of scale * ulp(1); ``want`` at 40 digits."""
    worst = max(abs(mpc(complex(g)) - w) for g, w in zip(np.ravel(got), want))
    return float(worst / scale) / math.ulp(1.0)


class TestDHalfPureBoost:
    def test_identity_at_rest(self):
        np.testing.assert_array_equal(d_half_pure_boost(BoostSpec(X_HAT, 0.0)), IDENTITY2)

    def test_x_boost_entries(self):
        b = BoostSpec(X_HAT, 0.6)
        ch, sh = math.cosh(b.alpha / 2), math.sinh(b.alpha / 2)
        np.testing.assert_allclose(
            d_half_pure_boost(b), [[ch, sh], [sh, ch]], atol=1e-15
        )

    def test_entries_against_40_digits(self):
        # relative to ch(a/2), the scale of every entry; the rapidity enters as the
        # float the route takes, so this scores the route's own rounding
        worst = 0.0
        with mp.workdps(40):
            for b in _accuracy_boosts():
                a, (x, y, z) = mpf(b.alpha) / 2, (mpf(v) for v in b.e.tolist())
                ch, sh = cosh(a), sinh(a)
                want = (ch + sh * z, sh * mpc(x, -y), sh * mpc(x, y), ch - sh * z)
                worst = max(worst, _ulps(d_half_pure_boost(b), want, ch))
        assert worst <= 1.342, worst

    def test_unit_determinant(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = d_half_pure_boost(BoostSpec(unit(rng), rng.uniform(0, 0.99)))
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            assert abs(det - 1.0) < 1e-12
            assert max_abs_diff(m, dagger(m)) < 1e-15


class TestDHalfStandard:
    def test_identity_at_rest(self):
        np.testing.assert_array_equal(d_half_standard(FourMomentum.rest()), IDENTITY2)

    def test_z_momentum_diagonal(self):
        # E/m = 1.25 along z: cosh(delta) = 1.25, e^delta = 2
        p = FourMomentum.along_z(1.25)
        expected = (math.sqrt(2.25 / 2.0) * IDENTITY2
                    + math.sqrt(0.25 / 2.0) * sigma_dot(Z_HAT))
        got = d_half_standard(p)
        assert max_abs_diff(got, expected) < 1e-15
        assert got[0, 0].real == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert got[1, 1].real == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        det = got[0, 0] * got[1, 1] - got[0, 1] * got[1, 0]
        assert abs(det - 1.0) < 1e-15

    def test_equals_exponential_route(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            p = _random_momentum(rng, 1e3)
            expected = exp2((p.rapidity / 2.0) * sigma_dot(p.direction()))
            assert max_abs_diff(d_half_standard(p), expected) < 1e-12

    def test_equals_pure_boost_along_momentum(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = _random_momentum(rng, max_gamma=50)
            b = BoostSpec(p.direction(), p.p_mag / p.E)
            assert max_abs_diff(d_half_standard(p), d_half_pure_boost(b)) < 1e-12


class TestDHalfExponential:
    def test_identity(self):
        np.testing.assert_allclose(d_half_exponential(X_HAT, 0.0), IDENTITY2, atol=0)

    def test_z_axis_diagonal(self):
        alpha = 1.3
        got = d_half_exponential(Z_HAT, alpha)
        np.testing.assert_allclose(
            got, np.diag([math.exp(alpha / 2), math.exp(-alpha / 2)]), atol=1e-14
        )

    def test_matches_closed_form(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            e = unit(rng)
            alpha = rng.uniform(0.0, 3.0)
            got = d_half_exponential(e, alpha)
            expected = d_half_pure_boost(BoostSpec.from_rapidity(e, alpha))
            assert max_abs_diff(got, expected) < 1e-12


class TestLittleGroupClosed:
    def test_identity_at_zero_speed(self):
        w = little_group_closed(BoostSpec(X_HAT, 0.0), FourMomentum.along_z(5.0))
        assert w.omega == 0.0
        assert max_abs_diff(w.su2, IDENTITY2) < 1e-14
        np.testing.assert_array_equal(w.axis, Z_HAT)

    def test_identity_for_rest_momentum(self):
        w = little_group_closed(BoostSpec(X_HAT, 0.9), FourMomentum.rest())
        assert w.omega == 0.0
        np.testing.assert_array_equal(w.su2, IDENTITY2)

    def test_identity_for_collinear_boost(self):
        p = FourMomentum.along_z(10.0)
        for direction in (Z_HAT, -Z_HAT):
            w = little_group_closed(BoostSpec(direction, 0.8), p)
            assert max_abs_diff(w.su2, IDENTITY2) < 1e-14
            assert w.omega < 1e-7

    def test_axis_perpendicular_to_boost_and_momentum(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = _random_momentum(rng, 1e3)
            b = BoostSpec(unit(rng), rng.uniform(0.1, 0.99))
            w = little_group_closed(b, p)
            if w.omega > 1e-6:
                assert abs(w.axis @ b.e) < 1e-10
                assert abs(w.axis @ p.direction()) < 1e-10
                cross = np.cross(b.e, p.direction())
                np.testing.assert_allclose(
                    w.axis, cross / np.linalg.norm(cross), atol=1e-10
                )

    def test_special_case_angle(self):
        # beta = 0.6, E/m = 10: tan(Omega) = 0.75 * sqrt(99) / 11.25
        w = little_group_closed(BoostSpec(X_HAT, 0.6), FourMomentum.along_z(10.0))
        expected = math.atan2(0.75 * math.sqrt(99.0), 11.25)
        assert w.omega == pytest.approx(expected, abs=1e-13)

    def test_unitary_det_one_random(self):
        rng = np.random.default_rng(6)
        for _ in range(400):
            w = little_group_closed(
                BoostSpec(unit(rng), rng.uniform(0, 0.99)), _random_momentum(rng, 1e3)
            )
            assert max_abs_diff(dagger(w.su2) @ w.su2, IDENTITY2) < 1e-12
            det = w.su2[0, 0] * w.su2[1, 1] - w.su2[0, 1] * w.su2[1, 0]
            assert abs(det - 1.0) < 1e-12


class TestOracleEquivalence:
    def test_identity_at_zero_speed(self):
        got = little_group_oracle(BoostSpec(X_HAT, 0.0), FourMomentum.along_z(3.0))
        assert max_abs_diff(got, IDENTITY2) < 1e-14

    def test_collinear_is_identity(self):
        got = little_group_oracle(BoostSpec(Z_HAT, 0.7), FourMomentum.along_z(8.0))
        assert max_abs_diff(got, IDENTITY2) < 1e-13

    def test_closed_form_matches_oracle(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            p = _random_momentum(rng, 1e3)
            b = BoostSpec(unit(rng), rng.uniform(0, 0.99))
            worst = max(worst, max_abs_diff(
                little_group_closed(b, p).su2, little_group_oracle(b, p)))
        assert worst < 1e-10

    @staticmethod
    def _mp_su2(b, p):
        c, (x, y, z), _, _ = mp_oracle.boost_particle(b.e, b.alpha, p.p, p.m)
        c, x, y, z = float(c), float(x), float(y), float(z)
        return np.array([[c + 1j * z, y + 1j * x], [-y + 1j * x, c - 1j * z]])

    @pytest.mark.parametrize("p_over_m", [1e-8, 1e-5, 1e-3])
    def test_nearly_stopped_particle(self, p_over_m):
        # sqrt((E - m)/2m) lost sinh(delta/2) to cancellation here: the
        # product raised "lost unitarity" at 1e-8 and was off by 1.5e-13 at 1e-5
        p = FourMomentum.from_spatial(p_over_m * TestBoostOracle.N)
        for e, beta in ((X_HAT, 0.6), (np.array([0.0, 0.6, -0.8]), 0.9),
                        (-TestBoostOracle.N, 0.3)):
            b = BoostSpec(e, beta)
            assert max_abs_diff(little_group_oracle(b, p), self._mp_su2(b, p)) <= 1e-15

    @pytest.mark.parametrize("e_over_m", [5.0, 100.0])
    def test_boost_into_rest_frame(self, e_over_m):
        # E' is re-derived from q: the 4x4 product's E' fell off the mass
        # shell for a boost that almost stops the particle, and the product
        # then raised.  Its factors grow like gamma, so it rounds like eps gamma^2.
        p = FourMomentum.from_spatial(math.sqrt(e_over_m ** 2 - 1.0) * TestBoostOracle.N)
        b = BoostSpec(-p.direction(), p.p_mag / p.E)
        err = max_abs_diff(little_group_oracle(b, p), self._mp_su2(b, p))
        assert err <= 2e-16 * e_over_m ** 2, err


class TestWignerAngle:
    def test_zero_speed(self):
        assert wigner_angle(0.0, 10.0) == 0.0

    def test_zero_for_unit_gamma(self):
        assert wigner_angle(0.7, 1.0) == 0.0

    def test_derived_value(self):
        got = wigner_angle(0.6, 10.0)
        assert got == pytest.approx(math.atan(0.75 * math.sqrt(99.0) / 11.25), rel=1e-14)

    def test_matches_lorentz_composition(self):
        for beta in (0.1, 0.45, 0.8, 0.99):
            for r in (10.0, 100.0, 1000.0):
                w4 = little_group_lorentz(BoostSpec(X_HAT, beta), FourMomentum.along_z(r))
                assert abs(rotation_angle(w4) - wigner_angle(beta, r)) < 1e-9

    def test_range_and_monotonicity(self):
        for r in (10.0, 100.0, 1000.0):
            grid = [wigner_angle(b, r) for b in np.linspace(0.01, 0.99, 99)]
            assert all(0.0 <= om < math.pi / 2 for om in grid)
            assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_increases_with_energy(self):
        # at fixed beta the angle grows toward its boost-only limit as E/m grows
        for beta in (0.1, 0.3, 0.5, 0.9):
            vals = [wigner_angle(beta, r) for r in (10.0, 100.0, 1000.0)]
            assert vals[0] < vals[1] < vals[2]

    def test_input_validation(self):
        # beta = 1 is in the domain (see test_light_speed_limit); beyond it is not
        assert wigner_angle(1.0, 10.0) == math.acos(0.1)
        for beta in (1.0 + 2.0 ** -52, 1.5, -1e-300, math.nan):
            with pytest.raises(ValueError, match=r"^beta must lie in \[0, 1\], got "):
                wigner_angle(beta, 10.0)
        with pytest.raises(ValueError):
            wigner_angle(0.5, 0.5)

    def test_light_speed_limit(self):
        # Omega = arctan(sinh(delta)) = acos(m/E) at beta = 1, within 1 ulp(1), to the top
        # of the float range
        for r in (1.0, 1.0 + 2.0 ** -52, 1.5, 10.0, 1e3, 1e6, 1e150, 1e300, sys.float_info.max):
            assert abs(mpf(wigner_angle(1.0, r)) - omega_reference(1.0, r)) <= math.ulp(1.0), r

    @pytest.mark.parametrize("beta", [0.5, 0.99, BETA_CLAMP])
    def test_no_term_overflows(self, beta):
        # sqrt(E/m - 1) sqrt(E/m + 1), not sqrt((E/m)^2 - 1): past E/m 1.3e154 the square
        # overflowed and gave pi/2 (at beta 0.5 the angle tends to 0.5236)
        for r in (1e150, 1e200, 1e300, sys.float_info.max):
            got = wigner_angle(beta, r)
            assert got < math.pi / 2
            assert abs(mpf(got) - omega_reference(beta, r)) <= 1.5 * math.ulp(1.0), r

    def test_audit_strata(self):
        # ``tests/error_audit.py --angles``: beta uniform, near and at light speed, huge E/m
        for stratum, errors in score_angles(400).items():
            assert max(e for _, e in errors) <= 1.1, stratum

    @pytest.mark.parametrize("ratio", [math.nan, math.inf])
    def test_nonfinite_ratio_rejected(self, ratio):
        with pytest.raises(ValueError, match="E/m must be finite"):
            wigner_angle(0.5, ratio)

    def test_one_value_each_stays_a_float(self):
        for beta, ratio in ((0.6, 10.0), (np.float64(0.6), 10), (np.array(0.6), np.array(10.0))):
            got = wigner_angle(beta, ratio)
            assert type(got) is float and got == wigner_angle(0.6, 10.0)


def _special(beta, e_over_m):
    """The little group of the paper's geometry: z-momentum, x-boost."""
    return little_group_closed(BoostSpec(X_HAT, beta), FourMomentum.along_z(e_over_m))


class TestSpecialGeometry:
    def test_identity_at_zero_speed(self):
        w = _special(0.0, 10.0)
        assert w.omega == 0.0
        assert max_abs_diff(w.su2, IDENTITY2) < 1e-15

    def test_real_orthogonal(self):
        # the axis is e x p_hat = x_hat x z_hat = -y, so su2 is a real rotation
        w = _special(0.77, 100.0)
        assert np.max(np.abs(w.su2.imag)) == 0.0
        r = w.su2.real
        assert max_abs_diff(r.T @ r, np.eye(2)) < 1e-15
        np.testing.assert_array_equal(w.axis, [0.0, -1.0, 0.0])

    def test_matches_general_closed_form(self):
        # su2 = [[cos(O/2), -sin(O/2)], [sin(O/2), cos(O/2)]] at O = wigner_angle
        rng = np.random.default_rng(8)
        for _ in range(200):
            beta = rng.uniform(0.01, 0.99)
            r = math.exp(rng.uniform(math.log(1.01), math.log(1e3)))
            omega = wigner_angle(beta, r)
            c, s = math.cos(omega / 2), math.sin(omega / 2)
            w = _special(beta, r)
            assert max_abs_diff(w.su2, np.array([[c, -s], [s, c]])) < 1e-12
            assert abs(w.omega - omega) < 1e-12


class TestLorentzComposition:
    def test_time_time_entry_pinned(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            w4 = little_group_lorentz(
                BoostSpec(unit(rng), rng.uniform(0, 0.99)), _random_momentum(rng, 1e3)
            )
            assert abs(w4[3, 3] - 1.0) < 1e-9
            # spatial block is a rotation
            r = w4[:3, :3]
            assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-9

    def test_angle_consistent_with_spinor(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            b = BoostSpec(unit(rng), rng.uniform(0, 0.99))
            p = _random_momentum(rng, 1e3)
            assert abs(rotation_angle(little_group_lorentz(b, p))
                       - little_group_closed(b, p).omega) < 1e-9

    def test_rotation_angle_of_explicit_rotation(self):
        theta = 0.4
        r4 = np.eye(4)
        r4[0, 0] = r4[2, 2] = math.cos(theta)
        r4[0, 2], r4[2, 0] = math.sin(theta), -math.sin(theta)
        assert rotation_angle(r4) == pytest.approx(theta, abs=1e-15)


class TestAngleAxisConsistency:
    def test_half_angle_normalization(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            b = BoostSpec(unit(rng), rng.uniform(0, 0.99))
            w = little_group_closed(b, _random_momentum(rng, 1e3))
            ch, sv = w.cos_half, w.sin_half_vec
            assert abs(ch * ch + float(sv @ sv) - 1.0) < 1e-12

    def test_scalar_cross_product_equals_numpy(self):
        # for c = e.p_hat >= 0, e x p_hat from six scalar products, scaled by the
        # algebraic sh(a/2) sh(d/2) / K, and the norm of the result, equal
        # np.cross and np.linalg.norm bit for bit; c < 0 takes the
        # cancellation-free sums, held to the oracle instead
        rng = np.random.default_rng(37)
        for _ in range(300):
            b = BoostSpec(unit(rng), rng.uniform(0, 0.99))
            p = _random_momentum(rng, 1e3)
            p0, p1, p2 = p.p.tolist()
            p_mag = math.sqrt(p0 * p0 + p1 * p1 + p2 * p2)
            p_hat = p.p / p_mag
            c = float(b.e @ p_hat)
            w = little_group_closed(b, p)
            if c < 0.0:
                quat, _ = _oracle_errors(b, p)
                assert quat < 1e-15
                continue
            g, gb, m, energy = b.gamma, b.gamma_beta, p.m, p.E
            sh_half = gb * p_mag / math.sqrt(4.0 * (g + 1.0) * m * (energy + m))
            k = math.sqrt(0.5 + 0.5 * (g * energy + gb * (p0 * b.e[0] + p1 * b.e[1]
                                                          + p2 * b.e[2])) / m)
            expected = np.array([sh_half * x for x in np.cross(b.e, p_hat)]) / k
            assert w.sin_half_vec.tobytes() == expected.tobytes()
            assert w.omega == 2.0 * math.atan2(float(np.linalg.norm(expected)), w.cos_half)


def _oracle_errors(b, p):
    """Largest errors of the quaternion and of (q, E')/E' against the 40-digit oracle."""
    w, (q, energy) = little_group_closed(b, p), _quaternion(b, p)[3:]
    oc, osv, oq, oe = mp_oracle.boost_particle(b.e, b.alpha, p.p, p.m)
    quat = max(abs(float(x - y)) for x, y in zip([w.cos_half, *w.sin_half_vec.tolist()],
                                                   [oc, *osv]))
    mom = max(abs(float(x - y)) for x, y in zip([*q, energy], [*oq, oe]))
    return quat, mom / float(oe)


class TestBoostOracle:
    """One particle's little group and Lambda p against the 40-digit oracle.

    Rest-frame and near anti-collinear boosts (c = e.p_hat near -1) raised
    "su2 is not unitary", "energy below rest mass" or "off mass shell"
    before the sums were rewritten for c < 0.
    """

    N = np.array([1.0, 2.0, 2.0]) / 3.0

    def test_generic_geometry(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            r = math.exp(rng.uniform(0.0, math.log(1e6)))
            p = FourMomentum.from_spatial(math.sqrt(r * r - 1.0) * unit(rng))
            quat, mom = _oracle_errors(BoostSpec(unit(rng), rng.uniform(0, 0.99)), p)
            assert quat < 1e-15 and mom < 2e-15, (quat, mom)

    @pytest.mark.parametrize("e_over_m", [100.0, 1e4, 1e6])
    def test_rest_frame(self, e_over_m):
        p = FourMomentum.from_spatial(math.sqrt(e_over_m ** 2 - 1.0) * self.N)
        b = BoostSpec(-p.direction(), p.p_mag / p.E)
        quat, mom = _oracle_errors(b, p)
        # float64 e and p_hat are anti-parallel only to about 1e-16 rad, and
        # sh(a/2) sh(d/2) ~ E/2m scales that into the quaternion
        assert quat < 1e-16 * e_over_m and mom < 1e-15 * e_over_m, (quat, mom)
        # the partner (c = +1) takes the direct sums; the stopped particle barely turns
        assert max(_oracle_errors(b, p.parity())) < 1e-15
        assert little_group_closed(b, p).omega < 1e-6

    @pytest.mark.parametrize("e_over_m", [100.0, 1e4, 1e6])
    @pytest.mark.parametrize("beta", [0.5, 0.99, 1.0 - 1e-8])
    def test_anti_collinear(self, e_over_m, beta):
        p = FourMomentum.from_spatial(math.sqrt(e_over_m ** 2 - 1.0) * self.N)
        e = -self.N + 1e-8 * np.array([2.0, -1.0, 0.0]) / math.sqrt(5.0)
        quat, mom = _oracle_errors(BoostSpec(e / np.linalg.norm(e), beta), p)
        assert quat < 1e-12 and mom < 1e-11, (quat, mom)

    @pytest.mark.parametrize("e_over_m", [100.0, 1e4, 1e6])
    def test_second_boost_of_a_stopped_particle(self, e_over_m):
        # the stopped particle's label is almost at rest, where acosh(E/m)
        # would lose every digit of its rapidity.  Its q carries the rounding
        # of p, about eps |p|, so it is on shell only to about 1e-14 and the
        # oracle, which re-derives E from q, sees that much in Lambda q.
        p = FourMomentum.from_spatial(math.sqrt(e_over_m ** 2 - 1.0) * self.N)
        q, energy = _quaternion(BoostSpec(-p.direction(), p.p_mag / p.E), p)[3:]
        stopped = FourMomentum(np.array(q), energy)
        assert stopped.p_mag < 1e-3
        for e in (np.array([0.0, 0.6, -0.8]), np.array([0.0, -0.6, 0.8])):
            quat, mom = _oracle_errors(BoostSpec(e, 0.7), stopped)
            assert quat < 1e-15 and mom < 1e-13, (quat, mom)


class TestWignerRotationType:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            WignerRotation(2.0, np.zeros(3))

    def test_non_unitary_message(self):
        for c, s in ((1.0 + 1e-9, np.zeros(3)), (0.6, np.array([0.0, 0.8 + 1e-9, 0.0]))):
            with pytest.raises(ValueError, match="^su2 is not unitary$"):
                WignerRotation(c, s)

    def test_rejects_nonfinite_omega(self):
        # a NaN or inf component would give a non-finite angle
        for c, s in ((math.nan, np.zeros(3)), (1.0, np.array([0.0, math.nan, 0.0])),
                     (math.inf, np.zeros(3)), (0.0, np.array([math.inf, 0.0, 0.0]))):
            with pytest.raises(ValueError, match="^su2 is not unitary$"):
                WignerRotation(c, s)

    def test_rejects_wrong_shape(self):
        for c, s in ((1.0, np.zeros(2)), (np.ones(2), np.zeros(3)), (1.0, np.zeros((1, 3))),
                     (np.ones(2), np.zeros((3, 3))), (np.ones((1, 1)), np.zeros((1, 1, 3)))):
            with pytest.raises(ValueError, match="^sin_half_vec must be a 3-vector, or an"):
                WignerRotation(c, s)

    @pytest.mark.parametrize("bad", [math.nan, 1.0 + 1e-9])
    def test_su2_checks_every_row(self, bad):
        c = np.array([1.0, bad])
        with pytest.raises(ValueError, match="^su2 is not unitary$"):
            WignerRotation(c, np.zeros((2, 3)))

    def test_derived_fields(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            q = rng.normal(size=4)
            c, s = q[0] / np.linalg.norm(q), q[1:] / np.linalg.norm(q)
            w = WignerRotation(c, s)
            assert w.su2.tobytes() == (c * IDENTITY2 + 1j * sigma_dot(s)).tobytes()
            assert w.omega == 2.0 * math.atan2(math.sqrt(s @ s), c)
            np.testing.assert_allclose(w.axis, s / np.linalg.norm(s), atol=1e-15)
        for c in (1.0, -1.0):
            w = WignerRotation(c, np.zeros(3))
            np.testing.assert_array_equal(w.axis, Z_HAT)
            assert w.omega == (0.0 if c > 0 else 2.0 * math.pi)

    def test_accepts_closed_form_elements(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            w = little_group_closed(BoostSpec(unit(rng), rng.uniform(0, 0.99)),
                                    _random_momentum(rng, 1e3))
            again = WignerRotation(w.cos_half, w.sin_half_vec)
            assert again.su2.tobytes() == w.su2.tobytes()


def _direction(v):
    v = np.asarray(v, dtype=float)
    return v / math.sqrt(v @ v)


_DIRECTIONS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: sum(x * x for x in v) > 1e-6).map(_direction)
_N = _direction([1.0, 2.0, 2.0])
_NEAR_ANTI = _direction(-_N + 1e-8 * _direction([2.0, -1.0, 0.0]))
_STOP_1E6 = math.sqrt((1e6 - 1.0) * (1e6 + 1.0)) / 1e6  # beta of the rest frame at E/m 1e6


class TestLittleGroupProperty:
    """Over the documented domain the closed form never raises and stays in SU(2)."""

    @settings(max_examples=300)
    @given(e=_DIRECTIONS, beta=st.floats(0.0, BETA_CLAMP),
           log_r=st.floats(0.0, math.log(1e6)), n=_DIRECTIONS)
    @example(e=_N, beta=0.9, log_r=math.log(1e3), n=_N)  # collinear
    @example(e=_NEAR_ANTI, beta=0.99, log_r=math.log(1e6), n=_N)  # anti-collinear, 1e-8 rad
    @example(e=-_N, beta=_STOP_1E6, log_r=math.log(1e6), n=_N)  # into the rest frame
    @example(e=_N, beta=BETA_CLAMP, log_r=math.log(1e6), n=-_N)
    @example(e=X_HAT, beta=BETA_CLAMP, log_r=math.log(10.0), n=Z_HAT)
    def test_unit_quaternion(self, e, beta, log_r, n):
        r = math.exp(log_r)
        b = BoostSpec(e, beta)
        p = FourMomentum.from_spatial(math.sqrt((r - 1.0) * (r + 1.0)) * n)
        w = little_group_closed(b, p)
        cos_num, sin_num, k2 = _quaternion(b, p)[:3]  # the constructor keeps the bits
        k = math.sqrt(k2)
        assert w.cos_half == cos_num / k
        assert w.sin_half_vec.tobytes() == np.array([x / k for x in sin_num]).tobytes()
        u = w.su2
        det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
        assert max_abs_diff(dagger(u) @ u, IDENTITY2) <= 1e-12
        assert abs(det - 1.0) <= 1e-12
