"""Little-group elements: closed form vs spinor oracle vs 4x4 composition."""

import math

import numpy as np
import pytest

import mp_oracle
from relbell.kinematics import BoostSpec, FourMomentum, X_HAT, Z_HAT
from relbell.linalg import IDENTITY2, dagger, exp2, max_abs_diff, sigma_dot
from relbell.verify import _random_momentum, _unit
from relbell.wigner import (
    WignerRotation,
    _boost_parts,
    _half_angle_parts,
    d_half_exponential,
    d_half_pure_boost,
    d_half_standard,
    little_group_closed,
    little_group_lorentz,
    little_group_oracle,
    rotation_angle,
    wigner_angle,
)


class TestDHalfPureBoost:
    def test_identity_at_rest(self):
        np.testing.assert_array_equal(d_half_pure_boost(BoostSpec(X_HAT, 0.0)), IDENTITY2)

    def test_x_boost_entries(self):
        b = BoostSpec(X_HAT, 0.6)
        ch, sh = math.cosh(b.alpha / 2), math.sinh(b.alpha / 2)
        np.testing.assert_allclose(
            d_half_pure_boost(b), [[ch, sh], [sh, ch]], atol=1e-15
        )

    def test_unit_determinant(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = d_half_pure_boost(BoostSpec(_unit(rng), rng.uniform(0, 0.99)))
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
            e = _unit(rng)
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
            b = BoostSpec(_unit(rng), rng.uniform(0.1, 0.99))
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
                BoostSpec(_unit(rng), rng.uniform(0, 0.99)), _random_momentum(rng, 1e3)
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
            b = BoostSpec(_unit(rng), rng.uniform(0, 0.99))
            worst = max(worst, max_abs_diff(
                little_group_closed(b, p).su2, little_group_oracle(b, p)))
        assert worst < 1e-10


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
        with pytest.raises(ValueError):
            wigner_angle(1.0, 10.0)
        with pytest.raises(ValueError):
            wigner_angle(0.5, 0.5)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf])
    def test_nonfinite_ratio_rejected(self, ratio):
        with pytest.raises(ValueError, match="E/m must be finite"):
            wigner_angle(0.5, ratio)


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
                BoostSpec(_unit(rng), rng.uniform(0, 0.99)), _random_momentum(rng, 1e3)
            )
            assert abs(w4[3, 3] - 1.0) < 1e-9
            # spatial block is a rotation
            r = w4[:3, :3]
            assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-9

    def test_angle_consistent_with_spinor(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            b = BoostSpec(_unit(rng), rng.uniform(0, 0.99))
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
            b = BoostSpec(_unit(rng), rng.uniform(0, 0.99))
            p = _random_momentum(rng, 1e3)
            ch, sv = _half_angle_parts(b, p)
            assert abs(ch * ch + float(sv @ sv) - 1.0) < 1e-12

    def test_scalar_cross_product_equals_numpy(self):
        # for c = e.p_hat >= 0, e x p_hat from six scalar products, and the
        # norm of the result, equal np.cross and np.linalg.norm bit for bit;
        # c < 0 takes the cancellation-free sums, held to the oracle instead
        rng = np.random.default_rng(37)
        for _ in range(300):
            b = BoostSpec(_unit(rng), rng.uniform(0, 0.99))
            p = _random_momentum(rng, 1e3)
            p_hat = p.direction()
            c = float(b.e @ p_hat)
            ch, sv = _half_angle_parts(b, p)
            if c < 0.0:
                quat, _ = _oracle_errors(b, p)
                assert quat < 1e-15
                continue
            alpha, delta = b.alpha, p.rapidity
            k = math.sqrt(0.5 + 0.5 * math.cosh(alpha) * math.cosh(delta)
                          + 0.5 * math.sinh(alpha) * math.sinh(delta) * c)
            expected = (math.sinh(alpha / 2) * math.sinh(delta / 2) / k) * np.cross(b.e, p_hat)
            assert sv.tobytes() == expected.tobytes()
            w = little_group_closed(b, p)
            assert w.omega == 2.0 * math.atan2(float(np.linalg.norm(expected)), ch)


def _oracle_errors(b, p):
    """Largest errors of the quaternion and of (q, E')/E' against the 40-digit oracle."""
    ch, sv, q, energy = _boost_parts(b, p)
    oc, osv, oq, oe = mp_oracle.boost_particle(b.e, b.alpha, p.p, p.m)
    quat = max(abs(float(x - y)) for x, y in zip([ch, *sv.tolist()], [oc, *osv]))
    mom = max(abs(float(x - y)) for x, y in zip([*q.tolist(), energy], [*oq, oe]))
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
            p = FourMomentum.from_spatial(math.sqrt(r * r - 1.0) * _unit(rng))
            quat, mom = _oracle_errors(BoostSpec(_unit(rng), rng.uniform(0, 0.99)), p)
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
        _, _, q, energy = _boost_parts(BoostSpec(-p.direction(), p.p_mag / p.E), p)
        stopped = FourMomentum(q, energy)
        assert stopped.p_mag < 1e-3
        for e in (np.array([0.0, 0.6, -0.8]), np.array([0.0, -0.6, 0.8])):
            quat, mom = _oracle_errors(BoostSpec(e, 0.7), stopped)
            assert quat < 1e-15 and mom < 1e-13, (quat, mom)


class TestWignerRotationType:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            WignerRotation(omega=0.0, axis=Z_HAT, su2=2.0 * IDENTITY2)

    def test_non_unitary_message(self):
        near = IDENTITY2 + np.array([[0.0, 1e-9], [0.0, 0.0]])
        for su2 in (near, np.full((2, 2), np.nan)):
            with pytest.raises(ValueError, match="^su2 is not unitary$"):
                WignerRotation(omega=0.0, axis=Z_HAT, su2=su2)

    def test_rejects_determinant_minus_one(self):
        # unitary, but a reflection rather than an SU(2) element
        with pytest.raises(ValueError, match=r"^su2 determinant \(-1\+0j\) != 1$"):
            WignerRotation(omega=0.0, axis=Z_HAT, su2=np.diag([1.0, -1.0]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="2x2"):
            WignerRotation(omega=0.0, axis=Z_HAT, su2=np.eye(3))

    def test_rejects_nonfinite_omega(self):
        with pytest.raises(ValueError, match="inconsistent"):
            WignerRotation(omega=math.nan, axis=Z_HAT, su2=IDENTITY2)

    def test_accepts_closed_form_elements(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            w = little_group_closed(BoostSpec(_unit(rng), rng.uniform(0, 0.99)),
                                    _random_momentum(rng, 1e3))
            again = WignerRotation(omega=w.omega, axis=w.axis, su2=w.su2)
            assert again.su2.tobytes() == w.su2.tobytes()

    def test_rejects_inconsistent_angle(self):
        with pytest.raises(ValueError, match="inconsistent"):
            WignerRotation(omega=1.0, axis=Z_HAT, su2=IDENTITY2)
