"""Four-momentum algebra, boost matrices and rapidity conversions."""

import dataclasses
import inspect
import math
import re
import warnings

import numpy as np
import pytest
from mpmath import cosh, mp, mpf, sinh, sqrt

from draw_reference import unit
from relbell.kinematics import (
    ETA,
    BoostSpec,
    EnergyOverflowError,
    FourMomentum,
    X_HAT,
    Z_HAT,
    apply_boost,
    boost_matrix,
    minkowski_defect,
    standard_boost,
    unit3,
)
from relbell.kinematics import _unit_rows
from relbell.bell import bell_state, boost_two_particle
from relbell.observables import ChshSettings
from relbell.cli import BETA_CLAMP
from test_wigner import _accuracy_boosts, _ulps


def _rotation_about_z(theta):
    c, s = math.cos(theta), math.sin(theta)
    r = np.eye(4)
    r[0, 0] = r[1, 1] = c
    r[0, 1], r[1, 0] = -s, s
    return r


class TestFourMomentum:
    def test_rest(self):
        p = FourMomentum.rest(2.0)
        assert p.E == 2.0 and p.p_mag == 0.0 and p.gamma == 1.0
        np.testing.assert_array_equal(p.four_vector, [0, 0, 0, 2.0])

    def test_from_spatial_on_shell(self):
        p = FourMomentum.from_spatial([3.0, 0.0, 4.0], m=1.0)
        assert p.E == pytest.approx(math.sqrt(26.0), rel=1e-15)

    def test_along_z(self):
        p = FourMomentum.along_z(10.0)
        assert p.E == 10.0
        assert p.p[2] == pytest.approx(math.sqrt(99.0), rel=1e-15)
        assert p.rapidity == pytest.approx(math.acosh(10.0), rel=1e-15)

    @pytest.mark.parametrize("e_over_m", [1.0 + 1e-10, 1.0 + 1e-6, 1.5])
    def test_along_z_near_rest_matches_oracle(self, e_over_m):
        # r*r - 1 cancels as r -> 1 (2.5e-11 relative at these r); (r - 1)(r + 1)
        # leaves about one rounding of the product and the root
        with mp.workdps(40):
            r = mpf(e_over_m)
            exact = sqrt((r - 1) * (r + 1))
            err = float(abs(FourMomentum.along_z(e_over_m).p[2] - exact) / exact)
        assert err < 2.5e-16, err

    @pytest.mark.parametrize("e_over_m", [1.35e154, 1e200, 1.7976931348623157e308])
    def test_along_z_overflow_is_named(self, e_over_m):
        # (r - 1)(r + 1) overflows: named, not reported as an infinite component
        with pytest.raises(EnergyOverflowError,
                           match=r"^energy overflows: \(E/m\)\^2 exceeds the float64 range "):
            FourMomentum.along_z(e_over_m)
        assert issubclass(EnergyOverflowError, ValueError)

    @pytest.mark.parametrize(("e_over_m", "m"), [
        (1.3e154, 1.0), (1.34e154, 1.0), (1e100, 1.0), (1e100, 2.0), (10.0, 0.5)])
    def test_along_z_large_finite_keeps_its_bits(self, e_over_m, m):
        p = FourMomentum.along_z(e_over_m, m)
        assert p.p.tolist() == [0.0, 0.0, m * math.sqrt((e_over_m - 1.0) * (e_over_m + 1.0))]
        assert p.E == m * e_over_m

    @pytest.mark.parametrize("e_over_m", [math.nan, math.inf])
    def test_along_z_nonfinite_ratio(self, e_over_m):
        with pytest.raises(ValueError, match="^four-momentum components must be finite$"):
            FourMomentum.along_z(e_over_m)

    def test_rapidity_near_rest(self):
        # E/m - 1 = |p|^2 / 2m^2 keeps few or none of its digits in E/m
        for pm in (1e-9, 1e-5, 0.5, 0.99):
            p = FourMomentum.from_spatial([0.0, pm, 0.0])
            assert p.rapidity == pytest.approx(math.asinh(pm), rel=1e-15)

    def test_off_shell_rejected(self):
        with pytest.raises(ValueError, match="mass shell"):
            FourMomentum(np.array([1.0, 0.0, 0.0]), 5.0, 1.0)

    def test_unphysical_rejected(self):
        with pytest.raises(ValueError, match="mass must be positive"):
            FourMomentum(np.zeros(3), 1.0, -1.0)
        with pytest.raises(ValueError, match="below rest mass"):
            FourMomentum(np.zeros(3), 0.5, 1.0)
        with pytest.raises(ValueError, match="finite"):
            FourMomentum(np.array([np.inf, 0, 0]), 1.0, 1.0)

    @pytest.mark.parametrize(("E", "m", "message"), [
        (0.5, 1.0, r"^energy 0.5 below rest mass 1.0 in row 2$"),
        (2.0, 1.0, r"^off mass shell: E\^2 - \|p\|\^2 - m\^2 = 6.000e\+00 for E=2.0, m=1.0 "
                   r"in row 2$"),
        (1e160, 1.0, r"^energy overflows: E\^2 exceeds the float64 range for E=1e\+160 in row 2$"),
        (3.0, -1.0, r"^mass must be positive, got -1.0 in row 2$"),
    ], ids=["below", "off shell", "overflow", "mass"])
    def test_rows_name_the_first_failing_row(self, E, m, message):
        # one row's values, however many rows fail, as on one momentum (without "in row")
        with pytest.raises(ValueError, match=message):
            FourMomentum(np.array([[0.0, 0.0, 0.0]] * 2 + [[0.0, 0.0, 3.0]] * 3),
                         [1.0, 1.0] + [E] * 3, [1.0, 1.0] + [m] * 3)
        with pytest.raises(ValueError, match=message.replace(" in row 2", "")):
            FourMomentum(np.array([0.0, 0.0, 3.0]), E, m)

    def test_parity_flips_spatial_part(self):
        p = FourMomentum.from_spatial([1.0, -2.0, 0.5])
        q = p.parity()
        np.testing.assert_array_equal(q.p, -p.p)
        assert q.E == p.E and q.m == p.m

    def test_parity_is_exact_without_the_checks(self, monkeypatch):
        p = FourMomentum.from_spatial([1.0, -2.0, 0.5])
        checked = FourMomentum(-p.p, p.E, p.m)

        def boom(self, *args):
            raise AssertionError("parity re-ran the construction checks")

        monkeypatch.setattr(FourMomentum, "__init__", boom)
        q = p.parity()
        assert q.p.tobytes() == checked.p.tobytes() and not q.p.flags.writeable
        assert (q.E, q.m) == (checked.E, checked.m)
        assert float(q.p @ q.p) == float(p.p @ p.p)

    def test_direction_undefined_at_rest(self):
        with pytest.raises(ValueError, match="at rest"):
            FourMomentum.rest().direction()

    def test_nan_momentum_rejected(self):
        with pytest.raises(ValueError, match="^four-momentum components must be finite$"):
            FourMomentum(np.array([0.0, np.nan, 0.0]), 1.0, 1.0)

    @pytest.mark.parametrize(("p", "m"), [
        ([1e200, 0.0, 0.0], 1.0), ([1e154, 1e154, 0.0], 1.0), ([1.0, 0.0, 0.0], 1e200),
        ([[0.0, 0.0, 1.0], [3e154, -3e154, 0.0]], 1.0),
        ([[0.0, 0.0, 1.0]] * 2, np.array([1.0, 1e160])),
    ], ids=["one", "one-sum", "one-mass", "rows", "rows-mass"])
    def test_energy_overflow_is_named(self, p, m):
        # pytest turns a RuntimeWarning into an error, so a warned overflow fails here too
        with pytest.raises(ValueError, match="^energy overflows: m\\^2 \\+ \\|p\\|\\^2 exceeds"):
            FourMomentum.from_spatial(p, m)

    def test_from_spatial_takes_a_list_of_masses(self):
        p = [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        listed, stacked = (FourMomentum.from_spatial(p, m)
                           for m in ([1.0, 2.0], np.array([1.0, 2.0])))
        assert listed.E.tobytes() == stacked.E.tobytes() and listed.m.tolist() == [1.0, 2.0]

    def test_rows_take_the_masses_the_scalar_route_takes(self):
        # an int mass raised "momentum rows must be (n, 3) with n energies and masses"
        for m in (2, np.int64(2), np.float64(2.0), 2.0):
            rows = FourMomentum.from_spatial([[0, 0, 1], [0, 1, 0]], m=m)
            one = FourMomentum.from_spatial([0, 0, 1], m=m)
            assert rows.E.tolist() == [one.E] * 2 == [math.sqrt(5.0)] * 2
            assert rows.m.tolist() == [one.m] * 2 == [2.0, 2.0]

    @pytest.mark.parametrize(("m", "shape"), [
        (np.array([1.0, 2.0]), "(2,)"), ([1.0, 2.0], "(2,)"), (np.array([2.0]), "(1,)"),
        ([[1.0]], "(1, 1)"),
    ], ids=["array", "list", "one-element", "nested"])
    def test_one_vector_takes_one_mass(self, m, shape):
        message = (r"^one momentum of shape \(3,\) takes one mass, "
                   rf"got masses of shape {re.escape(shape)}$")
        for p in ([0.0, 0.0, 1.0], [1e160, 0.0, 0.0]):  # the common and the overflow branch
            with pytest.raises(ValueError, match=message):
                FourMomentum.from_spatial(p, m)

    def test_one_vector_takes_any_scalar_mass(self):
        p = [0.0, 0.0, 1.0]
        want = FourMomentum.from_spatial(p, 2.0)
        for m in (2, np.float64(2.0), np.array(2.0)):
            got = FourMomentum.from_spatial(p, m)
            assert (got.E, got.m) == (want.E, want.m) and type(got.m) is float

    @pytest.mark.parametrize(("p", "E"), [
        ([1e160, 0.0, 0.0], 1e160), ([[0.0, 0.0, 0.0], [1e160, 0.0, 0.0]], [1.0, 1e160]),
    ], ids=["one", "rows"])
    def test_squared_energy_overflow_is_named(self, p, E):
        # on shell, but E^2 overflows: named, not reported as a NaN defect, and never warned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^energy overflows: E\\^2 exceeds the float64"):
                FourMomentum(np.array(p), E, 1.0)

    def test_p_mag_equals_numpy_norm(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            r = math.exp(rng.uniform(0.0, math.log(1e6)))
            p = FourMomentum.from_spatial(math.sqrt(r * r - 1.0) * unit(rng))
            assert p.p_mag == float(np.linalg.norm(p.p))


class TestBoostSpec:
    def test_derived_fields_consistent(self):
        b = BoostSpec(X_HAT, 0.6)
        assert b.gamma == pytest.approx(1.25, rel=1e-15)
        assert math.cosh(b.alpha) == pytest.approx(b.gamma, rel=1e-12)
        assert math.sinh(b.alpha) == pytest.approx(b.gamma * b.beta, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.6, 1.0 - 1e-6, 1.0 - 1e-9, BETA_CLAMP])
    def test_gamma_near_light_speed(self, beta):
        # 1 / sqrt(1 - beta^2) was off by 2.5e-10 relative at 1 - 1e-9: the
        # difference cancels, the product (1 - beta)(1 + beta) does not
        with mp.workdps(40):
            want = 1 / sqrt(1 - mpf(beta) ** 2)
            assert abs((BoostSpec(X_HAT, beta).gamma - want) / want) <= 1e-15

    def test_beta_range_enforced(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            BoostSpec(X_HAT, 1.0)
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            BoostSpec(X_HAT, -0.2)

    def test_direction_must_be_unit(self):
        with pytest.raises(ValueError, match="unit vector"):
            BoostSpec(np.array([1.0, 1.0, 0.0]), 0.3)

    def test_from_rapidity_signed(self):
        b = BoostSpec.from_rapidity(Z_HAT, -0.7)
        np.testing.assert_array_equal(b.e, -Z_HAT)
        assert b.alpha == pytest.approx(0.7, rel=1e-12)

    def test_from_rapidity_keeps_alpha(self):
        # beta = tanh(alpha) rounds to 1 - O(eps), and atanh of it was off by
        # 4.5e-9 at alpha 10, 8.3e-5 at 15 and 0.022 at 18
        for alpha in (10.0, 15.0, 18.0):
            for sign in (1.0, -1.0):
                b = BoostSpec.from_rapidity(X_HAT, sign * alpha)
                assert b.alpha == alpha and b.gamma == math.cosh(alpha)
        with pytest.raises(ValueError, match=r"^beta must lie in \[0, 1\), got 1.0$"):
            BoostSpec.from_rapidity(X_HAT, 19.2)

    def test_inverse_keeps_the_rapidity(self):
        # inverse() rebuilt the boost from beta = tanh(alpha), which lost alpha
        # as from_rapidity once did (-4.5e-9 at 10, -8.3e-5 at 15, +0.022 at 18),
        # and a bell 00 pair boosted there and back came out off by up to 1.4e-2
        pair = bell_state(0, 0, FourMomentum.along_z(10.0))
        for alpha in (3.0, 10.0, 15.0, 18.0):
            for sign in (1.0, -1.0):
                b = BoostSpec.from_rapidity(X_HAT, sign * alpha)
                inv = b.inverse()
                np.testing.assert_array_equal(inv.e, -b.e)
                assert not inv.e.flags.writeable
                assert (inv.beta, inv.alpha, inv.gamma, inv.gamma_beta) == (
                    b.beta, b.alpha, b.gamma, b.gamma_beta)
                back = boost_two_particle(boost_two_particle(pair, b), inv)
                assert np.max(np.abs(back.amps - pair.amps)) <= 1e-15
                assert abs(back.kin_factor - 1.0) <= 1e-15

    def test_inverse_round_trip(self):
        b = BoostSpec(unit(np.random.default_rng(2)), 0.85)
        assert np.max(np.abs(boost_matrix(b) @ boost_matrix(b.inverse()) - np.eye(4))) < 1e-10


class TestBoostMatrix:
    def test_identity_at_zero_speed(self):
        np.testing.assert_array_equal(boost_matrix(BoostSpec(X_HAT, 0.0)), np.eye(4))

    def test_x_boost_entries_at_beta_06(self):
        # gamma = 1.25, gamma*beta = 0.75
        L = boost_matrix(BoostSpec(X_HAT, 0.6))
        assert L[3, 3] == pytest.approx(1.25, rel=1e-15)
        assert L[0, 3] == pytest.approx(0.75, rel=1e-15)
        assert L[3, 0] == pytest.approx(0.75, rel=1e-15)
        assert L[0, 0] == pytest.approx(1.25, rel=1e-15)
        np.testing.assert_array_equal(L[1:3, 1:3], np.eye(2))
        assert minkowski_defect(L) < 1e-15

    def test_z_boost_commutes_with_z_rotations(self):
        L = boost_matrix(BoostSpec(Z_HAT, 0.7))
        R = _rotation_about_z(0.9)
        assert np.max(np.abs(L @ R - R @ L)) < 1e-15

    def test_minkowski_orthogonality_random(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            b = BoostSpec(unit(rng), rng.uniform(0, 0.999))
            assert minkowski_defect(boost_matrix(b)) < 1e-10

    def test_entries_against_40_digits(self):
        # relative to cosh(alpha), the largest entry; the rapidity enters as the
        # float the route takes, so this scores the route's own rounding
        worst = 0.0
        with mp.workdps(40):
            for b in _accuracy_boosts():
                a, e = mpf(b.alpha), [mpf(v) for v in b.e.tolist()]
                ch, sh = cosh(a), sinh(a)
                want = [[int(i == j) + e[i] * e[j] * (ch - 1) for j in range(3)] + [e[i] * sh]
                        for i in range(3)] + [[x * sh for x in e] + [ch]]
                worst = max(worst, _ulps(boost_matrix(b), sum(want, []), ch))
        assert worst <= 0.856, worst

    def test_symmetric(self):
        rng = np.random.default_rng(8)
        L = boost_matrix(BoostSpec(unit(rng), 0.9))
        np.testing.assert_allclose(L, L.T, atol=1e-15)


class TestApplyBoost:
    def test_identity_matrix(self):
        p = FourMomentum.from_spatial([0.3, -0.2, 1.1])
        q = apply_boost(np.eye(4), p)
        np.testing.assert_array_equal(q.four_vector, p.four_vector)

    def test_rest_particle_gains_rapidity(self):
        alpha = 0.9
        b = BoostSpec.from_rapidity(X_HAT, alpha)
        q = apply_boost(boost_matrix(b), FourMomentum.rest(2.0))
        np.testing.assert_allclose(
            q.four_vector,
            [2.0 * math.sinh(alpha), 0.0, 0.0, 2.0 * math.cosh(alpha)],
            atol=1e-14,
        )

    def test_transverse_momentum_kept(self):
        # momentum along z, boost along x: spatial part becomes (E sinh a, 0, p)
        p = FourMomentum.along_z(10.0)
        b = BoostSpec(X_HAT, 0.6)
        q = apply_boost(boost_matrix(b), p)
        direct = boost_matrix(b) @ p.four_vector  # independent 4x4 multiply
        np.testing.assert_allclose(q.four_vector, direct, atol=0)
        np.testing.assert_allclose(
            q.p, [10.0 * math.sinh(b.alpha), 0.0, p.p[2]], atol=1e-12
        )

    def test_mass_shell_preserved_random(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            r = math.exp(rng.uniform(0, math.log(1e4)))
            p = FourMomentum.from_spatial(math.sqrt(r * r - 1.0) * unit(rng))
            b = BoostSpec(unit(rng), rng.uniform(0, 0.999))
            q = apply_boost(boost_matrix(b), p)
            assert abs(q.E**2 - q.p_mag**2 - 1.0) <= 1e-9 * max(q.E**2, 1.0)


class TestStandardBoost:
    def test_identity_at_rest(self):
        np.testing.assert_array_equal(standard_boost(FourMomentum.rest()), np.eye(4))

    def test_z_momentum_matches_z_boost(self):
        p = FourMomentum.along_z(10.0)
        expected = boost_matrix(BoostSpec.from_rapidity(Z_HAT, math.acosh(10.0)))
        assert np.max(np.abs(standard_boost(p) - expected)) < 1e-12

    def test_maps_rest_to_p_random(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            r = math.exp(rng.uniform(0, math.log(1e3)))
            p = FourMomentum.from_spatial(math.sqrt(r * r - 1.0) * unit(rng))
            mapped = apply_boost(standard_boost(p), FourMomentum.rest(p.m))
            assert np.max(np.abs(mapped.four_vector - p.four_vector)) < 1e-10 * max(p.E, 1.0)


class TestRapidity:
    def test_zero(self):
        assert BoostSpec(X_HAT, 0.0).alpha == 0.0

    def test_beta_06(self):
        assert math.cosh(BoostSpec(X_HAT, 0.6).alpha) == pytest.approx(1.25, rel=1e-13)

    def test_beta_099(self):
        gamma = 1.0 / math.sqrt(1.0 - 0.99**2)
        assert gamma == pytest.approx(7.088812050083354, rel=1e-15)
        a = BoostSpec(X_HAT, 0.99).alpha
        assert math.cosh(a) == pytest.approx(gamma, rel=1e-13)
        assert math.sinh(a) == pytest.approx(gamma * 0.99, rel=1e-13)

    def test_range_enforced(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match=r"^beta must lie in \[0, 1\)"):
                BoostSpec(X_HAT, bad)


class TestHelpers:
    def test_lorentz_inverse(self):
        # eta L^T eta inverts L, and is the matrix of the inverse BoostSpec
        rng = np.random.default_rng(12)
        b = BoostSpec(unit(rng), 0.95)
        L = boost_matrix(b)
        inv = ETA @ L.T @ ETA
        assert np.max(np.abs(inv @ L - np.eye(4))) < 1e-10
        assert np.max(np.abs(inv - boost_matrix(b.inverse()))) < 1e-10

    def test_eta_signature(self):
        np.testing.assert_array_equal(np.diag(ETA), [1.0, 1.0, 1.0, -1.0])

    def test_unit3_validation(self):
        with pytest.raises(ValueError, match="unit vector"):
            unit3([0.5, 0.5, 0.5])
        v = unit3([0.0, 1.0, 0.0])
        assert not v.flags.writeable

    def test_unit3_shape_rejected(self):
        with pytest.raises(ValueError, match=r"^axis must be a 3-vector, got shape \(2,\)$"):
            unit3([1.0, 0.0], "axis")
        with pytest.raises(ValueError, match=r"^direction must be a 3-vector, got shape \(1, 3\)$"):
            unit3([[1.0, 0.0, 0.0]])

    def test_unit3_nonfinite_rejected(self):
        for bad in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf]):
            with pytest.raises(ValueError, match="^axis must be finite$"):
                unit3(bad, "axis")

    def test_unit3_norm_equals_numpy_norm(self):
        # the norm in the error message is the one np.linalg.norm computes
        rng = np.random.default_rng(31)
        for _ in range(200):
            v = rng.normal(size=3)
            with pytest.raises(ValueError) as exc:
                unit3(v)
            assert str(exc.value).endswith(f"(|v| = {float(np.linalg.norm(v))!r})")
            u = v / np.linalg.norm(v)
            np.testing.assert_array_equal(unit3(u), u)


class TestRealInputs:
    """Complex input raises at the boundary instead of losing its imaginary part to a cast."""

    ONE = np.array([0.0, 0.0, 1.0 + 5.0j])
    ROWS = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0 + 5.0j]])

    @pytest.mark.parametrize("build, name", [
        (lambda v: unit3(v, "axis"), "axis"),
        (lambda v: _unit_rows(v, "axis"), "axis"),
        (lambda v: BoostSpec(v, 0.5), "boost direction"),
        (lambda v: BoostSpec.from_rapidity(v, 0.5), "boost direction"),
        (lambda v: ChshSettings(X_HAT, X_HAT, v, Z_HAT), "b"),
        (lambda v: FourMomentum(v, math.sqrt(2.0)), "momentum"),
        (FourMomentum.from_spatial, "momentum"),
    ])
    def test_one_value(self, build, name):
        with pytest.raises(ValueError, match=f"^{name} must be real, got complex128 values$"):
            build(self.ONE)
        with pytest.raises(ValueError, match=f"^{name} must be real"):
            build([0.0, 0.0, 1.0 + 0.0j])  # a complex dtype raises whatever its imaginary part

    @pytest.mark.parametrize("build, name", [
        (lambda v: _unit_rows(v, "axis"), "axis"),
        (lambda v: BoostSpec(v, [0.5, 0.5]), "boost direction"),
        (lambda v: ChshSettings(X_HAT, X_HAT, v, Z_HAT), "b"),
        (lambda v: FourMomentum(v, [1.0, 1.0]), "momentum"),
        (FourMomentum.from_spatial, "momentum"),
    ])
    def test_rows(self, build, name):
        with pytest.raises(ValueError, match=f"^{name} must be real, got complex128 values$"):
            build(self.ROWS)

    def test_row_energies_and_masses(self):
        p = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        with pytest.raises(ValueError, match="^energy must be real"):
            FourMomentum(p, [1.0, 1.0 + 1.0j])
        with pytest.raises(ValueError, match="^mass must be real"):
            FourMomentum(p, [1.0, 1.0], [1.0, 1.0 + 1.0j])

    def test_real_kinds_still_convert(self):
        # ints, bools and float32 become float64, as a dtype=float cast made them
        np.testing.assert_array_equal(unit3([0, 0, 1]), Z_HAT)
        np.testing.assert_array_equal(unit3(np.array([True, False, False])), X_HAT)
        assert unit3(np.array([0.0, 0.0, 1.0], dtype=np.float32)).dtype == np.float64
        assert FourMomentum.from_spatial([0, 0, 0]).p.dtype == np.float64


_SURFACE = [
    (FourMomentum, ("p", "E", "m"), dict(p=[0.0, 0.0, 3.0], E=math.sqrt(10.0), m=1.0),
     "FourMomentum(p=array([0., 0., 3.]), E=3.1622776601683795, m=1.0)"),
    (BoostSpec, ("e", "beta", "alpha", "gamma", "gamma_beta"), dict(e=[0.0, 0.0, 1.0], beta=0.5),
     "BoostSpec(e=array([0., 0., 1.]), beta=0.5, alpha=0.5493061443340548, "
     "gamma=1.1547005383792517, gamma_beta=0.5773502691896258)"),
    (ChshSettings, ("a", "a_prime", "b", "b_prime"),
     dict(a=[1.0, 0.0, 0.0], a_prime=[0.0, 1.0, 0.0], b=[0.0, 0.0, 1.0], b_prime=[0.0, -1.0, 0.0]),
     "ChshSettings(a=array([1., 0., 0.]), a_prime=array([0., 1., 0.]), b=array([0., 0., 1.]), "
     "b_prime=array([ 0., -1.,  0.]))"),
]


@pytest.mark.parametrize("cls, names, kwargs, shown", _SURFACE,
                         ids=lambda x: getattr(x, "__name__", ""))
class TestConstructorSurface:
    """The value types' hand-written constructors keep the dataclass surface."""

    def test_keywords_fields_and_repr(self, cls, names, kwargs, shown):
        value = cls(**kwargs)
        assert tuple(f.name for f in dataclasses.fields(cls)) == names
        assert list(inspect.signature(cls).parameters) == list(kwargs)
        assert repr(value) == shown

    def test_replace_checks_again(self, cls, names, kwargs, shown):
        value = cls(**kwargs)
        first = names[0]
        flipped = dataclasses.replace(value, **{first: -np.asarray(kwargs[first])})
        np.testing.assert_array_equal(getattr(flipped, first), -np.asarray(kwargs[first]))
        with pytest.raises(ValueError):
            dataclasses.replace(value, **{first: [0.0, 0.0, 2.0]})

    def test_frozen_and_read_only(self, cls, names, kwargs, shown):
        value = cls(**kwargs)
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, getattr(value, name))
            field = getattr(value, name)
            if isinstance(field, np.ndarray):
                assert not field.flags.writeable, name
