"""Bell pairs under boosts: amplitudes, sector structure, dump format."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mp_oracle
from test_wigner import _DIRECTIONS, _N, _NEAR_ANTI, _STOP_1E6, _direction
from relbell.bell import (
    BASIS_LABELS,
    TwoQubitState,
    _spin_map,
    bell_decompose,
    bell_state,
    boost_two_particle,
    dump_state,
)
from relbell.cli import BETA_CLAMP
from relbell.kinematics import BoostSpec, FourMomentum, X_HAT, Y_HAT, Z_HAT, apply_boost, boost_matrix
from relbell.linalg import IDENTITY2, exp2, max_abs_diff, sigma_dot, tensor
from relbell.observables import CASE1_SETTINGS, ChshSettings, _chsh_amps
from relbell.verify import _unit
from relbell.wigner import WignerRotation, _boost_parts, _su2, little_group_closed, wigner_angle

S2 = 1.0 / math.sqrt(2.0)


def _pair(e_over_m=10.0):
    return FourMomentum.along_z(e_over_m)


class TestBellState:
    def test_amplitudes(self):
        p = _pair()
        np.testing.assert_allclose(bell_state(0, 0, p).amps, [S2, 0, 0, S2], atol=0)
        np.testing.assert_allclose(bell_state(0, 1, p).amps, [S2, 0, 0, -S2], atol=0)
        np.testing.assert_allclose(bell_state(1, 0, p).amps, [0, S2, S2, 0], atol=0)
        np.testing.assert_allclose(bell_state(1, 1, p).amps, [0, S2, -S2, 0], atol=0)

    def test_unit_norm_and_kin_factor(self):
        for i in (0, 1):
            for j in (0, 1):
                s = bell_state(i, j, _pair())
                assert float(np.vdot(s.amps, s.amps).real) == pytest.approx(1.0, abs=1e-15)
                assert s.kin_factor == 1.0

    def test_second_particle_is_parity_flip(self):
        s = bell_state(0, 0, _pair())
        np.testing.assert_array_equal(s.p2_label.p, -s.p_label.p)
        assert s.p2_label.E == s.p_label.E

    def test_rest_pair_rejected(self):
        with pytest.raises(ValueError, match=r"\|p\| > 0"):
            bell_state(0, 0, FourMomentum.rest())

    def test_bad_indices_rejected(self):
        with pytest.raises(ValueError, match="bits"):
            bell_state(0, 2, _pair())


class TestBoostTwoParticle:
    def test_zero_speed_is_identity(self):
        s = bell_state(0, 0, _pair())
        for e in (X_HAT, -Z_HAT):  # -z is anti-parallel to the first particle
            out = boost_two_particle(s, BoostSpec(e, 0.0))
            assert max_abs_diff(out.amps, s.amps) < 1e-15
            assert out.kin_factor == pytest.approx(1.0, abs=1e-15)
            for got, p in ((out.p_label, s.p_label), (out.p2_label, s.p2_label)):
                np.testing.assert_array_equal(got.four_vector, p.four_vector)

    def test_correlated_pair_rotates(self):
        # z-momentum, x-boost: 00 -> cos(Om) 00' - sin(Om) 11'
        beta, r = 0.6, 10.0
        om = wigner_angle(beta, r)
        out = boost_two_particle(bell_state(0, 0, _pair(r)), BoostSpec(X_HAT, beta))
        expected = np.array([math.cos(om), -math.sin(om), math.sin(om), math.cos(om)]) * S2
        assert max_abs_diff(out.amps, expected) < 1e-14

    def test_anticorrelated_pair_rotates(self):
        # 11 -> sin(Om) 00' + cos(Om) 11'
        beta, r = 0.6, 10.0
        om = wigner_angle(beta, r)
        out = boost_two_particle(bell_state(1, 1, _pair(r)), BoostSpec(X_HAT, beta))
        expected = np.array([math.sin(om), math.cos(om), -math.cos(om), math.sin(om)]) * S2
        assert max_abs_diff(out.amps, expected) < 1e-14

    def test_exchange_sector_invariant(self):
        beta = 0.85
        b = BoostSpec(X_HAT, beta)
        for (i, j) in ((0, 1), (1, 0)):
            s = bell_state(i, j, _pair())
            out = boost_two_particle(s, b)
            assert max_abs_diff(out.amps, s.amps) < 1e-13

    def test_kinematic_factor_special_geometry(self):
        # p perpendicular to the boost: (Lambda p)^0 / p^0 = gamma = 1.25
        out = boost_two_particle(bell_state(0, 0, _pair()), BoostSpec(X_HAT, 0.6))
        assert out.kin_factor == pytest.approx(1.25, rel=1e-14)
        assert out.kin_factor >= 1.0

    def test_momentum_labels_move(self):
        s = bell_state(0, 0, _pair())
        b = BoostSpec(X_HAT, 0.6)
        out = boost_two_particle(s, b)
        L = boost_matrix(b)
        np.testing.assert_allclose(
            out.p_label.four_vector, apply_boost(L, s.p_label).four_vector, atol=0)
        np.testing.assert_allclose(
            out.p2_label.four_vector, apply_boost(L, s.p2_label).four_vector, atol=0)
        # boosted pair is no longer back-to-back: both dragged along +x
        assert out.p_label.p[0] > 0 and out.p2_label.p[0] > 0

    def test_collinear_rapidity_additivity(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps /= np.linalg.norm(amps)
            s = TwoQubitState(amps=amps, kin_factor=1.0, p_label=_pair(5.0))
            e = _unit(rng)
            a1, a2 = rng.uniform(0.1, 1.5, size=2)
            stepped = boost_two_particle(
                boost_two_particle(s, BoostSpec.from_rapidity(e, a1)),
                BoostSpec.from_rapidity(e, a2))
            direct = boost_two_particle(s, BoostSpec.from_rapidity(e, a1 + a2))
            assert max_abs_diff(stepped.amps, direct.amps) < 1e-10
            assert stepped.kin_factor == pytest.approx(direct.kin_factor, rel=1e-10)

    def test_norm_preserved(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps /= np.linalg.norm(amps)
            s = TwoQubitState(amps=amps, kin_factor=1.0, p_label=_pair(3.0))
            out = boost_two_particle(s, BoostSpec(_unit(rng), rng.uniform(0, 0.99)))
            assert abs(float(np.vdot(out.amps, out.amps).real) - 1.0) < 1e-12

    def test_normalization_uses_numpy_norm(self):
        # the renormalization equals dividing by np.linalg.norm bit for bit
        rng = np.random.default_rng(25)
        for _ in range(100):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            s = TwoQubitState(amps=amps / np.linalg.norm(amps), kin_factor=1.0,
                              p_label=_pair(3.0))
            b = BoostSpec(_unit(rng), rng.uniform(0, 0.99))
            raw = tensor(little_group_closed(b, s.p_label).su2,
                         little_group_closed(b, s.p2_label).su2) @ s.amps
            out = boost_two_particle(s, b)
            assert out.amps.tobytes() == (raw / np.linalg.norm(raw)).tobytes()


def _oracle_boost(s, b):
    """Normalised (W1 (x) W2) amps and both (q, E') labels from the 40-digit oracle."""
    su2s, labels = [], []
    for p in (s.p_label, s.p2_label):
        ch, sv, q, energy = mp_oracle.boost_particle(b.e, b.alpha, p.p, p.m)
        su2s.append(float(ch) * IDENTITY2 + 1j * sigma_dot(np.array([float(x) for x in sv])))
        labels.append(np.array([float(x) for x in (*q, energy)]))
    amps = tensor(*su2s) @ s.amps
    return amps / np.linalg.norm(amps), labels


class TestCancellingBoosts:
    """Boosts with e.p_hat near -1 for one particle of the pair.

    Each raised before the sums were rewritten for e.p_hat < 0: "su2 is not
    unitary" from E/m 100 on, and "energy below rest mass" or "off mass
    shell" from the 4x4 product once a boost almost stops a particle.
    """

    N = np.array([1.0, 2.0, 2.0]) / 3.0

    def _pair(self, e_over_m):
        return bell_state(1, 1, FourMomentum.from_spatial(math.sqrt(e_over_m ** 2 - 1.0) * self.N))

    @staticmethod
    def _boost(s, b, amps_tol, label_rtol):
        out = boost_two_particle(s, b)
        amps, labels = _oracle_boost(s, b)
        assert max_abs_diff(out.amps, amps) < amps_tol
        for got, want in zip((out.p_label, out.p2_label), labels):
            assert max_abs_diff(got.four_vector, want) < label_rtol * want[3]
        return out

    @pytest.mark.parametrize("e_over_m", [100.0, 1e4, 1e6])
    @pytest.mark.parametrize("stopped", [0, 1])
    def test_rest_frame_of_either_particle(self, e_over_m, stopped):
        s = self._pair(e_over_m)
        p = (s.p_label, s.p2_label)[stopped]
        b = BoostSpec(-p.direction(), p.p_mag / p.E)
        out = self._boost(s, b, 1e-16 * e_over_m, 1e-15 * e_over_m)
        assert (out.p_label, out.p2_label)[stopped].E < 1.0 + 1e-8

    @pytest.mark.parametrize("e_over_m", [100.0, 1e4, 1e6])
    @pytest.mark.parametrize("beta", [0.99, 1.0 - 1e-8])
    def test_anti_collinear_within_1e_8_rad(self, e_over_m, beta):
        e = -self.N + 1e-8 * np.array([2.0, -1.0, 0.0]) / math.sqrt(5.0)
        self._boost(self._pair(e_over_m), BoostSpec(e / np.linalg.norm(e), beta), 1e-13, 1e-11)

    @pytest.mark.parametrize("e_over_m", [100.0, 1e4, 1e6])
    def test_chained_second_boost(self, e_over_m):
        s = self._pair(e_over_m)
        once = boost_two_particle(s, BoostSpec(-self.N, s.p_label.p_mag / s.p_label.E))
        # the stopped label is on shell only to about eps |p| / E'; see
        # test_wigner.TestBoostOracle
        self._boost(once, BoostSpec(np.array([0.0, 0.6, -0.8]), 0.7), 1e-15, 1e-13)


def _composed_boost(s, b):
    """The pair boost composed from its per-particle pieces, as before the pair kernel.

    Each particle's SU(2) matrix is the array expression c I + i sigma.s of
    its ``little_group_closed`` quaternion, its label a ``FourMomentum``.
    """
    su2s, labels, kin = [], [], 1.0
    for p in (s.p_label, s.p2_label):
        w = little_group_closed(b, p)
        su2 = w.cos_half * IDENTITY2 + 1j * sigma_dot(w.sin_half_vec)
        assert su2.tobytes() == w.su2.tobytes()
        su2s.append(su2)
        q, energy = _boost_parts(b, p)[2:]
        labels.append(FourMomentum(q, energy, p.m))
        kin *= math.sqrt(energy / p.E)
    amps = tensor(*su2s) @ s.amps
    norm = math.sqrt(amps.real.dot(amps.real) + amps.imag.dot(amps.imag))
    return amps / norm, s.kin_factor * kin * norm, labels


_AMPS = st.tuples(*[st.floats(-1.0, 1.0)] * 8).filter(lambda v: sum(x * x for x in v) > 1e-6)
_BELL_11 = (0.0, 0.0, S2, 0.0, -S2, 0.0, 0.0, 0.0)


class TestPairKernelParity:
    """``boost_two_particle`` keeps every bit of the per-particle composition."""

    @settings(max_examples=300)
    @given(e=_DIRECTIONS, beta=st.floats(0.0, 0.99), log_r=st.floats(0.0, math.log(1e6),
           exclude_min=True), n=_DIRECTIONS, amps=_AMPS, chained=st.booleans())
    @example(e=-_N, beta=_STOP_1E6, log_r=math.log(1e6), n=_N, amps=_BELL_11,
             chained=False)  # into the first particle's rest frame
    @example(e=_N, beta=_STOP_1E6, log_r=math.log(1e6), n=_N, amps=_BELL_11,
             chained=False)  # into the second particle's rest frame
    @example(e=_NEAR_ANTI, beta=0.99, log_r=math.log(1e6), n=_N, amps=_BELL_11,
             chained=False)  # anti-collinear within 1e-8 rad
    @example(e=_direction([0.0, 0.6, -0.8]), beta=0.7, log_r=math.log(1e4), n=_N,
             amps=_BELL_11, chained=True)  # a second boost after stopping particle 1
    def test_bytes_match_composition(self, e, beta, log_r, n, amps, chained):
        r = math.exp(log_r)
        p = FourMomentum.from_spatial(math.sqrt((r - 1.0) * (r + 1.0)) * n)
        z = np.array(amps[:4]) + 1j * np.array(amps[4:])
        s = TwoQubitState(amps=z / np.linalg.norm(z), kin_factor=1.0, p_label=p)
        if chained:
            s = boost_two_particle(s, BoostSpec(-n, p.p_mag / p.E))
        b = BoostSpec(e, beta)
        out = boost_two_particle(s, b)
        amps_ref, kin_ref, labels = _composed_boost(s, b)
        assert out.amps.tobytes() == amps_ref.tobytes()
        assert out.kin_factor == kin_ref
        for got, want in zip((out.p_label, out.p2_label), labels):
            assert got.four_vector.tobytes() == want.four_vector.tobytes()


class TestPairKernelChecks:
    """The pair kernel builds no per-particle object but keeps each object's check."""

    def test_no_wigner_rotation_built(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("the pair kernel built a WignerRotation")

        monkeypatch.setattr(WignerRotation, "__post_init__", forbidden)
        out = boost_two_particle(bell_state(0, 0, _pair()), BoostSpec(X_HAT, 0.6))
        assert abs(float(np.vdot(out.amps, out.amps).real) - 1.0) < 1e-15

    @pytest.mark.parametrize("where", [0, 1])
    def test_quaternion_off_unit_norm_raises(self, monkeypatch, where):
        from relbell import bell

        def off_norm(b, p):
            cos_half, sin_half_vec, q, energy = _boost_parts(b, p)
            if where == 0:
                return cos_half * (1.0 + 1e-9), sin_half_vec, q, energy
            return cos_half, sin_half_vec * (1.0 + 1e-9) + 1e-9 * X_HAT, q, energy

        monkeypatch.setattr(bell, "_boost_parts", off_norm)
        with pytest.raises(ValueError, match="^su2 is not unitary$"):
            boost_two_particle(bell_state(0, 0, _pair()), BoostSpec(X_HAT, 0.6))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_momentum_raises(self, monkeypatch, bad):
        from relbell import bell

        def nonfinite(b, p):
            cos_half, sin_half_vec, q, energy = _boost_parts(b, p)
            return cos_half, sin_half_vec, q + np.array([0.0, bad, 0.0]), energy

        monkeypatch.setattr(bell, "_boost_parts", nonfinite)
        with pytest.raises(ValueError, match="must be finite"):
            boost_two_particle(bell_state(0, 0, _pair()), BoostSpec(X_HAT, 0.6))


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


def _boost_direction(kind, n, u):
    """A unit boost direction whose c = e.p_hat against the pair momentum ``n`` is of ``kind``.

    c = 0 holds exactly only for p_hat = +z and e in the xy-plane; ``u`` is
    any direction off ``n`` (or off the z-axis for c = 0).
    """
    if kind == "c=0":
        return _direction([u[0], u[1], 0.0])
    w = _direction(u - (u @ n) * n)  # a unit vector perpendicular to n
    return _direction({"c>0": n + w, "c<0": -n + w, "anti": -n + 1e-8 * w}[kind])


class TestGridKernelParity:
    """The array path over a beta grid equals per-point scalar calls bit for bit."""

    @settings(max_examples=200)
    @given(kind=st.sampled_from(["c>0", "c=0", "c<0", "anti"]), n=_DIRECTIONS, u=_DIRECTIONS,
           log_r=st.floats(math.log1p(1e-10), math.log(1e6)),
           betas=st.lists(st.floats(0.0, BETA_CLAMP, exclude_min=True), min_size=1, max_size=6),
           amps=_AMPS, vecs=st.tuples(*[_DIRECTIONS] * 4))
    @example(kind="c=0", n=Z_HAT, u=X_HAT, log_r=math.log(10.0), betas=[0.01, 0.6, BETA_CLAMP],
             amps=_BELL_11, vecs=(CASE1_SETTINGS.a, CASE1_SETTINGS.a_prime, CASE1_SETTINGS.b,
                                  CASE1_SETTINGS.b_prime))  # the paper's geometry
    @example(kind="anti", n=_N, u=X_HAT, log_r=math.log(1e6), betas=[_STOP_1E6, 0.5],
             amps=_BELL_11, vecs=(X_HAT, Y_HAT, Z_HAT, _N))  # near the rest frame at 1e-8 rad
    @example(kind="c>0", n=_N, u=X_HAT, log_r=math.log1p(1e-10), betas=[1e-12, 0.3],
             amps=_BELL_11, vecs=(X_HAT, Y_HAT, Z_HAT, _N))  # E/m = 1 + 1e-10
    def test_rows_equal_scalar_calls(self, kind, n, u, log_r, betas, amps, vecs):
        if kind == "c=0":
            n = Z_HAT
        assume(math.hypot(*(u - (u @ n) * n)) > 1e-3)
        r = math.exp(log_r)
        p = FourMomentum.from_spatial(math.sqrt((r - 1.0) * (r + 1.0)) * n)
        z = np.array(amps[:4]) + 1j * np.array(amps[4:])
        s = TwoQubitState(amps=z / np.linalg.norm(z), kin_factor=1.0, p_label=p)
        e = _boost_direction(kind, n, np.asarray(u))
        settings_ = ChshSettings(*vecs)
        grid_betas = np.array(betas)
        amps_g, norm_g, ((q1_g, e1_g), (q2_g, e2_g)) = _spin_map(BoostSpec._grid(e, grid_betas), s)
        chsh_g = _chsh_amps(amps_g, settings_, grid_betas, e)
        for i, beta in enumerate(betas):
            amps_1, norm_1, ((q1, e1), (q2, e2)) = _spin_map(BoostSpec(e, beta), s)
            assert _bits(amps_g[i]) == _bits(amps_1)
            assert _bits(norm_g[i]) == _bits(norm_1)
            assert _bits(q1_g[i]) == _bits(q1) and _bits(e1_g[i]) == _bits(e1)
            assert _bits(q2_g[i]) == _bits(q2) and _bits(e2_g[i]) == _bits(e2)
            assert _bits(chsh_g[i]) == _bits(_chsh_amps(amps_1, settings_, beta, e))


class TestGridKernelChecks:
    """The array path keeps each scalar check, once over the whole array; NaN fails each."""

    @pytest.mark.parametrize("betas", [[0.5, math.nan], [0.0, 0.5], [0.5, 1.0], [[0.5]]])
    def test_grid_speeds_validated(self, betas):
        with pytest.raises(ValueError, match="grid speeds must form a 1-D array in"):
            BoostSpec._grid(X_HAT, betas)

    def test_grid_matches_scalar_boost_spec(self):
        b = BoostSpec._grid(X_HAT, [0.3, BETA_CLAMP])
        for i, beta in enumerate((0.3, BETA_CLAMP)):
            one = BoostSpec(X_HAT, beta)
            assert (b.alpha[i], b.gamma[i]) == (one.alpha, one.gamma)

    @pytest.mark.parametrize("bad", [math.nan, 1.0 + 1e-9])
    def test_su2_checks_every_row(self, bad):
        c = np.array([1.0, bad])
        with pytest.raises(ValueError, match="^su2 is not unitary$"):
            _su2(c, *np.zeros((3, 2)))

    def test_quaternion_off_unit_norm_raises(self, monkeypatch):
        from relbell import bell

        def off_norm(b, p):
            cos_half, sin_half_vec, q, energy = _boost_parts(b, p)
            return cos_half * np.array([1.0, 1.0 + 1e-9]), sin_half_vec, q, energy

        monkeypatch.setattr(bell, "_boost_parts", off_norm)
        with pytest.raises(ValueError, match="^su2 is not unitary$"):
            _spin_map(BoostSpec._grid(X_HAT, [0.3, 0.6]), bell_state(0, 0, _pair()))

    def test_nan_amplitude_is_not_real(self):
        amps = np.array([bell_state(1, 0, _pair()).amps, np.full(4, complex(math.nan, 0.0))])
        with pytest.raises(ArithmeticError, match="correlation tensor not real"):
            _chsh_amps(amps, CASE1_SETTINGS, np.array([0.3, 0.6]), X_HAT)

    def test_nan_beta_fails_the_unit_norm_check(self):
        amps = np.tile(bell_state(1, 0, _pair()).amps, (2, 1))
        with pytest.raises(ValueError, match="^observable must square to the identity$"):
            _chsh_amps(amps, CASE1_SETTINGS, np.array([0.3, math.nan]), X_HAT)


class TestBellDecompose:
    def test_basis_states(self):
        p = _pair()
        for k, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            c = bell_decompose(bell_state(i, j, p)).as_array()
            expected = np.zeros(4)
            expected[k] = 1.0
            np.testing.assert_allclose(c, expected, atol=1e-15)

    def test_reconstruction(self):
        rng = np.random.default_rng(23)
        p = _pair()
        basis = [bell_state(i, j, p).amps for (i, j) in ((0, 0), (0, 1), (1, 0), (1, 1))]
        for _ in range(50):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps /= np.linalg.norm(amps)
            s = TwoQubitState(amps=amps, kin_factor=1.0, p_label=p)
            c = bell_decompose(s).as_array()
            rebuilt = sum(ck * bk for ck, bk in zip(c, basis))
            assert max_abs_diff(rebuilt, amps) < 1e-12

    def test_local_unitaries_keep_unit_norm(self):
        rng = np.random.default_rng(24)
        p = _pair()
        for _ in range(50):
            u1 = exp2(1j * sigma_dot(rng.normal(size=3)))
            u2 = exp2(1j * sigma_dot(rng.normal(size=3)))
            amps = tensor(u1, u2) @ bell_state(0, 0, p).amps
            s = TwoQubitState(amps=amps, kin_factor=1.0, p_label=p)
            c = bell_decompose(s).as_array()
            assert float(np.sum(np.abs(c) ** 2)) == pytest.approx(1.0, abs=1e-12)


class TestTwoQubitStateType:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            TwoQubitState(amps=np.array([1.0, 0, 0, 1.0]), kin_factor=1.0, p_label=_pair())

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            TwoQubitState(amps=np.array([1.0, 0, 0]), kin_factor=1.0, p_label=_pair())

    @pytest.mark.parametrize("kin_factor", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
    def test_rejects_bad_kin_factor(self, kin_factor):
        with pytest.raises(ValueError, match="^kin_factor must be finite and positive"):
            TwoQubitState(amps=bell_state(0, 0, _pair()).amps, kin_factor=kin_factor,
                          p_label=_pair())

    def test_amps_read_only(self):
        s = bell_state(0, 0, _pair())
        with pytest.raises(ValueError):
            s.amps[0] = 0.0


class TestDumpFormat:
    def test_exact_text_for_rest_optimal_pair(self):
        s = bell_state(0, 0, _pair())
        expected = (
            "++ 0.70710678118654746 0\n"
            "+- 0 0\n"
            "-+ 0 0\n"
            "-- 0.70710678118654746 0\n"
            "kin_factor 1\n"
        )
        assert dump_state(s) == expected

    def test_amplitudes_round_trip(self):
        out = boost_two_particle(bell_state(1, 1, _pair()), BoostSpec(X_HAT, 0.77))
        text = dump_state(out)
        lines = text.strip().split("\n")
        assert [ln.split()[0] for ln in lines[:4]] == list(BASIS_LABELS)
        for ln, amp in zip(lines[:4], out.amps):
            _, re_s, im_s = ln.split()
            assert float(re_s) == amp.real  # 17 significant digits round-trip
            assert float(im_s) == amp.imag
        key, value = lines[4].split()
        assert key == "kin_factor"
        assert float(value) == out.kin_factor
