"""Bell pairs under boosts: amplitudes, sector structure, dump format."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from draw_reference import unit
import mp_oracle
from test_wigner import (
    _DIRECTIONS,
    _N,
    _NEAR_ANTI,
    _STOP_1E6,
    _bits,
    _boost_direction,
    _direction,
)
from relbell.bell import (
    BASIS_LABELS,
    TwoQubitState,
    bell_decompose,
    bell_state,
    boost_two_particle,
    dump_state,
)
from relbell.cli import BETA_CLAMP
from relbell.kinematics import (MASS_SHELL_RTOL, BoostSpec, FourMomentum, X_HAT, Y_HAT, Z_HAT,
                                apply_boost, boost_matrix)
from relbell.linalg import IDENTITY2, exp2, max_abs_diff, sigma_dot, tensor
from relbell.kinematics import _unchecked
from relbell.observables import CASE1_SETTINGS, ChshSettings, chsh
from relbell.optimizer import maximize_chsh
from relbell.wigner import WignerRotation, _quaternion, _su2, little_group_closed, wigner_angle

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
            e = unit(rng)
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
            out = boost_two_particle(s, BoostSpec(unit(rng), rng.uniform(0, 0.99)))
            assert abs(float(np.vdot(out.amps, out.amps).real) - 1.0) < 1e-12

    def test_normalization_matches_the_oracle(self):
        # the amplitudes and kin_factor against the 40-digit pair boost
        rng = np.random.default_rng(25)
        for _ in range(100):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            s = TwoQubitState(amps=amps / np.linalg.norm(amps), kin_factor=1.0,
                              p_label=_pair(3.0))
            b = BoostSpec(unit(rng), rng.uniform(0, 0.99))
            _assert_near_oracle(s, b)


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


ULP1 = math.ulp(1.0)
#: the pair kernel's worst errors against ``mp_oracle.boost_pair``, measured
#: on these tests' inputs and on eight other draws of the property test:
#: amplitudes in ulp(1) and kin_factor in ulps, each over kappa, and the
#: labels in ulp(1) of the largest momentum involved
_ORACLE_ULPS = (1.0, 3.5, 2.0)


def _kappa(b, p) -> float:
    """1 + sh(a/2) sh(d/2) / K: how much an absolute rounding of e x p_hat moves the quaternion.

    It is large only where e and p_hat are anti-parallel and the boost
    nearly stops the particle (K near 1): there the rotation turns on
    directions that float64 resolves only to about 1e-16.
    """
    oracle_energy = mp_oracle.boost_particle(b.e, None, p.p, p.m, beta=b.beta)[3]
    k = math.sqrt(0.5 + 0.5 * float(oracle_energy) / p.m)
    sh_half = (math.sinh(math.atanh(b.beta) / 2.0) * p.p_mag
               / math.sqrt(2.0 * p.m * (p.E + p.m)))
    return 1.0 + sh_half / k


def _oracle_errors(s, b, out, size):
    """Errors of ``out = boost_two_particle(s, b)`` against the 40-digit pair boost.

    Amplitudes in ulp(1) and kin_factor in ulps of itself, both over the
    larger kappa of the two particles, and the labels (q, E') in ulp(1)
    times ``size``, the size of the momenta that cancel in them.
    """
    p1, p2 = s.p_label, s.p2_label
    want, kin, labels = mp_oracle.boost_pair(s.amps, b.e, p1.p, p2.p, beta=b.beta)
    kappa = max(_kappa(b, p1), _kappa(b, p2))
    amps = max(max(abs(float(w.real) - g.real), abs(float(w.imag) - g.imag))
               for g, w in zip(out.amps.tolist(), want)) / ULP1
    kin = float(kin) * s.kin_factor
    size = max(size, *(float(energy) for _, energy in labels))
    label = max(max_abs_diff(got.four_vector, [float(x) for x in (*q, energy)])
                for got, (q, energy) in zip((out.p_label, out.p2_label), labels))
    return amps / kappa, abs(out.kin_factor - kin) / (ULP1 * kin * kappa), label / (ULP1 * size)


def _assert_near_oracle(s, b, size=0.0):
    """``boost_two_particle(s, b)`` within ``_ORACLE_ULPS`` of the oracle (``_oracle_errors``)."""
    errors = _oracle_errors(s, b, boost_two_particle(s, b),
                            max(size, *(p.E + p.p_mag for p in (s.p_label, s.p2_label))))
    assert all(x <= bound for x, bound in zip(errors, _ORACLE_ULPS)), errors


_AMPS = st.tuples(*[st.floats(-1.0, 1.0)] * 8).filter(lambda v: sum(x * x for x in v) > 1e-6)
_BELL_11 = (0.0, 0.0, S2, 0.0, -S2, 0.0, 0.0, 0.0)


class TestPairKernelOracle:
    """``boost_two_particle`` against the 40-digit pair boost, over the documented domain."""

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
    def test_matches_the_oracle(self, e, beta, log_r, n, amps, chained):
        r = math.exp(log_r)
        p = FourMomentum.from_spatial(math.sqrt((r - 1.0) * (r + 1.0)) * n)
        z = np.array(amps[:4]) + 1j * np.array(amps[4:])
        s = TwoQubitState(amps=z / np.linalg.norm(z), kin_factor=1.0, p_label=p)
        if chained:  # labels re-derived on shell: the oracle re-derives E from q too
            once = boost_two_particle(s, BoostSpec(-n, p.p_mag / p.E))
            s = TwoQubitState(once.amps, once.kin_factor,
                              *(FourMomentum.from_spatial(q.p) for q in (once.p_label,
                                                                         once.p2_label)))
        _assert_near_oracle(s, BoostSpec(e, beta), p.E + p.p_mag)


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
            cos_half, (x, y, z), k2, q, energy = _quaternion(b, p)
            if where == 0:
                return cos_half * (1.0 + 1e-9), (x, y, z), k2, q, energy
            scale = 1.0 + 1e-9
            return cos_half, (x * scale + 1e-9, y * scale, z * scale), k2, q, energy

        monkeypatch.setattr(bell, "_quaternion", off_norm)
        with pytest.raises(ValueError, match="^su2 is not unitary$"):
            boost_two_particle(bell_state(0, 0, _pair()), BoostSpec(X_HAT, 0.6))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_momentum_raises(self, monkeypatch, bad):
        from relbell import bell

        def nonfinite(b, p):
            cos_half, sin_half_vec, k2, (q0, q1, q2), energy = _quaternion(b, p)
            return cos_half, sin_half_vec, k2, (q0, q1 + bad, q2), energy

        monkeypatch.setattr(bell, "_quaternion", nonfinite)
        with pytest.raises(ValueError, match="must be finite"):
            boost_two_particle(bell_state(0, 0, _pair()), BoostSpec(X_HAT, 0.6))


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
        grid = boost_two_particle(s, BoostSpec(e, grid_betas))
        chsh_g = chsh(grid, settings_, grid_betas, e)
        assert type(chsh_g) is np.ndarray and chsh_g.shape == (len(betas),)
        for i, beta in enumerate(betas):
            one = boost_two_particle(s, BoostSpec(e, beta))
            assert _bits(grid.amps[i]) == _bits(one.amps)
            assert _bits(grid.kin_factor[i]) == _bits(one.kin_factor)
            for g, o in ((grid.p_label, one.p_label), (grid.p2_label, one.p2_label)):
                assert _bits(g.p[i]) == _bits(o.p) and _bits(g.E[i]) == _bits(o.E)
            value = chsh(one, settings_, beta, e)
            assert type(value) is float and _bits(chsh_g[i]) == _bits(value)


class TestGridKernelChecks:
    """The array path keeps each scalar check, once over the whole array; NaN fails each."""

    def test_grid_matches_scalar_boost_spec(self):
        b = BoostSpec(X_HAT, [0.3, BETA_CLAMP])
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
            cos_half, sin_half_vec, k2, q, energy = _quaternion(b, p)
            return cos_half * np.array([1.0, 1.0 + 1e-9]), sin_half_vec, k2, q, energy

        monkeypatch.setattr(bell, "_quaternion", off_norm)
        with pytest.raises(ValueError, match="^su2 is not unitary$"):
            boost_two_particle(bell_state(0, 0, _pair()), BoostSpec(X_HAT, [0.3, 0.6]))

    def test_nan_amplitude_is_not_real(self):
        amps = np.array([bell_state(1, 0, _pair()).amps, np.full(4, complex(math.nan, 0.0))])
        s = _unchecked(TwoQubitState, amps=amps)  # past the state's own finite check
        with pytest.raises(ArithmeticError, match="correlation tensor not real"):
            chsh(s, CASE1_SETTINGS, np.array([0.3, 0.6]), X_HAT)

    def test_nan_beta_row_raises(self):
        """As ``chsh`` raises for one pair at beta NaN, before any observable is formed."""
        s = TwoQubitState(np.tile(bell_state(1, 0, _pair()).amps, (2, 1)), 1.0, _pair())
        with pytest.raises(ValueError, match=r"^beta must lie in \[0, 1\], got \[0.3 nan\]$"):
            chsh(s, CASE1_SETTINGS, np.array([0.3, math.nan]), X_HAT)
        with pytest.raises(ValueError, match=r"^beta must lie in \[0, 1\], got nan$"):
            chsh(s._row(1), CASE1_SETTINGS, math.nan, X_HAT)


_ROW_KINDS = ["c>0", "c=0", "c<0", "anti", "any", "rest1", "rest2"]

# c < 0 rows on which Python's (e_i + p_i) ** 2 in 1 + c differs from numpy's square
_POW_ROWS = [("any", np.array([-0.24165706266731596, 0.2372312355240511, 0.9409161519257373]),
              np.array([0.7773948549046965, 0.15391586300019786, -0.6098910941181305]),
              2.8783710297090037, 0.7858949044038348),
             ("any", np.array([-0.5116759978187781, 0.79007475743206, 0.3375937661225831]),
              np.array([-0.8150163791462788, -0.5561696103817352, -0.1625535795087825]),
              0.9943390201882556, 0.5157558984978303)]


def _row_inputs(kind, n, u, log_r, beta, amps, vecs):
    """One row's pair, boost and settings, built by the public constructors.

    ``kind`` picks the boost: c = e.p_hat of the first particle > 0, = 0
    exactly (p_hat = +z), < 0, anti-collinear within 1e-8 rad or along ``u``
    ("any"), each at speed ``beta``; or the rest frame of the first or the
    second particle.
    """
    if kind == "c=0":
        n = Z_HAT
    r = math.exp(log_r)
    p = FourMomentum.from_spatial(math.sqrt((r - 1.0) * (r + 1.0)) * n)
    z = np.array(amps[:4]) + 1j * np.array(amps[4:])
    s = TwoQubitState(amps=z / np.linalg.norm(z), kin_factor=1.0, p_label=p)
    if kind.startswith("rest"):
        q = (s.p_label, s.p2_label)[kind == "rest2"]
        b = BoostSpec(-q.direction(), q.p_mag / q.E)
    elif kind == "any":
        b = BoostSpec(u, beta)
    else:
        b = BoostSpec(_boost_direction(kind, n, np.asarray(u)), beta)
    return s, b, ChshSettings(*vecs)


def _usable_row(row):
    kind, n, u = row[:3]
    n = Z_HAT if kind == "c=0" else n
    return kind == "any" or math.hypot(*(u - (u @ n) * n)) > 1e-3


_ROWS = st.lists(st.tuples(st.sampled_from(_ROW_KINDS), _DIRECTIONS, _DIRECTIONS,
                           st.floats(math.log1p(1e-10), math.log(1e6)),
                           st.floats(0.0, BETA_CLAMP), _AMPS,
                           st.tuples(*[_DIRECTIONS] * 4)).filter(_usable_row),
                 min_size=1, max_size=6)
_PAPER_VECS = (CASE1_SETTINGS.a, CASE1_SETTINGS.a_prime, CASE1_SETTINGS.b, CASE1_SETTINGS.b_prime)


def _stack_rows(scalar):
    """The n-row inputs holding the scalar pairs, boosts and settings of ``scalar`` row by row."""
    pairs, boosts, settings_ = zip(*scalar)
    p = [s.p_label for s in pairs]
    s = TwoQubitState([s.amps for s in pairs], 1.0,
                      FourMomentum([q.p for q in p], [q.E for q in p]))
    b = BoostSpec([b.e for b in boosts], [b.beta for b in boosts])
    c = ChshSettings(*(np.array([getattr(c, name) for c in settings_])
                       for name in ("a", "a_prime", "b", "b_prime")))
    return s, b, c


def _assert_same_pair(got, want):
    assert _bits(got.amps) == _bits(want.amps)
    assert _bits(got.kin_factor) == _bits(want.kin_factor)
    for g, w in ((got.p_label, want.p_label), (got.p2_label, want.p2_label)):
        assert _bits(g.p) == _bits(w.p) and _bits(g.E) == _bits(w.E) and _bits(g.m) == _bits(w.m)


class TestRowKernelParity:
    """n rows, each with its own boost, momentum, amplitudes and settings, equal scalar calls."""

    @settings(max_examples=200)
    @given(rows=_ROWS)
    @example(rows=[("c>0", _N, X_HAT, math.log(10.0), 0.6, _BELL_11, _PAPER_VECS),
                   ("c<0", _N, X_HAT, math.log(1e3), 0.9, _BELL_11, _PAPER_VECS),
                   ("anti", _N, X_HAT, math.log(1e6), BETA_CLAMP, _BELL_11, _PAPER_VECS),
                   ("rest1", _N, X_HAT, math.log(1e6), 0.0, _BELL_11, _PAPER_VECS),
                   ("rest2", _N, X_HAT, math.log(1e6), 0.0, _BELL_11, _PAPER_VECS),
                   ("c=0", _N, X_HAT, math.log1p(1e-10), 0.0, _BELL_11, _PAPER_VECS)])
    @example(rows=[row + (_BELL_11, _PAPER_VECS) for row in _POW_ROWS]
             + [("c>0", _N, X_HAT, math.log(10.0), 0.6, _BELL_11, _PAPER_VECS)])
    def test_rows_equal_scalar_calls(self, rows):
        scalar = [_row_inputs(*row) for row in rows]
        s, b, c = _stack_rows(scalar)
        out = boost_two_particle(s, b)
        values = chsh(out, c, b.beta, b.e)
        assert type(values) is np.ndarray and values.shape == (len(rows),)
        coefficients = bell_decompose(out).as_array()
        for k, (s1, b1, c1) in enumerate(scalar):
            one = boost_two_particle(s1, b1)
            _assert_same_pair(out._row(k), one)
            assert _bits(values[k]) == _bits(chsh(one, c1, b1.beta, b1.e))
            assert _bits(coefficients[:, k]) == _bits(bell_decompose(one).as_array())

    def test_chained_rapidity_rows(self):
        """Rapidity rows (``from_rapidity``), then a second boost on boosted rows, as in verify."""
        rng = np.random.default_rng(5)
        e = np.array([unit(rng) for _ in range(8)])
        a1, a2 = rng.uniform(0.1, 1.5, size=(2, 8))
        z = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        pairs = [TwoQubitState(amps=v / np.linalg.norm(v), kin_factor=1.0,
                               p_label=FourMomentum.along_z(2.0)) for v in z]
        s = TwoQubitState([q.amps for q in pairs], 1.0, FourMomentum.along_z(2.0))
        twice = boost_two_particle(boost_two_particle(s, BoostSpec.from_rapidity(e, a1)),
                                   BoostSpec.from_rapidity(e, a2))
        for k, pair in enumerate(pairs):
            one = boost_two_particle(pair, BoostSpec.from_rapidity(e[k], a1[k]))
            _assert_same_pair(twice._row(k),
                              boost_two_particle(one, BoostSpec.from_rapidity(e[k], a2[k])))

    def test_rows_match_scalar_boost_specs(self):
        """Mixed-sign rapidities along one direction or a stack: a negative one flips its row."""
        alphas = [0.5, -3.0, -0.0, -1e-300]
        stack = np.array([X_HAT, -_N, Z_HAT, _N])
        for e, row_e in ((_N, [_N] * 4), (stack, stack)):
            b = BoostSpec.from_rapidity(e, alphas)
            for k, alpha in enumerate(alphas):
                one = BoostSpec.from_rapidity(row_e[k], alpha)
                for name in ("e", "beta", "alpha", "gamma", "gamma_beta"):
                    assert _bits(getattr(b, name)[k]) == _bits(getattr(one, name)), name


_SPEED_RANGE = r"^beta must lie in \[0, 1\), got "


class TestRowKernelChecks:
    """Every check of the scalar route runs once over the rows; one bad row fails the call."""

    @staticmethod
    def _pairs():
        p = [FourMomentum.from_spatial(v) for v in ([0.0, 0.0, 3.0], [1.0, -2.0, 0.5])]
        return TwoQubitState(bell_state(1, 1, _pair()).amps, 1.0,
                             FourMomentum([q.p for q in p], [q.E for q in p]))

    def test_nan_rapidity_row_raises(self):
        b = BoostSpec([X_HAT, -_N], [0.3, 0.6])
        bad = _unchecked(BoostSpec, e=b.e, beta=b.beta, alpha=b.alpha, gamma=b.gamma,
                         gamma_beta=np.array([b.gamma_beta[0], math.nan]))
        with pytest.raises(ValueError, match="^su2 is not unitary$"):
            boost_two_particle(self._pairs(), bad)

    def test_nan_momentum_row_raises(self):
        s = self._pairs()
        p = np.array(s.p_label.p)
        p[1, 0] = math.nan
        bad = _unchecked(FourMomentum, p=p, E=s.p_label.E, m=s.p_label.m)
        with pytest.raises(ValueError, match="^su2 is not unitary$"):
            boost_two_particle(_unchecked(TwoQubitState, amps=s.amps, kin_factor=s.kin_factor,
                                          p_label=bad, p2_label=s.p2_label),
                               BoostSpec(X_HAT, [0.3, 0.6]))

    def test_quaternion_off_unit_norm_in_one_row_raises(self, monkeypatch):
        from relbell import bell

        def off_norm(b, p):
            cos_half, sin_half_vec, k2, q, energy = _quaternion(b, p)
            return cos_half * np.array([1.0, 1.0 + 1e-9]), sin_half_vec, k2, q, energy

        monkeypatch.setattr(bell, "_quaternion", off_norm)
        with pytest.raises(ValueError, match="^su2 is not unitary$"):
            boost_two_particle(self._pairs(), BoostSpec([X_HAT, -_N], [0.3, 0.6]))

    @pytest.mark.parametrize(("beta", "match"), [
        pytest.param([0.3, math.nan], "^beta must be finite$", id="beta0"),
        pytest.param([0.3, 1.0], _SPEED_RANGE, id="beta1"),
        pytest.param([0.3, -0.1], _SPEED_RANGE, id="beta2"),
        pytest.param([[0.3]], "^boost rows take a 1-D array", id="beta3"),
        pytest.param([0.5, math.nan], "^beta must be finite$", id="beta4"),
        pytest.param([0.5, 1.0], _SPEED_RANGE, id="beta5"),
        pytest.param([[0.5]], "^boost rows take a 1-D array", id="beta6"),
    ])
    def test_speed_rows_validated(self, beta, match):
        with pytest.raises(ValueError, match=match):
            BoostSpec(X_HAT, beta)

    @pytest.mark.parametrize(("alpha", "match"), [
        pytest.param([0.3, math.nan], "^beta must be finite$", id="alpha0"),
        pytest.param([0.3, -math.inf], _SPEED_RANGE, id="alpha1"),  # flipped, then tanh = 1
        pytest.param([0.3, math.inf], _SPEED_RANGE, id="alpha2"),  # tanh(alpha) = 1
    ])
    def test_rapidity_rows_validated(self, alpha, match):
        with pytest.raises(ValueError, match=match):
            BoostSpec.from_rapidity(X_HAT, alpha)

    @pytest.mark.parametrize(("e", "failure"), [
        pytest.param([[1.0, 0.0, 0.0], [1.0, 1e-5, 0.0]], "be a unit vector", id="e0"),
        pytest.param([[1.0, 0.0, 0.0], [math.nan, 0.0, 0.0]], "be finite$", id="e1"),
    ])
    def test_direction_rows_validated(self, e, failure):
        with pytest.raises(ValueError, match="^boost direction must " + failure):
            BoostSpec(e, [0.3, 0.6])
        with pytest.raises(ValueError, match="^b must " + failure):
            ChshSettings(X_HAT, X_HAT, e, X_HAT)

    def test_direction_count_must_match(self):
        with pytest.raises(ValueError, match="2 boost directions for 3 speeds"):
            BoostSpec([X_HAT, Y_HAT], [0.1, 0.2, 0.3])

    @pytest.mark.parametrize(("energy", "match"), [
        pytest.param(math.nan, "^four-momentum components must be finite$", id="nan"),
        pytest.param(2.0, "^off mass shell", id="2.0"),
        pytest.param(0.5, "below rest mass", id="0.5"),
    ])
    def test_momentum_rows_validated(self, energy, match):
        with pytest.raises(ValueError, match=match):
            FourMomentum([[0.0, 0.0, 3.0], [0.0, 0.0, 0.0]], [math.sqrt(10.0), energy])

    def test_rows_take_the_masses_the_scalar_route_takes(self):
        # an int mass raised "momentum rows must be (n, 3) with n energies and masses"
        for m in (2, np.int64(2), np.float64(2.0), 2.0):
            rows = FourMomentum.from_spatial([[0, 0, 1], [0, 1, 0]], m=m)
            one = FourMomentum.from_spatial([0, 0, 1], m=m)
            assert rows.E.tolist() == [one.E] * 2 == [math.sqrt(5.0)] * 2
            assert rows.m.tolist() == [one.m] * 2 == [2.0, 2.0]

    @pytest.mark.parametrize(("scale", "match"), [
        pytest.param(math.nan, "^amplitudes must be finite$", id="nan"),
        pytest.param(1.0 + 1e-9, "^spin sector not normalized", id="1.000000001"),
    ])
    def test_amplitude_rows_validated(self, scale, match):
        amps = np.tile(bell_state(1, 1, _pair()).amps, (2, 1))
        amps[1] *= scale
        with pytest.raises(ValueError, match=match):
            TwoQubitState(amps, 1.0, _pair())

    def test_bell_state_rows_reject_a_pair_at_rest(self):
        with pytest.raises(ValueError, match=r"\|p\| > 0"):
            bell_state(0, 0, FourMomentum([[0.0, 0.0, 3.0], [0.0, 0.0, 0.0]],
                                          [math.sqrt(10.0), 1.0]))

    def test_nan_setting_row_raises(self):
        s = TwoQubitState(np.tile(bell_state(1, 0, _pair()).amps, (2, 1)), 1.0, _pair())
        a = np.array([X_HAT, [math.nan, 0.0, 0.0]])
        c = _unchecked(ChshSettings, a=a, a_prime=X_HAT, b=Y_HAT, b_prime=Z_HAT)
        with pytest.raises(ValueError, match="^observable must square to the identity$"):
            chsh(s, c, np.array([0.3, 0.6]), np.array([X_HAT, Y_HAT]))


# relative nudges across the tolerances (1e-12 on norms, 1e-9 on the mass shell); 0 mostly
_NUDGES = st.sampled_from([0.0] * 6 + [1e-12, -1e-12, 5e-13, -5e-13, 2e-12, -2e-12, 4.9e-10, 5.1e-10])
# a NaN or infinity at one index; an index past the row's length leaves it clean
_POISON = st.tuples(st.integers(0, 47), st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def _value_row(draw, kind):
    """The raw floats of one value of ``kind``: mostly valid, nudged across a tolerance or poisoned."""
    nudge = 1.0 + draw(_NUDGES)
    if kind == "momentum":  # p, E, m
        p = draw(st.tuples(*[st.floats(-1e3, 1e3)] * 3))
        m = draw(st.floats(-1.0, 1e3))
        row = [*p, math.sqrt(m * m + sum(x * x for x in p)) * nudge, m]
    elif kind == "spatial":  # p and m, E from the mass shell
        row = [*draw(st.tuples(*[st.floats(-1e6, 1e6)] * 3)), draw(st.floats(-1.0, 1e3))]
    elif kind in ("speed", "rapidity"):  # e, then beta or alpha
        x = st.floats(-0.1, 1.1) if kind == "speed" else st.floats(-25.0, 25.0)
        row = [*(draw(_DIRECTIONS) * nudge), draw(x | st.sampled_from([0.0, BETA_CLAMP, 1.0]))]
    elif kind == "state":  # Re and Im of each amplitude, then kin_factor
        z = np.array(draw(_AMPS))
        row = [*(z / math.sqrt(z @ z) * math.sqrt(nudge)), draw(st.floats(-1.0, 10.0))]
    else:  # the four directions of a setting, one of them nudged
        nudged = draw(st.integers(0, 3))
        row = [x * (nudge if k == nudged else 1.0) for k in range(4) for x in draw(_DIRECTIONS)]
    at, bad = draw(_POISON)
    if at < len(row):
        row[at] = bad
    return row


_VALUE_KINDS = ("momentum", "spatial", "speed", "rapidity", "state", "settings")
_VALUE_CASES = st.sampled_from(_VALUE_KINDS).flatmap(
    lambda kind: st.tuples(st.just(kind), st.lists(_value_row(kind), min_size=1, max_size=4)))


def _one_value(kind, row):
    if kind == "momentum":
        return FourMomentum(np.array(row[:3]), row[3], row[4])
    if kind == "spatial":
        return FourMomentum.from_spatial(np.array(row[:3]), row[3])
    if kind == "speed":
        return BoostSpec(np.array(row[:3]), row[3])
    if kind == "rapidity":
        return BoostSpec.from_rapidity(np.array(row[:3]), row[3])
    if kind == "state":
        return TwoQubitState(np.array(row[:8]).view(complex), row[8], _pair())
    return ChshSettings(*np.reshape(row, (4, 3)))


def _value_rows(kind, rows):
    a = np.array(rows)
    if kind == "momentum":
        return FourMomentum(a[:, :3], a[:, 3], a[:, 4])
    if kind == "spatial":
        return FourMomentum.from_spatial(a[:, :3], a[:, 3])
    if kind == "speed":
        return BoostSpec(a[:, :3], a[:, 3])
    if kind == "rapidity":
        return BoostSpec.from_rapidity(a[:, :3], a[:, 3])
    if kind == "state":
        return TwoQubitState(np.ascontiguousarray(a[:, :8]).view(complex), a[:, 8], _pair())
    return ChshSettings(*a.reshape(len(rows), 4, 3).transpose(1, 0, 2))


_VALUE_FIELDS = {"momentum": ("p", "E", "m"), "speed": ("e", "beta", "alpha", "gamma", "gamma_beta"),
                 "state": ("amps", "kin_factor"), "settings": ("a", "a_prime", "b", "b_prime")}
_VALUE_FIELDS["spatial"] = _VALUE_FIELDS["momentum"]
_VALUE_FIELDS["rapidity"] = _VALUE_FIELDS["speed"]


def _built(build, *args):
    try:
        return build(*args)
    except Exception as exc:  # the type is compared, whatever it is
        return type(exc)


_E_EDGE = 1.0 - 1e-12  # E >= m (1 - 1e-12) for m = 1
_E_SHELL = math.sqrt(10.0 / (1.0 - MASS_SHELL_RTOL))  # E^2 - 9 - 1 = RTOL E^2 for p = (0, 0, 3)
_UNIT_AMP = 0.5 * math.sqrt(2.0)
_P_1E6 = math.sqrt((1e6 - 1.0) * (1e6 + 1.0))  # |p| at E/m = 1e6 for m = 1


class TestRowsAcceptWhatScalarsAccept:
    """A constructor on n rows raises exactly when a row's call does, with its type; keeps bits."""

    @settings(max_examples=150)
    @given(case=_VALUE_CASES)
    @example(case=("momentum", [[0.0, 0.0, 1.0, math.sqrt(2.0), 1.0],
                                [math.nan, 0.0, 1.0, math.sqrt(2.0), 1.0]]))
    @example(case=("speed", [[1.0, 0.0, 0.0, 0.5], [1.0, 0.0, 0.0, math.inf]]))
    @example(case=("state", [[_UNIT_AMP, 0.0, 0.0, 0.0, 0.0, 0.0, _UNIT_AMP, 0.0, -math.inf]]))
    @example(case=("momentum", [[0.0, 0.0, 0.0, math.nextafter(_E_EDGE, 2.0), 1.0],
                                [0.0, 0.0, 0.0, math.nextafter(_E_EDGE, 0.0), 1.0]]))
    @example(case=("momentum", [[0.0, 0.0, 3.0, x, 1.0] for x in (
        math.nextafter(_E_SHELL, 0.0), _E_SHELL, math.nextafter(_E_SHELL, 4.0))]))
    @example(case=("speed", [[1.0 + 1e-12, 0.0, 0.0, 0.5], [1.0 - 1e-12, 0.0, 0.0, 0.5]]))
    @example(case=("settings", [[1.0 + 1e-12, 0.0, 0.0] + [0.0, 1.0, 0.0] * 3,
                                [0.0, 0.0, 1.0 - 1e-12] + [0.0, 1.0, 0.0] * 3]))
    @example(case=("state", [[math.sqrt(1.0 + d), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
                             for d in (1e-12, -1e-12)]))
    @example(case=("speed", [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, BETA_CLAMP]]))
    @example(case=("rapidity", [[1.0, 0.0, 0.0, 18.0], [0.0, 0.0, 1.0, 0.0]]))
    @example(case=("rapidity", [[1.0, 0.0, 0.0, -18.0], [0.0, 0.0, 1.0, 0.5],
                                [0.0, 1.0, 0.0, -0.0]]))  # a negative rapidity flips its row
    @example(case=("spatial", [[0.0, 0.0, 0.0, 1.0], [0.0, -0.0, 0.0, 2.5]]))  # at rest
    @example(case=("spatial", [[1e6, 0.0, 0.0, 1.0], [0.0, 6e5, -8e5, 1.0], [3e5, 4e5, 1.2e6, 2]]))
    @example(case=("spatial", [[0.0, 0.0, 1.0, 1.0], [0.0, math.inf, 1.0, 1.0]]))
    @example(case=("spatial", [[0.3, -1.2, 2.0, 1.0], [math.nan, 0.0, 1.0, 1.0]]))
    # E from _rowdot here is one ulp below sqrt(1 + (x*x + y*y + z*z)) summed left to right
    @example(case=("spatial", [[-457.09679093979696, 759.3023466698444, -871.571125375618, 1.0]]))
    # one vector's E goes through p.dot(p), the rows' through _rowdot: |p| = 1e-8, E/m = 1e6
    # and a momentum just under the 1e150 guard past which one vector takes the rows' route
    @example(case=("spatial", [[1e-8, 0.0, 0.0, 1.0], [0.0, 6e-9, -8e-9, 1.0],
                               [3e-9, -4e-9, 1.2e-8, 2.0]]))
    @example(case=("spatial", [[0.0, 0.0, _P_1E6, 1.0], [0.6 * _P_1E6, -0.8 * _P_1E6, 0.0, 1.0],
                               [-0.48 * _P_1E6, 0.6 * _P_1E6, 0.64 * _P_1E6, 1.0]]))
    @example(case=("spatial", [[math.nextafter(1e150, 0.0), 0.0, 0.0, 1.0],
                               [9e149, -3e149, 2e149, 1.0], [1.0, 2.0, 3.0, 9.9e149]]))
    def test_rows_accept_exactly_the_scalar_rows(self, case):
        kind, rows = case
        one = [_built(_one_value, kind, row) for row in rows]
        # each row alone, then all of them
        for chosen, values in [*(([row], [v]) for row, v in zip(rows, one)), (rows, one)]:
            errors = [v for v in values if isinstance(v, type)]
            got = _built(_value_rows, kind, chosen)
            if errors:
                assert got in errors, (chosen, got, errors)
                continue
            assert not isinstance(got, type), (chosen, got)
            for i, value in enumerate(values):
                for name in _VALUE_FIELDS[kind]:
                    assert _bits(getattr(got, name)[i]) == _bits(getattr(value, name)), name


def _boosted_rows():
    p = FourMomentum.from_spatial([[0.0, 0.0, 3.0], [1.0, -2.0, 0.5]])
    return boost_two_particle(bell_state(0, 0, p), BoostSpec(X_HAT, [0.3, 0.6]))


@pytest.mark.parametrize(("call", "message"), [
    (lambda s: maximize_chsh(s, 0.3, X_HAT), "maximize_chsh takes one pair"),
    (lambda s: maximize_chsh(s._row(0), [0.3, 0.6], X_HAT), "maximize_chsh takes one pair"),
    (dump_state, "dump_state takes one pair"),
    (lambda s: little_group_closed(BoostSpec(X_HAT, [0.3, 0.6]), s.p_label._row(0)),
     "little_group_closed takes one boost and one momentum"),
    (lambda s: little_group_closed(BoostSpec(X_HAT, 0.3), s.p_label),
     "little_group_closed takes one boost and one momentum"),
], ids=["maximize_chsh", "maximize_chsh-betas", "dump_state", "little_group_closed-boosts",
        "little_group_closed-momenta"])
def test_one_value_functions_reject_rows(call, message):
    """Functions of one pair (or one boost and momentum) name themselves when given n rows."""
    with pytest.raises(ValueError, match=f"^{message}"):
        call(_boosted_rows())


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
