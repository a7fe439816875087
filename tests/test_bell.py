"""Bell pairs under boosts: amplitudes, sector structure, dump format."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from draw_reference import unit
import mp_oracle
from test_wigner import _DIRECTIONS, _N, _NEAR_ANTI, _STOP_1E6, _direction
from relbell.bell import (
    BASIS_LABELS,
    TwoQubitState,
    bell_decompose,
    bell_state,
    boost_two_particle,
    dump_state,
)
from relbell.kinematics import BoostSpec, FourMomentum, X_HAT, Z_HAT, apply_boost, boost_matrix
from relbell.linalg import IDENTITY2, exp2, max_abs_diff, sigma_dot, tensor
from relbell.optimizer import maximize_chsh, search_chsh
from relbell.wigner import WignerRotation, _quaternion, little_group_closed, wigner_angle

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


def _two_pairs():
    """A Bell 11 pair on each of two momenta, off the z axis in the second row."""
    p = [FourMomentum.from_spatial(v) for v in ([0.0, 0.0, 3.0], [1.0, -2.0, 0.5])]
    return TwoQubitState(bell_state(1, 1, _pair()).amps, 1.0,
                         FourMomentum([q.p for q in p], [q.E for q in p]))


class TestPairKernelChecks:
    """The pair kernel builds no per-particle object but keeps each object's check."""

    def test_no_wigner_rotation_built(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("the pair kernel built a WignerRotation")

        monkeypatch.setattr(WignerRotation, "__post_init__", forbidden)
        out = boost_two_particle(bell_state(0, 0, _pair()), BoostSpec(X_HAT, 0.6))
        assert abs(float(np.vdot(out.amps, out.amps).real) - 1.0) < 1e-15

    @pytest.mark.parametrize("where", [0, 1, "grid", "rows"])
    def test_quaternion_off_unit_norm_raises(self, monkeypatch, where):
        """One pair; one pair on two speeds, or two pairs and boosts, off in the second row."""
        from relbell import bell

        def off_norm(b, p):
            cos_half, (x, y, z), k2, q, energy = _quaternion(b, p)
            if where == 1:
                scale = 1.0 + 1e-9
                return cos_half, (x * scale + 1e-9, y * scale, z * scale), k2, q, energy
            off = 1.0 + 1e-9 if where == 0 else np.array([1.0, 1.0 + 1e-9])
            return cos_half * off, (x, y, z), k2, q, energy

        monkeypatch.setattr(bell, "_quaternion", off_norm)
        s, b = {"grid": (bell_state(0, 0, _pair()), BoostSpec(X_HAT, [0.3, 0.6])),
                "rows": (_two_pairs(), BoostSpec([X_HAT, -_N], [0.3, 0.6]))}.get(
                    where, (bell_state(0, 0, _pair()), BoostSpec(X_HAT, 0.6)))
        with pytest.raises(ValueError, match="^su2 is not unitary$"):
            boost_two_particle(s, b)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_momentum_raises(self, monkeypatch, bad):
        from relbell import bell

        def nonfinite(b, p):
            cos_half, sin_half_vec, k2, (q0, q1, q2), energy = _quaternion(b, p)
            return cos_half, sin_half_vec, k2, (q0, q1 + bad, q2), energy

        monkeypatch.setattr(bell, "_quaternion", nonfinite)
        with pytest.raises(ValueError, match="must be finite"):
            boost_two_particle(bell_state(0, 0, _pair()), BoostSpec(X_HAT, 0.6))


def _boosted_rows():
    p = FourMomentum.from_spatial([[0.0, 0.0, 3.0], [1.0, -2.0, 0.5]])
    return boost_two_particle(bell_state(0, 0, p), BoostSpec(X_HAT, [0.3, 0.6]))


@pytest.mark.parametrize(("call", "message"), [
    (lambda s: maximize_chsh(s, 0.3, X_HAT), "maximize_chsh takes one pair"),
    (lambda s: maximize_chsh(s.row(0), [0.3, 0.6], X_HAT), "maximize_chsh takes one pair"),
    (lambda s: search_chsh(s, 0.3, X_HAT), "search_chsh takes one pair"),
    (lambda s: search_chsh(s.row(0), [0.3, 0.6], X_HAT), "search_chsh takes one pair"),
    (dump_state, "dump_state takes one pair"),
    (lambda s: little_group_closed(BoostSpec(X_HAT, [0.3, 0.6]), s.p_label.row(0)),
     "little_group_closed takes one boost and one momentum"),
    (lambda s: little_group_closed(BoostSpec(X_HAT, 0.3), s.p_label),
     "little_group_closed takes one boost and one momentum"),
], ids=["maximize_chsh", "maximize_chsh-betas", "search_chsh", "search_chsh-betas", "dump_state",
        "little_group_closed-boosts", "little_group_closed-momenta"])
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
