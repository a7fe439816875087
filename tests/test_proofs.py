"""Symbolic proofs: the CHSH table, and the identities the algebraic pair kernel relies on.

Each closed form is written here in sympy as its docstring prints it, with
q = (1 - beta)(1 + beta) in (0, 1].  A numeric check ties every transcription
to the float function it stands for, or, for the expectations of the 11 and
01 pairs, which the library has no function for, to the matrix route; and
``simplify`` then proves that each of ``chsh_closed``'s eight entries is the
sum of four expectations, for all q and omega.

The pair kernel's proofs run its own functions (``wigner._quaternion``,
``bell._pair_rotation``, ``observables._correlation_tensor`` and
``_chsh_sum``) on sympy symbols, so what is proved is the code itself: its
algebraic half-angle terms are the hyperbolic closed form, in both the
c >= 0 and the c < 0 form, its explicit real sums are the Kronecker
product, the correlation tensor and the CHSH contraction, and in the paper's
geometry its quaternion gives ``wigner_angle``.  The pair rotation keeps the
concurrence, so the maximum CHSH value over settings is the same in every
frame.  ``wigner_angle``'s algebraic atan2 arguments, transcribed, are the
hyperbolic ones over gamma and give arctan(sinh(delta)) at beta = 1.
"""

import math

import numpy as np
import pytest
import sympy as sp

from relbell.bell import bell_state, boost_two_particle
from relbell.cli import BETA_CLAMP
from relbell.kinematics import BoostSpec, FourMomentum, X_HAT
from relbell.observables import (
    CASE1_SETTINGS,
    CASE2_SETTINGS,
    chsh_case1_closed,
    chsh_closed,
    chsh_universal,
    expectation_case1_closed,
    expectation_case2_closed,
    joint_expectation,
    rel_spin_observable,
)
from relbell.wigner import wigner_angle

Q, W = sp.symbols("q omega", positive=True)


def _exact(v):
    """A setting's float components as exact numbers (+-1/sqrt(2), 0 or +-1)."""
    return [sp.nsimplify(x, [sp.sqrt(2)]) for x in v.tolist()]


def _norm(ax):
    return sp.sqrt(ax * ax + Q * (1 - ax * ax))


def _case1(a, b):
    (ax, ay, az), (bx, by, bz) = a, b
    num = ((ax * bx + Q * az * bz) * sp.cos(2 * W) - Q * ay * by
           - sp.sqrt(Q) * (az * bx - bz * ax) * sp.sin(2 * W))
    return num / (_norm(ax) * _norm(bx))


def _case2(a, b):
    (ax, ay, az), (bx, by, bz) = a, b
    return (ax * bx + Q * (ay * by - az * bz)) / (_norm(ax) * _norm(bx))


def _case01(a, b):
    (ax, ay, az), (bx, by, bz) = a, b
    return (-ax * bx + Q * (ay * by + az * bz)) / (_norm(ax) * _norm(bx))


#: the boosted pair's <a_hat (x) b_hat>: the boost keeps 11 in 00's family at omega - pi/2,
#: and 01's correlation tensor is diag(-1, 1, 1), as 10's is diag(1, 1, -1)
_EXPECTATIONS = {"00": _case1, "11": lambda a, b: _case1(a, b).subs(W, W - sp.pi / 2),
                 "10": _case2, "01": _case01}
_SETTINGS = {"case1": CASE1_SETTINGS, "case2": CASE2_SETTINGS}
_T_XY = {"00": (sp.cos(2 * W), -1), "11": (-sp.cos(2 * W), -1), "10": (1, 1), "01": (-1, 1)}
_TABLE = [(state, vectors) for state in _EXPECTATIONS for vectors in _SETTINGS]


def _table(state, vectors):
    """``chsh_closed`` as its docstring prints it: (2 / sqrt(1 + q)) (t_x + s t_y sqrt(q))."""
    t_x, t_y = _T_XY[state]
    return (2 / sp.sqrt(1 + Q)) * (t_x + (-1 if vectors == "case1" else 1) * t_y * sp.sqrt(Q))


def _chsh(expectation, settings):
    a, ap, b, bp = (_exact(v) for v in (settings.a, settings.a_prime, settings.b,
                                       settings.b_prime))
    return expectation(a, b) + expectation(a, bp) + expectation(ap, b) - expectation(ap, bp)


_CURVE1 = (2 / sp.sqrt(1 + Q)) * (sp.sqrt(Q) + sp.cos(2 * W))


@pytest.mark.parametrize("beta", [0.0, 0.3, 0.9, 1.0 - 1e-9, 1.0])
@pytest.mark.parametrize("omega", [0.0, 0.4, 1.3])
def test_transcriptions_match_the_code(beta, omega):
    rng = np.random.default_rng(int(100 * beta + 10 * omega))
    q = (1.0 - beta) * (1.0 + beta)
    at = {Q: q, W: omega}
    for _ in range(5):
        a, b = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 3)))
        a_s, b_s = [sp.Float(x) for x in a.tolist()], [sp.Float(x) for x in b.tolist()]
        assert float(_case1(a_s, b_s).subs(at)) == pytest.approx(
            expectation_case1_closed(a, b, beta, omega), abs=1e-14)
        assert float(_case2(a_s, b_s).subs(at)) == pytest.approx(
            expectation_case2_closed(a, b, beta), abs=1e-14)
    assert float(_CURVE1.subs(at)) == pytest.approx(chsh_case1_closed(beta, omega), abs=1e-14)
    assert float(_CURVE1.subs({Q: q, W: 0})) == pytest.approx(chsh_universal(beta), abs=1e-14)
    for state, vectors in _TABLE:
        assert float(_table(state, vectors).subs(at)) == pytest.approx(
            chsh_closed(state, vectors, beta, omega), abs=1e-14)


@pytest.mark.parametrize("state", ["11", "01"])
@pytest.mark.parametrize(("beta", "e_over_m"), [(0.3, 1.5), (0.9, 10.0), (0.999, 1e3)])
def test_expectations_without_a_function_match_the_matrix_route(state, beta, e_over_m):
    rng = np.random.default_rng(7)
    s = boost_two_particle(bell_state(int(state[0]), int(state[1]),
                                      FourMomentum.along_z(e_over_m)), BoostSpec(X_HAT, beta))
    at = {Q: (1.0 - beta) * (1.0 + beta), W: wigner_angle(beta, e_over_m)}
    for _ in range(5):
        a, b = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 3)))
        A, B = (rel_spin_observable(v, beta, X_HAT) for v in (a, b))
        exact = _EXPECTATIONS[state]([sp.Float(x) for x in a], [sp.Float(x) for x in b])
        assert float(exact.subs(at)) == pytest.approx(joint_expectation(s, A, B), abs=1e-12)


def test_settings_round_the_exact_values():
    for settings in (CASE1_SETTINGS, CASE2_SETTINGS):
        for v in (settings.a, settings.a_prime, settings.b, settings.b_prime):
            for exact, x in zip(_exact(v), v.tolist()):
                assert abs(float(exact) - x) <= math.ulp(x)


def test_case1_curve_is_the_case1_chsh_sum():
    assert sp.simplify(_chsh(_case1, CASE1_SETTINGS) - _CURVE1) == 0


def test_case2_curve_is_the_universal_curve():
    assert sp.simplify(_chsh(_case2, CASE2_SETTINGS) - _CURVE1.subs(W, 0)) == 0


@pytest.mark.parametrize(("state", "vectors"), _TABLE)
def test_table_entry_is_the_chsh_sum(state, vectors):
    expectation, settings = _EXPECTATIONS[state], _SETTINGS[vectors]
    assert sp.simplify(_chsh(expectation, settings) - _table(state, vectors)) == 0


def test_universal_curve_endpoints():
    universal = _CURVE1.subs(W, 0)
    assert sp.simplify(universal.subs(Q, 1) - 2 * sp.sqrt(2)) == 0  # beta = 0
    assert universal.subs(Q, 0) == 2  # beta = 1
    assert math.isclose(chsh_universal(0.0), 2.0 * math.sqrt(2.0), rel_tol=1e-15)


# The algebraic pair kernel.  Its terms are written with u = e^(alpha/2) and
# v = e^(delta/2), both > 1 for alpha, delta > 0 (u = 1 + a, v = 1 + d), so
# every hyperbolic function is rational in them; gamma = cosh alpha,
# gamma beta = sinh alpha, E = m cosh delta and |p| = m sinh delta.

_A, _D, M = sp.symbols("a d m", positive=True)
U, V = 1 + _A, 1 + _D
C = sp.symbols("c", real=True)


def _ch(x):
    return (x + 1 / x) / 2


def _sh(x):
    return (x - 1 / x) / 2


GAMMA, GAMMA_BETA = _ch(U ** 2), _sh(U ** 2)
ENERGY, P_MAG = M * _ch(V ** 2), M * _sh(V ** 2)


def _zero(expr):
    """expr = 0 identically; the kernel's float constants (0.5, 2.0) are taken as exact."""
    expr = sp.nsimplify(expr, rational=True)
    # square roots of factored arguments, so sympy takes out the perfect squares
    expr = expr.replace(lambda x: x.is_Pow and x.exp.is_Rational and x.exp.q == 2,
                        lambda x: sp.factor(x.base) ** x.exp)
    return sp.cancel(sp.together(expr)) == 0


def _same_sign_and_square(a, b):
    """a = b for a, b of the same sign (both >= 0 here), proved through a^2 = b^2."""
    return _zero(a ** 2 - b ** 2)


def test_half_angle_terms_are_algebraic():
    # ch(a/2) = sqrt((gamma + 1)/2), sh(a/2) = gamma beta / sqrt(2 (gamma + 1))
    assert _same_sign_and_square(sp.sqrt((GAMMA + 1) / 2), _ch(U))
    assert _same_sign_and_square(GAMMA_BETA / sp.sqrt(2 * (GAMMA + 1)), _sh(U))
    # ch(d/2) = sqrt((E + m)/2m), sh(d/2) = |p| / sqrt(2m (E + m))
    assert _same_sign_and_square(sp.sqrt((ENERGY + M) / (2 * M)), _ch(V))
    assert _same_sign_and_square(P_MAG / sp.sqrt(2 * M * (ENERGY + M)), _sh(V))


def test_rapidity_difference_is_algebraic():
    # e^(alpha - delta) = (gamma + gamma beta) m / (E + |p|) = gamma (1 + beta) m / (E + |p|)
    assert _zero((GAMMA + GAMMA_BETA) * M / (ENERGY + P_MAG) - U ** 2 / V ** 2)
    # gamma - 1 = (gamma beta)^2 / (gamma + 1), the boost's shift of p.e without cancellation
    assert _zero(GAMMA_BETA ** 2 / (GAMMA + 1) - (GAMMA - 1))


def test_half_angle_at_beta_is_cosh_of_half_atanh():
    b = sp.symbols("beta", positive=True)
    alpha = sp.atanh(b)
    gamma = 1 / sp.sqrt((1 - b) * (1 + b))
    for x in (0.1, 0.6, 0.99, 1.0 - 1e-9):
        at = {b: sp.Float(x, 50)}
        assert abs(sp.N((sp.sqrt((gamma + 1) / 2) - sp.cosh(alpha / 2)).subs(at), 50)) < 1e-45
        assert abs(sp.N((gamma * b / sp.sqrt(2 * (gamma + 1)) - sp.sinh(alpha / 2)).subs(at),
                        50)) < 1e-45


class _Boost:
    def __init__(self, e):
        self.e, self.gamma, self.gamma_beta = np.array(e, dtype=object), GAMMA, GAMMA_BETA


class _Momentum:
    def __init__(self, p):
        self.p, self.E, self.m = np.array(p, dtype=object), ENERGY, M


@pytest.mark.parametrize("form", [0, 1], ids=["plain", "cancelling"])
def test_quaternion_is_the_closed_form(monkeypatch, form):
    """``wigner._quaternion`` run on symbols is the hyperbolic closed form, in both forms.

    e = x_hat and p_hat = (c, 0, s) with s = sqrt(1 - c^2); each form is
    forced, so the c < 0 form's x - y + y (1 + c) rewriting is proved for
    every c, not only where the kernel takes it.
    """
    from relbell import wigner

    monkeypatch.setattr(wigner, "_sqrt_for", lambda x: sp.sqrt)
    monkeypatch.setattr(wigner, "_forms", lambda cond: (form == 0, form == 1))
    s = sp.sqrt(1 - C ** 2)
    cos_num, sin_num, k2, q, energy = wigner._quaternion(
        _Boost([1, 0, 0]), _Momentum([P_MAG * C, 0, P_MAG * s]))
    boosted = GAMMA * ENERGY + GAMMA_BETA * P_MAG * C  # E' = ch(a) E + sh(a) p.e
    assert _zero(energy - boosted)
    assert _zero(k2 - (1 + boosted / M) / 2)
    assert _zero(cos_num - (_ch(U) * _ch(V) + _sh(U) * _sh(V) * C))
    # sh(a/2) sh(d/2) (e x p_hat), with e x p_hat = (0, -s, 0)
    assert [_zero(x - y) for x, y in zip(sin_num, (0, -_sh(U) * _sh(V) * s, 0))] == [True] * 3
    # q = p + ((gamma - 1) p.e + gamma beta E) e
    shift = (GAMMA - 1) * P_MAG * C + GAMMA_BETA * ENERGY
    assert [_zero(x - y) for x, y in zip(q, (P_MAG * C + shift, 0, P_MAG * s))] == [True] * 3
    # and the closed form's norm: K^2 cos^2 + K^2 sin^2 = K^2
    closed_cos, closed_sin = _ch(U) * _ch(V) + _sh(U) * _sh(V) * C, _sh(U) * _sh(V) * s
    assert _zero(closed_cos ** 2 + closed_sin ** 2 - (1 + boosted / M) / 2)


_R, _I = sp.symbols("r0:4", real=True), sp.symbols("i0:4", real=True)
_PSI = sp.Matrix([r + sp.I * i for r, i in zip(_R, _I)])
_SIGMA = (sp.Matrix([[0, 1], [1, 0]]), sp.Matrix([[0, -sp.I], [sp.I, 0]]),
          sp.Matrix([[1, 0], [0, -1]]))


_W1, _W2 = sp.symbols("c1 x1 y1 z1", real=True), sp.symbols("c2 x2 y2 z2", real=True)


def _spinor(c, x, y, z):  # c I + i sigma.(x, y, z)
    return c * sp.eye(2) + sp.I * (x * _SIGMA[0] + y * _SIGMA[1] + z * _SIGMA[2])


def test_pair_rotation_is_the_kronecker_product():
    from relbell.bell import _pair_rotation

    want = sp.kronecker_product(_spinor(*_W1), _spinor(*_W2)) * _PSI
    got = _pair_rotation(_W1, _W2, _R, _I)
    for k in range(4):
        assert sp.expand(got[2 * k] + sp.I * got[2 * k + 1] - want[k]) == 0


def test_pair_rotation_keeps_the_concurrence():
    """A boost keeps C = 2 |psi_++ psi_-- - psi_+- psi_-+| / <psi|psi>, and so 2 sqrt(1 + C^2).

    For W = c I + i sigma.s with real (c, s), W^dagger W = (c^2 + |s|^2) I, and
    ``bell._pair_rotation`` multiplies both psi_++ psi_-- - psi_+- psi_-+ and
    <psi|psi> by k = (c1^2 + |s1|^2)(c2^2 + |s2|^2), which is > 0 for every
    nonzero real quaternion pair: C, and the maximum over settings, is the
    same in every frame.
    """
    from relbell.bell import _pair_rotation, _sum_of_squares

    k1, k2 = (sum(x ** 2 for x in w) for w in (_W1, _W2))
    for w, k in ((_W1, k1), (_W2, k2)):
        assert sp.expand(_spinor(*w).H * _spinor(*w) - k * sp.eye(2)) == sp.zeros(2)
    got = _pair_rotation(_W1, _W2, _R, _I)
    psi = [got[2 * k] + sp.I * got[2 * k + 1] for k in range(4)]

    def det(a):
        return a[0] * a[3] - a[1] * a[2]

    assert sp.expand(det(psi) - k1 * k2 * det(_PSI)) == 0
    assert sp.expand(_sum_of_squares(got) - k1 * k2 * (_PSI.H * _PSI)[0]) == 0
    assert (k1 * k2).is_nonnegative
    k, d, n = sp.Symbol("k", positive=True), sp.Symbol("d"), sp.Symbol("n", positive=True)
    assert 2 * sp.Abs(k * d) / (k * n) == 2 * sp.Abs(d) / n


class _Amps:
    """Symbolic amplitudes, seen as the kernel sees them: Re, Im, Re, Im, ..."""

    @staticmethod
    def view(dtype):
        return np.array([x for ri in zip(_R, _I) for x in ri], dtype=object)


def test_correlation_tensor_is_the_normalised_expectation():
    from relbell.observables import _correlation_tensor

    t = _correlation_tensor(_Amps())
    norm2 = (_PSI.H * _PSI)[0]
    for k, (i, j) in enumerate((i, j) for i in range(3) for j in range(3)):
        want = (_PSI.H * sp.kronecker_product(_SIGMA[i], _SIGMA[j]) * _PSI)[0]
        assert sp.expand(t[k] * norm2 - want) == 0


def test_chsh_sum_is_the_contraction():
    from relbell.observables import _chsh_sum

    t = sp.Matrix(3, 3, sp.symbols("t0:9", real=True))
    a, ap, b, bp = (sp.Matrix(sp.symbols(f"{n}0:3", real=True)) for n in ("a", "ap", "b", "bp"))
    got = _chsh_sum(list(t), list(a), list(ap), list(b), list(bp))
    assert sp.expand(got - (a.T * t * (b + bp) + ap.T * t * (b - bp))[0]) == 0


def _wigner_angle_args(beta, r):
    """``wigner_angle``'s two atan2 arguments, as its docstring prints them (r = E/m)."""
    return beta * sp.sqrt(r - 1) * sp.sqrt(r + 1), 1 + r * sp.sqrt((1 - beta) * (1 + beta))


@pytest.mark.parametrize(("beta", "r"), [(0.0, 1.0), (0.3, 2.0), (0.99, 1e3), (BETA_CLAMP, 1e6),
                                         (1.0, 10.0), (0.5, 1e200)])
def test_wigner_angle_transcription_matches_the_code(beta, r):
    y, x = _wigner_angle_args(sp.Float(beta, 50), sp.Float(r, 50))
    assert abs(float(sp.atan2(y, x)) - wigner_angle(beta, r)) <= math.ulp(1.0)


def test_wigner_angle_is_the_hyperbolic_form():
    """``wigner_angle``'s algebraic atan2 arguments are 1/gamma times sh(a) sh(d) and ch(a) + ch(d).

    gamma = ch(a) > 0, so the angles agree, not only their tangents; at
    beta = 1 the arguments are (sinh(delta), 1), the angle arctan(sinh(delta)).
    """
    y, x = _wigner_angle_args(GAMMA_BETA / GAMMA, ENERGY / M)
    hyperbolic_y, hyperbolic_x = GAMMA_BETA * P_MAG / M, GAMMA + ENERGY / M
    assert _zero(y / x - hyperbolic_y / hyperbolic_x)  # tan(Omega)
    assert _zero(GAMMA * y - hyperbolic_y) and _zero(GAMMA * x - hyperbolic_x)
    r = 1 + sp.symbols("t", nonnegative=True)  # E/m >= 1
    y1, x1 = _wigner_angle_args(1, r)
    assert x1 == 1 and sp.atan2(y1, x1) - sp.atan(sp.sinh(sp.acosh(r))) == 0


def test_quaternion_gives_the_wigner_angle(monkeypatch):
    """In the paper's geometry (e = x_hat, p along z) the kernel's quaternion is ``wigner_angle``.

    With c = K cos(Omega/2) and s = K sin(Omega/2), tan(Omega) = 2cs/(c^2 - s^2),
    proved equal to sh(a) sh(d)/(ch(a) + ch(d)).  2cs and c^2 - s^2 are also
    half of those two hyperbolic terms, which are gamma times ``wigner_angle``'s
    two atan2 arguments, so the angles agree, not only their tangents.
    """
    from relbell import wigner

    monkeypatch.setattr(wigner, "_sqrt_for", lambda x: sp.sqrt)
    c, sin_num, _, _, _ = wigner._quaternion(_Boost([1, 0, 0]), _Momentum([0, 0, P_MAG]))
    assert _zero(sin_num[0]) and _zero(sin_num[2])
    s = -sin_num[1]  # sh(a/2) sh(d/2) (e x p_hat) with e x p_hat = -y_hat
    ch_d, sh_d = ENERGY / M, P_MAG / M
    assert _zero(2 * c * s / (c ** 2 - s ** 2) - GAMMA_BETA * sh_d / (GAMMA + ch_d))
    assert _zero(2 * c * s - GAMMA_BETA * sh_d / 2)
    assert _zero(c ** 2 - s ** 2 - (GAMMA + ch_d) / 2)
