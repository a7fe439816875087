"""Symbolic proofs: the CHSH curves, and the identities the algebraic pair kernel relies on.

Each closed form is written here in sympy as its docstring prints it, with
q = (1 - beta)(1 + beta) in (0, 1].  A numeric check ties every transcription
to the float function it stands for, and ``simplify`` then proves the curve
identity for all q and omega.

The pair kernel's proofs run its own functions (``wigner._quaternion``,
``bell._pair_rotation``, ``observables._correlation_tensor`` and
``_chsh_sum``) on sympy symbols, so what is proved is the code itself: its
algebraic half-angle terms are the hyperbolic closed form, in both the
c >= 0 and the c < 0 form, its explicit real sums are the Kronecker
product, the correlation tensor and the CHSH contraction, and in the paper's
geometry its quaternion gives ``wigner_angle``.
"""

import math

import numpy as np
import pytest
import sympy as sp

from relbell.observables import (
    CASE1_SETTINGS,
    CASE2_SETTINGS,
    chsh_case1_closed,
    chsh_universal,
    expectation_case1_closed,
    expectation_case2_closed,
)

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


def test_settings_round_the_exact_values():
    for settings in (CASE1_SETTINGS, CASE2_SETTINGS):
        for v in (settings.a, settings.a_prime, settings.b, settings.b_prime):
            for exact, x in zip(_exact(v), v.tolist()):
                assert abs(float(exact) - x) <= math.ulp(x)


def test_case1_curve_is_the_case1_chsh_sum():
    assert sp.simplify(_chsh(_case1, CASE1_SETTINGS) - _CURVE1) == 0


def test_case2_curve_is_the_universal_curve():
    assert sp.simplify(_chsh(_case2, CASE2_SETTINGS) - _CURVE1.subs(W, 0)) == 0


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


def test_pair_rotation_is_the_kronecker_product():
    from relbell.bell import _pair_rotation

    w1, w2 = sp.symbols("c1 x1 y1 z1", real=True), sp.symbols("c2 x2 y2 z2", real=True)

    def spinor(c, x, y, z):  # c I + i sigma.(x, y, z)
        return c * sp.eye(2) + sp.I * (x * _SIGMA[0] + y * _SIGMA[1] + z * _SIGMA[2])

    want = sp.kronecker_product(spinor(*w1), spinor(*w2)) * _PSI
    got = _pair_rotation(w1, w2, _R, _I)
    for k in range(4):
        assert sp.expand(got[2 * k] + sp.I * got[2 * k + 1] - want[k]) == 0


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


def test_quaternion_gives_the_wigner_angle(monkeypatch):
    """In the paper's geometry (e = x_hat, p along z) the kernel's quaternion is ``wigner_angle``.

    With c = K cos(Omega/2) and s = K sin(Omega/2), tan(Omega) = 2cs/(c^2 - s^2),
    proved equal to sh(a) sh(d)/(ch(a) + ch(d)).  2cs and c^2 - s^2 are also
    half of ``wigner_angle``'s two atan2 arguments, so the angles agree, not
    only their tangents.
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
