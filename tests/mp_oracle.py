"""Arbitrary-precision oracles: CHSH of two-qubit states, the closed forms, and
the boost of one particle (its little-group element and Lambda p).

Every float64 argument enters at its exact binary value (mpmath converts a
Python float without rounding), and the CHSH value is computed at
``DPS`` = 40 significant digits through the literal matrix element
<psi| A (x) B |psi> of the boost-corrected observables

    A = (sqrt(1 - beta^2) a_perp + a_par) . sigma / sqrt(1 + beta^2 ((e.a)^2 - 1)),

with the 4x4 Kronecker product written out.  The difference between a
float64 result and this oracle is therefore the float64 routine's own
rounding error, good to about 1e-25 for beta up to 1 - 1e-12.

The closed forms of ``relbell.observables`` (x-boost, z-momentum pair) are
evaluated the same way, as the formulas their docstrings print.  ``boost_pair``
carries a whole pair boost at ``DPS`` digits, so ``chsh`` and
``correlation_tensor`` can take its amplitudes without rounding them.
"""

from mpmath import atanh, cos, cosh, exp, log10, mp, mpc, mpf, sin, sinh, sqrt, svd_r
from mpmath import matrix as mp_matrix

DPS = 40


def _vec(v):
    return [mpf(float(x)) for x in v]


def observable(direction, beta: float, e):
    """The 2x2 boost-corrected observable along ``direction`` as nested lists."""
    a, e3, b = _vec(direction), _vec(e), mpf(float(beta))
    ae = sum(ai * ei for ai, ei in zip(a, e3))
    den = sqrt(1 + b * b * (ae * ae - 1))
    x, y, z = ((sqrt(1 - b * b) * (ai - ae * ei) + ae * ei) / den for ai, ei in zip(a, e3))
    return [[mpc(z), mpc(x, -y)], [mpc(x, y), mpc(-z)]]


def joint_expectation(amps, A, B):
    """<amps| A (x) B |amps> as an mpc, the Kronecker product written out."""
    psi = [c if isinstance(c, mpc) else mpc(complex(c)) for c in amps]
    kron = [[A[r // 2][c // 2] * B[r % 2][c % 2] for c in range(4)] for r in range(4)]
    return sum(psi[r].conjugate() * kron[r][c] * psi[c] for r in range(4) for c in range(4))


def chsh(amps, settings, beta: float, e) -> mpf:
    """<AB> + <AB'> + <A'B> - <A'B'> for ``settings`` (a, a', b, b') at ``DPS`` digits."""
    with mp.workdps(DPS):
        A, Ap, B, Bp = (observable(v, beta, e) for v in settings)
        val = (joint_expectation(amps, A, B) + joint_expectation(amps, A, Bp)
               + joint_expectation(amps, Ap, B) - joint_expectation(amps, Ap, Bp))
        if abs(val.imag) > mpf(10) ** (5 - DPS):
            raise ArithmeticError(f"oracle CHSH not real: {val}")
        return +val.real


def _x_norm(v, q):
    return sqrt(v[0] * v[0] + q * (1 - v[0] * v[0]))


def expectation_case1(a, b, beta: float, omega: float) -> mpf:
    """``expectation_case1_closed`` at ``DPS`` digits."""
    with mp.workdps(DPS):
        a, b, be, w = _vec(a), _vec(b), mpf(float(beta)), mpf(float(omega))
        q = 1 - be * be
        num = ((a[0] * b[0] + q * a[2] * b[2]) * cos(2 * w) - q * a[1] * b[1]
               - sqrt(q) * (a[2] * b[0] - b[2] * a[0]) * sin(2 * w))
        return num / (_x_norm(a, q) * _x_norm(b, q))


def expectation_case2(a, b, beta: float) -> mpf:
    """``expectation_case2_closed`` at ``DPS`` digits."""
    with mp.workdps(DPS):
        a, b, be = _vec(a), _vec(b), mpf(float(beta))
        q = 1 - be * be
        return (a[0] * b[0] + q * (a[1] * b[1] - a[2] * b[2])) / (_x_norm(a, q) * _x_norm(b, q))


#: each Bell state's (T_xx, T_yy) after the boost, as functions of omega, and each family's s
_XY_TENSOR = {"00": (lambda w: cos(2 * w), -1), "11": (lambda w: -cos(2 * w), -1),
              "10": (lambda w: 1, 1), "01": (lambda w: -1, 1)}
_FAMILY_SIGN = {"case1": -1, "case2": 1}


def chsh_closed(state: str, vectors: str, beta: float, omega) -> mpf:
    """``chsh_closed`` at ``DPS`` digits: (2 / sqrt(2 - beta^2)) (T_xx + s T_yy sqrt(1 - beta^2)).

    ``omega`` may be a float or an mpf carrying more digits than a float.
    """
    with mp.workdps(DPS):
        be, w = mpf(float(beta)), mpf(omega)
        t_x, t_y = _XY_TENSOR[state]
        return 2 / sqrt(2 - be * be) * (t_x(w) + _FAMILY_SIGN[vectors] * t_y * sqrt(1 - be * be))


def _dot(u, v):
    return sum(ui * vi for ui, vi in zip(u, v))


def _spinor(ch, v):
    """ch I + sigma.v as nested lists."""
    x, y, z = v
    return [[mpc(ch + z), mpc(x, -y)], [mpc(x, y), mpc(ch - z)]]


def _matmul(a, b):
    return [[a[r][0] * b[0][c] + a[r][1] * b[1][c] for c in range(2)] for r in range(2)]


def boost_particle(e, alpha, p, m: float = 1.0, beta=None):
    """A boost of rapidity ``alpha`` along ``e`` acting on momentum ``p``, good to ``DPS`` digits.

    Returns (cos(Omega/2), sin(Omega/2) n_hat, q, E'): the quaternion read
    off the literal spinor product D^-1(L(Lambda p)) D(Lambda) D(L(p)), and
    Lambda p = (q, E') from the 4x4 product.  Give ``alpha=None`` and the
    speed ``beta`` instead to take alpha = atanh(beta) at ``DPS`` digits
    rather than as a rounded float.  ``e`` is normalised here: a float64
    unit vector is off by about 1e-16, which sh(alpha) sh(delta)
    (1 + e.p_hat) turns into a 1e-4 error at E/m 1e6.  E is re-derived as
    sqrt(m^2 + |p|^2), because a float64 energy is on shell only to rounding
    and a boost into the rest frame amplifies that the same way.  D(L(p)) is
    sqrt((E+m)/2m) I + sigma.p / sqrt(2m(E+m)), which needs no p_hat at rest.
    That product cancels terms as large as e^|alpha| E/m down to O(1), so
    their digits are carried on top of ``DPS``: up to 13 at E/m 1e6 and 157
    at E/m 1e150 (beta up to 1 - 1e-12), where 40 digits alone leave none.
    """
    with mp.workdps(DPS):
        a = atanh(mpf(float(beta))) if alpha is None else mpf(float(alpha))
        size = exp(abs(a)) * sqrt(1 + _dot(_vec(p), _vec(p)) / mpf(float(m)) ** 2)
    with mp.workdps(DPS + int(log10(size)) + 1):
        e, p, m = _vec(e), _vec(p), mpf(float(m))
        a = atanh(mpf(float(beta))) if alpha is None else mpf(float(alpha))
        n = sqrt(_dot(e, e))
        e = [x / n for x in e]
        E = sqrt(m * m + _dot(p, p))
        ch, sh, pe = cosh(a), sinh(a), _dot(p, e)
        E2 = ch * E + sh * pe
        q = [pi + ((ch - 1) * pe + sh * E) * ei for pi, ei in zip(p, e)]
        lp = _spinor(sqrt((E + m) / (2 * m)), [x / sqrt(2 * m * (E + m)) for x in p])
        lq_inv = _spinor(sqrt((E2 + m) / (2 * m)), [-x / sqrt(2 * m * (E2 + m)) for x in q])
        w = _matmul(_matmul(lq_inv, _spinor(cosh(a / 2), [sinh(a / 2) * x for x in e])), lp)
        # w = cos(Omega/2) I + i sin(Omega/2) sigma.n_hat
        return +w[0][0].real, [+w[0][1].imag, +w[0][1].real, +w[0][0].imag], \
            [+x for x in q], +E2


def boost_pair(amps, e, p1, p2, m: float = 1.0, alpha=None, beta=None):
    """Both particles of a pair boosted at ``DPS`` digits: (amps', kin, ((q1, E1'), (q2, E2'))).

    amps' is the normalised (W1 (x) W2) amps as four mpc, and kin the factor
    sqrt(E1'/E1) sqrt(E2'/E2) |W1 (x) W2 amps| that ``boost_two_particle``
    multiplies into ``kin_factor``, each E re-derived on the mass shell.
    ``alpha`` or ``beta`` as for ``boost_particle``.
    """
    with mp.workdps(DPS):
        psi = [c if isinstance(c, mpc) else mpc(complex(c)) for c in amps]
        ws, labels, kin = [], [], mpf(1)
        for p in (p1, p2):
            ch, (x, y, z), q, energy = boost_particle(e, alpha, p, m, beta)
            ws.append([[mpc(ch, z), mpc(y, x)], [mpc(-y, x), mpc(ch, -z)]])
            labels.append((q, energy))
            kin *= sqrt(energy / sqrt(mpf(float(m)) ** 2 + _dot(_vec(p), _vec(p))))
        w1, w2 = ws
        out = [sum(w1[r][j] * w2[k][l] * psi[2 * j + l] for j in range(2) for l in range(2))
               for r in range(2) for k in range(2)]
        norm = sqrt(sum(abs(c) ** 2 for c in out))
        return [c / norm for c in out], kin * norm, labels


_PAULI = ([[mpc(0), mpc(1)], [mpc(1), mpc(0)]], [[mpc(0), mpc(0, -1)], [mpc(0, 1), mpc(0)]],
          [[mpc(1), mpc(0)], [mpc(0), mpc(-1)]])


def correlation_tensor(amps):
    """T_ij = <amps| sigma_i (x) sigma_j |amps> at ``DPS`` digits, as a 3x3 list of mpf."""
    with mp.workdps(DPS):
        return [[+joint_expectation(amps, si, sj).real for sj in _PAULI] for si in _PAULI]


def horodecki_bound(amps) -> mpf:
    """The maximum CHSH value 2 sqrt(s1^2 + s2^2) over all settings, at ``DPS`` digits."""
    with mp.workdps(DPS):
        s = sorted(svd_r(mp_matrix(correlation_tensor(amps)), compute_uv=False), reverse=True)
        return 2 * sqrt(s[0] ** 2 + s[1] ** 2)


def chsh_max(amps) -> mpf:
    """2 sqrt(1 + C^2) at ``DPS`` digits, C = 2 |psi_0 psi_3 - psi_1 psi_2| / <psi|psi>.

    The maximum CHSH value of the pure state the amplitudes stand for, from
    its concurrence; ``horodecki_bound`` of the normalised amplitudes, by
    another route.
    """
    with mp.workdps(DPS):
        a = [x if isinstance(x, mpc) else mpc(complex(x)) for x in amps]
        c = 2 * abs(a[0] * a[3] - a[1] * a[2]) / sum(abs(x) ** 2 for x in a)
        return 2 * sqrt(1 + c * c)
