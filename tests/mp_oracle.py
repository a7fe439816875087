"""Arbitrary-precision CHSH oracle for two-qubit states and the closed forms.

Every float64 argument enters at its exact binary value (mpmath converts a
Python float without rounding), and the CHSH value is computed at
``DPS`` = 40 significant digits through the literal matrix element
<psi| A (x) B |psi> of the boost-corrected observables

    A = (sqrt(1 - beta^2) a_perp + a_par) . sigma / sqrt(1 + beta^2 ((e.a)^2 - 1)),

with the 4x4 Kronecker product written out.  The difference between a
float64 result and this oracle is therefore the float64 routine's own
rounding error, good to about 1e-25 for beta up to 1 - 1e-12.

The closed forms of ``relbell.observables`` (x-boost, z-momentum pair) are
evaluated the same way, as the formulas their docstrings print.
"""

from mpmath import cos, mp, mpc, mpf, sin, sqrt

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
    psi = [mpc(complex(c).real, complex(c).imag) for c in amps]
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


def chsh_case1(beta: float, omega: float) -> mpf:
    """``chsh_case1_closed`` (and ``chsh_universal`` at omega = 0) at ``DPS`` digits."""
    with mp.workdps(DPS):
        be, w = mpf(float(beta)), mpf(float(omega))
        return 2 / sqrt(2 - be * be) * (sqrt(1 - be * be) + cos(2 * w))
