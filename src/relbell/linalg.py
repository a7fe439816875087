"""Fixed-size complex matrix algebra: Pauli basis, Kronecker products, 2x2 expm.

Everything here works on plain numpy arrays (2x2 or 4x4, complex128) so the
rest of the package can stay allocation-light and side-effect free.
"""

from __future__ import annotations

import cmath

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)

for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY2):
    _m.setflags(write=False)

# (sigma_x, sigma_y, sigma_z) entries as Python complex numbers, row by row,
# so sigma_dot can form the Pauli sum entry by entry without array dispatch.
_PAULI_ROWS = tuple(tuple(zip(*(m[i].tolist() for m in (SIGMA_X, SIGMA_Y, SIGMA_Z))))
                    for i in range(2))


def sigma_dot(v) -> np.ndarray:
    """sigma . v = v_x sigma_x + v_y sigma_y + v_z sigma_z.

    ``v`` may be real or complex; the result is Hermitian exactly when ``v``
    is real.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    x, y, z = comps = v.tolist()
    if not all(map(cmath.isfinite, comps)):
        raise ValueError("sigma_dot requires finite components")
    # The same complex products and sums, in the same order, as
    # v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z, signed zeros included.
    return np.array([[x * sx + y * sy + z * sz for sx, sy, sz in row] for row in _PAULI_ROWS])


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices, two-spin basis ordered (++, +-, -+, --).

    One broadcast complex multiply, the same one numpy's ``kron`` performs
    on 2-D operands, so the result equals it bit for bit.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"tensor expects two matrices, got shapes {a.shape} and {b.shape}")
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def dagger(m) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def adjugate2(m) -> np.ndarray:
    """Adjugate of a 2x2 matrix; equals the inverse when det(m) = 1."""
    m = np.asarray(m, dtype=complex)
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex)


def exp2(m) -> np.ndarray:
    """Matrix exponential of a 2x2 complex matrix, in closed form.

    Writes m = a*I + B with B traceless; then B^2 = -det(B)*I, so
    exp(m) = e^a (cosh(mu) I + sinh(mu)/mu B) with mu = sqrt(-det(B)).
    sinh(mu)/mu is even in mu, which makes the square-root branch
    irrelevant; a short power series covers mu near 0.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("exp2 requires finite entries")
    a = 0.5 * (m[0, 0] + m[1, 1])
    b = m - a * IDENTITY2
    mu = np.sqrt(-(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]))
    if abs(mu) < 1e-6:
        mu2 = mu * mu
        sinhc = 1.0 + mu2 / 6.0 + mu2 * mu2 / 120.0
        cosh = 1.0 + mu2 / 2.0 + mu2 * mu2 / 24.0
    else:
        sinhc = np.sinh(mu) / mu
        cosh = np.cosh(mu)
    return np.exp(a) * (cosh * IDENTITY2 + sinhc * b)


def max_abs_diff(a, b) -> float:
    """Max elementwise absolute difference, the comparison used throughout."""
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())
