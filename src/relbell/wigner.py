"""Spin-1/2 Wigner rotations of massive particles under pure boosts.

The little-group element W(Lambda, p) = L^-1(Lambda p) . Lambda . L(p)
fixes the rest momentum, so for a massive particle it is an ordinary
spatial rotation.  This module computes its spin-1/2 representation two
independent ways:

* ``little_group_closed`` -- the closed form: a rotation by angle Omega
  about the axis e x p_hat, with

      cos(Omega/2) = [ch(a/2) ch(d/2) + sh(a/2) sh(d/2) (e.p_hat)] / K
      sin(Omega/2) n_hat = sh(a/2) sh(d/2) (e x p_hat) / K
      K^2 = 1/2 + 1/2 ch(a) ch(d) + 1/2 sh(a) sh(d) (e.p_hat)

  where alpha is the boost rapidity and cosh(delta) = E/m.

* ``little_group_oracle`` -- the literal three-factor spinor product,
  used as the numerical cross-check everywhere.

A third route, ``little_group_lorentz``, builds the same element as a 4x4
matrix so the rotation angle can be extracted from its spatial block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from relbell.kinematics import (
    BoostSpec,
    FourMomentum,
    Z_HAT,
    apply_boost,
    boost_matrix,
    pure_boost4,
)
from relbell.linalg import IDENTITY2, adjugate2, dagger, max_abs_diff, sigma_dot, exp2

_SU2_TOL = 1e-12
_ORACLE_UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class WignerRotation:
    """A spin rotation: angle ``omega`` >= 0, unit ``axis``, SU(2) matrix ``su2``.

    The matrix satisfies su2 = cos(omega/2) I + i sin(omega/2) sigma.axis.
    For degenerate geometries (no rotation) the axis is conventionally +z.
    """

    omega: float
    axis: np.ndarray
    su2: np.ndarray

    def __post_init__(self):
        axis = np.array(self.axis, dtype=float)
        su2 = np.array(self.su2, dtype=complex)
        axis.setflags(write=False)
        su2.setflags(write=False)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "su2", su2)
        if su2.shape != (2, 2):
            raise ValueError(f"su2 must be a 2x2 matrix, got shape {su2.shape}")
        # The checks run on Python scalars: the same arithmetic as the 2x2
        # array expressions, without numpy's per-call dispatch.  A NaN entry
        # fails the first check.
        (u00, u01), (u10, u11) = su2.tolist()
        (g00, g01), (g10, g11) = (su2.conj().T @ su2).tolist()
        if not all(abs(d) <= _SU2_TOL for d in (g00 - 1.0, g01, g10, g11 - 1.0)):
            raise ValueError("su2 is not unitary")
        det = u00 * u11 - u01 * u10
        if abs(det - 1.0) > _SU2_TOL:
            raise ValueError(f"su2 determinant {det} != 1")
        # cos(omega/2) I + i sin(omega/2) sigma.axis, entry by entry
        (s00, s01), (s10, s11) = sigma_dot(axis).tolist()
        c, i_s = math.cos(self.omega / 2), 1j * math.sin(self.omega / 2)
        if not all(abs(d) <= _SU2_TOL for d in (u00 - (c + i_s * s00), u01 - i_s * s01,
                                                 u10 - i_s * s10, u11 - (c + i_s * s11))):
            raise ValueError("su2 inconsistent with (omega, axis)")


def d_half_pure_boost(b: BoostSpec) -> np.ndarray:
    """Spinor representation of a pure boost: ch(a/2) I + sh(a/2) sigma.e.

    Hermitian, positive definite, determinant 1.
    """
    return (math.cosh(b.alpha / 2) * IDENTITY2
            + math.sinh(b.alpha / 2) * sigma_dot(b.e))


def d_half_standard(p: FourMomentum) -> np.ndarray:
    """Spinor representation of the standard boost L(p).

    sqrt((E+m)/2m) I + sqrt((E-m)/2m) sigma.p_hat; the identity at rest.
    """
    if p.p_mag == 0.0:
        return IDENTITY2.copy()
    ch = math.sqrt((p.E + p.m) / (2.0 * p.m))
    sh = math.sqrt(max(p.E - p.m, 0.0) / (2.0 * p.m))
    return ch * IDENTITY2 + sh * sigma_dot(p.direction())


def d_half_exponential(e, alpha: float) -> np.ndarray:
    """Spinor boost as an exponential, exp((alpha/2) sigma.e).

    Equals ``d_half_pure_boost`` for the same direction and rapidity; kept
    as an independent route through the generator algebra.
    """
    return exp2((alpha / 2.0) * sigma_dot(e))


def _half_angle_parts(b: BoostSpec, p: FourMomentum):
    """cos(Omega/2) and the vector sin(Omega/2) n_hat of the little group."""
    alpha = b.alpha
    delta = p.rapidity
    if p.p_mag == 0.0:
        p_hat = Z_HAT
    else:
        p_hat = p.direction()
    edotp = float(b.e @ p_hat)
    k = math.sqrt(0.5 + 0.5 * math.cosh(alpha) * math.cosh(delta)
                  + 0.5 * math.sinh(alpha) * math.sinh(delta) * edotp)
    cos_half = (math.cosh(alpha / 2) * math.cosh(delta / 2)
                + math.sinh(alpha / 2) * math.sinh(delta / 2) * edotp) / k
    # e x p_hat from its six scalar products, as numpy's cross forms it
    e0, e1, e2 = b.e.tolist()
    p0, p1, p2 = p_hat.tolist()
    f = math.sinh(alpha / 2) * math.sinh(delta / 2) / k
    sin_half_vec = np.array([f * (e1 * p2 - e2 * p1), f * (e2 * p0 - e0 * p2),
                             f * (e0 * p1 - e1 * p0)])
    return cos_half, sin_half_vec


def little_group_closed(b: BoostSpec, p: FourMomentum) -> WignerRotation:
    """Closed-form little-group element for boost ``b`` acting on momentum ``p``.

    The rotation axis is along e x p_hat; collinear boosts and particles at
    rest give the identity rotation (axis fixed to +z by convention, since
    no axis is geometrically preferred).
    """
    cos_half, sin_half_vec = _half_angle_parts(b, p)
    sin_half = math.sqrt(sin_half_vec.dot(sin_half_vec))
    omega = 2.0 * math.atan2(sin_half, cos_half)
    if sin_half == 0.0:
        axis = Z_HAT.copy()
    else:
        axis = sin_half_vec / sin_half
    su2 = cos_half * IDENTITY2 + 1j * sigma_dot(sin_half_vec)
    return WignerRotation(omega=omega, axis=axis, su2=su2)


def little_group_oracle(b: BoostSpec, p: FourMomentum) -> np.ndarray:
    """Little-group spinor as the literal product D^-1(L(Lp)) D(Lambda) D(L(p)).

    This is the brute-force route the closed form is checked against.  The
    result is unitary by construction; that is asserted numerically here
    because the three factors are individually non-unitary and large at high
    rapidity.
    """
    q = apply_boost(boost_matrix(b), p)
    w = adjugate2(d_half_standard(q)) @ d_half_pure_boost(b) @ d_half_standard(p)
    if max_abs_diff(dagger(w) @ w, IDENTITY2) > _ORACLE_UNITARITY_TOL:
        raise ArithmeticError("little-group product lost unitarity; rapidities too large")
    return w


def _standard_boost4_generic(p3: np.ndarray, energy, m) -> np.ndarray:
    """L(p) from four-momentum components, any float dtype (sinh d = |p|/m exactly)."""
    pn = np.sqrt(p3 @ p3)
    if pn == 0.0:
        return np.eye(4, dtype=p3.dtype)
    return pure_boost4(p3 / pn, energy / m, pn / m)


def little_group_lorentz(b: BoostSpec, p: FourMomentum) -> np.ndarray:
    """The little-group element as a 4x4 matrix, L^-1(Lp) Lambda L(p).

    Its spatial 3x3 block is an ordinary rotation matrix and its time-time
    entry is 1 (the rest momentum is fixed).  The factors grow like
    gamma_boost * gamma_particle and cancel down to order one, so the
    product is carried in extended precision where the platform provides
    it and cast back to float64.  The energy is re-derived from (p, m) in
    that precision: the three-factor product is a rotation only for an
    exactly on-shell momentum, and the stored float64 energy carries a
    relative shell defect of order 1e-16 that the composition would
    amplify by gamma^2.
    """
    ld = np.longdouble
    e = b.e.astype(ld)
    e /= np.sqrt(e @ e)  # float64 unit vectors carry an O(eps) norm defect
    L = pure_boost4(e, np.cosh(ld(b.alpha)), np.sinh(ld(b.alpha)))
    m = ld(p.m)
    p3 = p.p.astype(ld)
    p4 = np.empty(4, dtype=ld)
    p4[:3] = p3
    p4[3] = np.sqrt(m * m + p3 @ p3)
    lp = _standard_boost4_generic(p4[:3], p4[3], m)
    q4 = L @ p4
    lq = _standard_boost4_generic(q4[:3], q4[3], m)
    eta = np.diag(np.array([1.0, 1.0, 1.0, -1.0], dtype=ld))
    w4 = (eta @ lq.T @ eta) @ L @ lp
    return np.asarray(w4, dtype=float)


def rotation_angle(w4: np.ndarray) -> float:
    """Rotation angle of a 4x4 little-group element from its spatial block.

    Combines the trace (1 + 2 cos Omega) with the antisymmetric part
    (|antisym|/2 = sin Omega), which stays well conditioned at small
    angles.
    """
    r = np.asarray(w4)[:3, :3]
    c = (np.trace(r) - 1.0) / 2.0
    s = 0.5 * math.sqrt((r[2, 1] - r[1, 2]) ** 2
                        + (r[0, 2] - r[2, 0]) ** 2
                        + (r[1, 0] - r[0, 1]) ** 2)
    return math.atan2(s, c)


def wigner_angle(beta: float, e_over_m: float) -> float:
    """Wigner angle for momentum along +z and the boost along +x.

    tan(Omega) = sinh(alpha) sinh(delta) / (cosh(alpha) + cosh(delta)) with
    alpha = artanh(beta) and cosh(delta) = E/m.  The result lies in
    [0, pi/2) and is strictly increasing in beta and in E/m.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    if not math.isfinite(e_over_m):
        raise ValueError(f"E/m must be finite, got {e_over_m}")
    if e_over_m < 1.0:
        raise ValueError(f"E/m must be >= 1, got {e_over_m}")
    alpha = math.atanh(beta)
    delta = math.acosh(e_over_m)
    return math.atan2(math.sinh(alpha) * math.sinh(delta),
                      math.cosh(alpha) + math.cosh(delta))


def wigner_su2_special(beta: float, e_over_m: float) -> WignerRotation:
    """Little-group element for the z-momentum / x-boost geometry.

    The axis is -y (e x p_hat = x_hat x z_hat), so the SU(2) matrix is the
    real rotation [[cos(O/2), -sin(O/2)], [sin(O/2), cos(O/2)]].
    """
    omega = wigner_angle(beta, e_over_m)
    if omega == 0.0:
        return WignerRotation(omega=0.0, axis=Z_HAT.copy(), su2=IDENTITY2.copy())
    c, s = math.cos(omega / 2), math.sin(omega / 2)
    su2 = np.array([[c, -s], [s, c]], dtype=complex)
    return WignerRotation(omega=omega, axis=np.array([0.0, -1.0, 0.0]), su2=su2)
