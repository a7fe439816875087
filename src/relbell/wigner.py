"""Spin-1/2 Wigner rotations of massive particles under pure boosts.

The little-group element W(Lambda, p) = L^-1(Lambda p) . Lambda . L(p)
fixes the rest momentum, so for a massive particle it is an ordinary
spatial rotation.  Its spin-1/2 representation is one unit quaternion
(cos(Omega/2), sin(Omega/2) n_hat), which ``WignerRotation`` holds and from
which it derives the angle, the axis and the SU(2) matrix.  This module
computes that rotation two independent ways:

* ``little_group_closed`` -- the closed form: a rotation by angle Omega
  about the axis e x p_hat, with c = e.p_hat and

      K cos(Omega/2) = ch(a/2) ch(d/2) + sh(a/2) sh(d/2) c
      K sin(Omega/2) n_hat = sh(a/2) sh(d/2) (e x p_hat)
      K^2 = (1 + E'/m) / 2,   E' = ch(a) E + sh(a) p.e

  where alpha is the boost rapidity and cosh(delta) = E/m.  The same terms
  give Lambda p = (q, E').  Every term is algebraic in the boost's gamma
  and gamma*beta and in (E, |p|, m):

      ch(a/2) = sqrt((gamma + 1)/2),   sh(a/2) = gamma beta / sqrt(2 (gamma + 1))
      ch(d/2) = sqrt((E + m)/2m),      sh(d/2) = |p| / sqrt(2m (E + m))

  For c < 0 each sum x + y c (x >= y >= 0) cancels, so it is (x - y) +
  y (1 + c) with 1 + c = |e + p_hat|^2 / 2 and x - y = ch((a-d)/2),
  ch(a-d) or sh(a-d) from exp(a - d) = (gamma + gamma beta) m / (E + |p|).

  ``_quaternion`` (and ``_boost_parts``, which divides it by K) forms
  these terms with + - * / and sqrt only, for one boost and momentum on
  plain floats or for n rows of them on 1-D arrays (the pair kernel's
  leading-axis contract, see ``relbell.bell``), where each row takes its
  own c >= 0 or c < 0 form.  The kind is tested once per call, by
  ``linalg._sqrt_for`` and ``linalg._forms``: one pair's terms stay on
  ``math``, and a form that no row takes is not evaluated.  Both kinds
  round the same way, so every row equals the scalar call bit for bit.

* ``little_group_oracle`` -- the literal three-factor spinor product,
  used as the numerical cross-check everywhere.

A third route, ``little_group_lorentz``, builds the same element as a 4x4
matrix so the rotation angle can be extracted from its spatial block.

The oracle routes (``little_group_oracle``, ``little_group_lorentz``,
``rotation_angle``, ``d_half_standard`` and ``d_half_pure_boost``) take the
same n rows as ``_boost_parts``, with one numpy body each, one boost and
momentum being the one-row case.  Every row equals the scalar call bit for
bit, because numpy's elementwise loops round an element the same whatever
the array's length or stride (``tests/test_linalg.py`` pins this); rows at
rest or without boost are masked instead of branched on, and every check
(the oracle's unitarity, the mass shell of Lambda p) runs once over the
whole array.  They stay independent of the closed form: they go through the
rapidity, the 4x4 product and spinor products (long double for
``little_group_lorentz``), and no oracle row goes through ``_boost_parts``
or ``_su2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from relbell.kinematics import (
    BoostSpec,
    FourMomentum,
    Z_HAT,
    _check_speed,
    _standard_boost4,
    boost_matrix,
    pure_boost4,
)
from relbell.linalg import (
    IDENTITY2,
    _check,
    _col,
    _components,
    _forms,
    _rowdot,
    _sigma_dot,
    _sqrt_for,
    _stack,
    adjugate2,
    dagger,
    exp2,
    max_abs_diff,
    sigma_dot,
)

_SU2_TOL = 1e-12
_ORACLE_UNITARITY_TOL = 1e-10


def _check_unit_quaternion(c, x, y, z, kk) -> None:
    """Raise unless c^2 + |s|^2 = kk within _SU2_TOL kk, on the float or on every row.

    (c, s) is a unit quaternion scaled by K = sqrt(kk), and W = c I + i sigma.s
    has W^dagger W = det(W) I = (c^2 + |s|^2) I, so this is the check that W / K
    is unitary; NaN fails it.
    """
    _check(abs(c * c + (x * x + y * y + z * z) - kk) <= _SU2_TOL * kk, ValueError,
           "su2 is not unitary")


def _su2(c, x, y, z) -> np.ndarray:
    """c I + i sigma.(x, y, z), one broadcast expression.

    The four parts are floats, or 1-D arrays of n quaternions for an (n, 2, 2)
    stack; the unitarity check covers the whole array.
    """
    _check_unit_quaternion(c, x, y, z, 1.0)
    return _col(c) * IDENTITY2 + 1j * _sigma_dot(np.stack((x, y, z), axis=-1))


@dataclass(frozen=True)
class WignerRotation:
    """A spin rotation as its unit quaternion (cos(Omega/2), sin(Omega/2) n_hat).

    The angle ``omega`` in [0, 2 pi], the unit ``axis`` and the SU(2) matrix
    su2 = cos(Omega/2) I + i sigma.(sin(Omega/2) n_hat) are derived at
    construction.  Without rotation the axis is conventionally +z.
    """

    cos_half: float
    sin_half_vec: np.ndarray
    omega: float = field(init=False)
    axis: np.ndarray = field(init=False)
    su2: np.ndarray = field(init=False)

    def __post_init__(self):
        cos_half = float(self.cos_half)
        sin_half_vec = np.array(self.sin_half_vec, dtype=float)
        if sin_half_vec.shape != (3,):
            raise ValueError(f"sin_half_vec must be a 3-vector, got shape {sin_half_vec.shape}")
        su2 = _su2(cos_half, *sin_half_vec.tolist())
        sin_half = math.sqrt(sin_half_vec.dot(sin_half_vec))
        axis = Z_HAT.copy() if sin_half == 0.0 else sin_half_vec / sin_half
        for a in (sin_half_vec, axis, su2):
            a.setflags(write=False)
        self.__dict__.update(cos_half=cos_half, sin_half_vec=sin_half_vec, axis=axis, su2=su2,
                             omega=2.0 * math.atan2(sin_half, cos_half))


def d_half_pure_boost(b: BoostSpec) -> np.ndarray:
    """Spinor representation of a pure boost: ch(a/2) I + sh(a/2) sigma.e.

    Hermitian, positive definite, determinant 1.  n boosts give the (n, 2, 2)
    stack.
    """
    return _col(np.cosh(b.alpha / 2)) * IDENTITY2 + _col(np.sinh(b.alpha / 2)) * _sigma_dot(b.e)


def d_half_standard(p: FourMomentum) -> np.ndarray:
    """Spinor representation of the standard boost L(p).

    sqrt((E+m)/2m) I + sqrt((E-m)/2m) sigma.p_hat; the identity at rest.
    Below |p| = m, where E - m cancels (every digit is lost at |p|/m = 1e-8),
    sinh(delta/2) is formed as |p| / sqrt(2m(E+m)) instead; above it the
    first form keeps det = ch^2 - sh^2 = 1 closer, which the adjugate in
    ``little_group_oracle`` relies on.  n momenta give the (n, 2, 2) stack,
    each row taking its own form.
    """
    p_mag = np.sqrt(_rowdot(p.p, p.p))  # p.p_mag, row by row
    rest, low = p_mag == 0.0, p_mag < p.m
    ch = np.sqrt((p.E + p.m) / (2.0 * p.m))
    sh = np.where(low, p_mag / np.sqrt(2.0 * p.m * (p.E + p.m)),
                  np.sqrt(np.where(low, 0.0, p.E - p.m) / (2.0 * p.m)))
    p_hat = p.p / np.where(rest, 1.0, p_mag)[..., None]  # p.direction(), 0 at rest
    d = _col(ch) * IDENTITY2 + _col(sh) * _sigma_dot(p_hat)
    return np.where(_col(rest), IDENTITY2, d)


def d_half_exponential(e, alpha: float) -> np.ndarray:
    """Spinor boost as an exponential, exp((alpha/2) sigma.e).

    Equals ``d_half_pure_boost`` for the same direction and rapidity; kept
    as an independent route through the generator algebra.
    """
    return exp2((alpha / 2.0) * sigma_dot(e))


def _quaternion(b: BoostSpec, p: FourMomentum):
    """K cos(Omega/2), K sin(Omega/2) n_hat, K^2, q and E' for boost ``b`` on ``p``.

    The quaternion comes scaled by K (see the module docstring), which the
    pair kernel's normalisation absorbs, and vectors come as components:
    plain floats for one boost and momentum, or 1-D arrays for n rows
    (either may be a single boost or momentum, shared by every row).  The
    kind is tested once per call, by ``_sqrt_for`` and ``_forms``.  Each row
    takes its own c >= 0 or c < 0 form, and a form no row takes is not
    evaluated; the one body uses + - * / and sqrt only, so each row equals
    the scalar result for its boost and momentum bit for bit.
    """
    g, gb, m, energy_in = b.gamma, b.gamma_beta, p.m, p.E
    e0, e1, e2 = _components(b.e)
    p0, p1, p2 = _components(p.p)
    t = g + 1.0
    em = energy_in + m
    tem = t * em
    sqrt = _sqrt_for(tem)  # rows when the boost or the momentum is
    p_mag = sqrt(p0 * p0 + p1 * p1 + p2 * p2)
    d = p_mag + 1.0 * (p_mag == 0.0)  # 1 at rest, where p_hat is 0 and the rotation the identity
    h0, h1, h2 = p0 / d, p1 / d, p2 / d
    c = e0 * h0 + e1 * h1 + e2 * h2
    p_e = p0 * e0 + p1 * e1 + p2 * e2
    sh_half = gb * p_mag / sqrt(4.0 * t * m * em)  # sh(a/2) sh(d/2)
    plain = (c >= 0.0) | (gb == 0.0)
    some_plain, some_cancelling = _forms(plain)
    if some_plain:  # no term cancels; a zero boost keeps p exactly
        energy = g * energy_in + gb * p_e
        cos_num = sqrt(tem / (4.0 * m)) + sh_half * c
        shift = gb * gb / t * p_e + gb * energy_in  # (gamma - 1) p.e + gamma beta E
    if some_cancelling:
        f0, f1, f2 = e0 + h0, e1 + h1, e2 + h2
        one_plus_c = 0.5 * (f0 * f0 + f1 * f1 + f2 * f2)
        r = (g + gb) * m / (energy_in + p_mag)  # exp(alpha - delta)
        root = sqrt(r)
        cancelled = (0.5 * m * (r + 1.0 / r) + gb * p_mag * one_plus_c,
                     0.5 * (root + 1.0 / root) + sh_half * one_plus_c,
                     0.5 * m * (r - 1.0 / r) + g * p_mag * one_plus_c - p_e)
        if some_plain:  # rows of both forms: each row takes its own
            cancelled = [np.where(plain, u, v) for u, v in zip((energy, cos_num, shift), cancelled)]
        energy, cos_num, shift = cancelled
    return (cos_num, (sh_half * (e1 * h2 - e2 * h1), sh_half * (e2 * h0 - e0 * h2),
                      sh_half * (e0 * h1 - e1 * h0)),
            0.5 + 0.5 * energy / m, (p0 + shift * e0, p1 + shift * e1, p2 + shift * e2), energy)


def _boost_parts(b: BoostSpec, p: FourMomentum):
    """cos(Omega/2), sin(Omega/2) n_hat and Lambda p = (q, E') for boost ``b`` on ``p``.

    ``_quaternion`` divided by K, with the vectors as arrays: n rows give
    every part a leading axis of n.
    """
    cos_num, sin_num, k2, q, energy = _quaternion(b, p)
    k = _sqrt_for(k2)(k2)
    return cos_num / k, _stack([x / k for x in sin_num]), _stack(q), energy


def little_group_closed(b: BoostSpec, p: FourMomentum) -> WignerRotation:
    """Closed-form little-group element for boost ``b`` acting on momentum ``p``.

    The rotation axis is along e x p_hat; collinear boosts and particles at
    rest give the identity rotation (axis fixed to +z by convention, since
    no axis is geometrically preferred).  One boost and one momentum only.
    """
    if np.ndim(b.beta) or p.p.ndim != 1:
        raise ValueError("little_group_closed takes one boost and one momentum, got rows")
    return WignerRotation(*_boost_parts(b, p)[:2])


def little_group_oracle(b: BoostSpec, p: FourMomentum) -> np.ndarray:
    """Little-group spinor as the literal product D^-1(L(Lp)) D(Lambda) D(L(p)).

    This is the brute-force route the closed form is checked against.  The
    result is unitary by construction; that is asserted numerically here
    because the three factors are individually non-unitary and large at high
    rapidity.  n rows (n boosts or n momenta; either may be a single boost
    or momentum) give the (n, 2, 2) stack, and the assertion covers every
    row.
    """
    # E' re-derived from q on the mass shell, as little_group_lorentz does:
    # the float64 product's E' is on shell only to rounding
    q = FourMomentum.from_spatial((boost_matrix(b) @ p.four_vector[..., None])[..., :3, 0], p.m)
    w = adjugate2(d_half_standard(q)) @ d_half_pure_boost(b) @ d_half_standard(p)
    if max_abs_diff(dagger(w) @ w, IDENTITY2) > _ORACLE_UNITARITY_TOL:
        raise ArithmeticError("little-group product lost unitarity; rapidities too large")
    return w


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
    amplify by gamma^2.  n rows give the (n, 4, 4) stack.
    """
    ld = np.longdouble
    e = b.e.astype(ld)
    e /= np.sqrt(_rowdot(e, e))[..., None]  # float64 unit vectors carry an O(eps) norm defect
    alpha = np.asarray(b.alpha, dtype=ld)
    L = pure_boost4(e, np.cosh(alpha), np.sinh(alpha))
    m = np.asarray(p.m, dtype=ld)
    p3 = p.p.astype(ld)
    p4 = np.concatenate((p3, np.sqrt(m * m + _rowdot(p3, p3))[..., None]), axis=-1)
    lp = _standard_boost4(p4[..., :3], p4[..., 3], m)
    q4 = (L @ p4[..., None])[..., 0]
    lq = _standard_boost4(q4[..., :3], q4[..., 3], m)
    eta = np.diag(np.array([1.0, 1.0, 1.0, -1.0], dtype=ld))
    w4 = (eta @ lq.swapaxes(-1, -2) @ eta) @ L @ lp
    return np.asarray(w4, dtype=float)


def rotation_angle(w4: np.ndarray):
    """Rotation angle of a 4x4 little-group element from its spatial block.

    Combines the trace (1 + 2 cos Omega) with the antisymmetric part
    (|antisym|/2 = sin Omega), which stays well conditioned at small
    angles.  An (n, 4, 4) stack gives the 1-D array of n angles, one matrix a float.
    """
    r = np.asarray(w4)[..., :3, :3]
    c = (np.trace(r, axis1=-2, axis2=-1) - 1.0) / 2.0
    d = (r[..., 2, 1] - r[..., 1, 2], r[..., 0, 2] - r[..., 2, 0], r[..., 1, 0] - r[..., 0, 1])
    s = 0.5 * np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
    angle = np.arctan2(s, c)
    return angle if angle.ndim else float(angle)


def wigner_angle(beta: float, e_over_m: float) -> float:
    """Wigner angle for momentum along +z and the boost along +x.

    tan(Omega) = sinh(alpha) sinh(delta) / (cosh(alpha) + cosh(delta)) with
    alpha = artanh(beta) and cosh(delta) = E/m.  The result lies in
    [0, pi/2) and is strictly increasing in beta and in E/m.
    """
    _check_speed(beta)
    if not math.isfinite(e_over_m):
        raise ValueError(f"E/m must be finite, got {e_over_m}")
    if e_over_m < 1.0:
        raise ValueError(f"E/m must be >= 1, got {e_over_m}")
    alpha = math.atanh(beta)
    delta = math.acosh(e_over_m)
    return math.atan2(math.sinh(alpha) * math.sinh(delta),
                      math.cosh(alpha) + math.cosh(delta))
