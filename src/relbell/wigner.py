"""Spin-1/2 Wigner rotations of massive particles under pure boosts.

The little-group element W(Lambda, p) = L^-1(Lambda p) . Lambda . L(p)
fixes the rest momentum, so for a massive particle it is an ordinary
spatial rotation.  Its spin-1/2 representation is one unit quaternion
(cos(Omega/2), sin(Omega/2) n_hat), which ``WignerRotation`` holds and from
which it derives the angle, the axis and the SU(2) matrix.  This module
computes that rotation two independent ways:

* ``little_group_closed`` -- the closed form: a rotation by angle Omega
  about the axis e x p_hat, with c = e.p_hat and

      cos(Omega/2) = [ch(a/2) ch(d/2) + sh(a/2) sh(d/2) c] / K
      sin(Omega/2) n_hat = sh(a/2) sh(d/2) (e x p_hat) / K
      K^2 = (1 + E'/m) / 2,   E'/m = ch(a) ch(d) + sh(a) sh(d) c

  where alpha is the boost rapidity and cosh(delta) = E/m.  The same terms
  give Lambda p = (q, E'), from E and p.e as the 4x4 product forms them
  while c >= 0.  For c < 0 each sum x + y c (x >= y >= 0) cancels, so it
  is (x - y) + y (1 + c) with 1 + c = |e + p_hat|^2 / 2 and x - y =
  ch((a-d)/2), ch(a-d) or sh(a-d) from exp(a - d) = exp(a) m / (E + |p|).

  ``_boost_parts`` forms these terms for one boost and momentum, or for n
  rows of them at once (the pair kernel's leading-axis contract, see
  ``relbell.bell``), where each row takes its own c >= 0 or c < 0 form.

* ``little_group_oracle`` -- the literal three-factor spinor product,
  used as the numerical cross-check everywhere.

A third route, ``little_group_lorentz``, builds the same element as a 4x4
matrix so the rotation angle can be extracted from its spatial block.

The oracle routes (``little_group_oracle``, ``little_group_lorentz``,
``rotation_angle``, ``d_half_standard`` and ``d_half_pure_boost``) take the
same n rows as ``_boost_parts``, with one body each: every row equals the
scalar call bit for bit, rows at rest or without boost are masked instead
of branched on, and every check (the oracle's unitarity, the mass shell of
Lambda p) runs once over the whole array.  They stay independent of the
closed form: no oracle row goes through ``_boost_parts`` or ``_su2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from relbell.kinematics import (
    BoostSpec,
    FourMomentum,
    Z_HAT,
    _cosh,
    _dot,
    _pointwise,
    _rapidity,
    _sinh,
    _standard_boost4,
    boost_matrix,
    pure_boost4,
)
from relbell.linalg import (
    IDENTITY2,
    _PAULI_ROWS,
    _col,
    _components,
    _rowdot,
    _sigma_dot,
    adjugate2,
    dagger,
    exp2,
    max_abs_diff,
    sigma_dot,
)

_SU2_TOL = 1e-12
_IDENTITY_ROWS = IDENTITY2.tolist()
_ORACLE_UNITARITY_TOL = 1e-10


def _su2(c, x, y, z) -> np.ndarray:
    """c I + i sigma.(x, y, z), entry by entry with the complex operations of the array form.

    The four parts are floats, or 1-D arrays of n quaternions for an (n, 2, 2)
    stack; the unitarity check covers the whole array.
    """
    rows = isinstance(c, np.ndarray)
    # su2^dagger su2 = det(su2) I = (c^2 + |s|^2) I: one check, which NaN fails
    unitary = abs(c * c + (x * x + y * y + z * z) - 1.0) <= _SU2_TOL
    if not (unitary.all() if rows else unitary):
        raise ValueError("su2 is not unitary")
    if not rows:  # an array part is promoted to complex by numpy, as complex() does here
        c, x, y, z = complex(c), complex(x), complex(y), complex(z)
    m = np.array([c * one + 1j * (x * sx + y * sy + z * sz)
                  for ones, paulis in zip(_IDENTITY_ROWS, _PAULI_ROWS)
                  for one, (sx, sy, sz) in zip(ones, paulis)])
    # contiguous rows: a strided stack sends the products' matmul down
    # another loop, whose sums round differently from the one-matrix call
    return np.ascontiguousarray(m.T).reshape(-1, 2, 2) if rows else m.reshape(2, 2)


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
        object.__setattr__(self, "cos_half", cos_half)
        object.__setattr__(self, "sin_half_vec", sin_half_vec)
        object.__setattr__(self, "omega", 2.0 * math.atan2(sin_half, cos_half))
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "su2", su2)


def d_half_pure_boost(b: BoostSpec) -> np.ndarray:
    """Spinor representation of a pure boost: ch(a/2) I + sh(a/2) sigma.e.

    Hermitian, positive definite, determinant 1.  ``BoostSpec._rows`` gives
    the (n, 2, 2) stack.
    """
    return _col(_cosh(b.alpha / 2)) * IDENTITY2 + _col(_sinh(b.alpha / 2)) * _sigma_dot(b.e)


def d_half_standard(p: FourMomentum) -> np.ndarray:
    """Spinor representation of the standard boost L(p).

    sqrt((E+m)/2m) I + sqrt((E-m)/2m) sigma.p_hat; the identity at rest.
    Below |p| = m, where E - m cancels (every digit is lost at |p|/m = 1e-8),
    sinh(delta/2) is formed as |p| / sqrt(2m(E+m)) instead; above it the
    first form keeps det = ch^2 - sh^2 = 1 closer, which the adjugate in
    ``little_group_oracle`` relies on.  ``FourMomentum._rows`` gives the
    (n, 2, 2) stack, each row taking its own form.
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


def _square(x):
    return x ** 2  # Python's pow, which differs from x * x in the last bit on ~0.1% of inputs


_SCALAR_MATH = (math.cosh, math.sinh, math.exp, _square, math.sqrt)
_squares = _pointwise(_square)
_ROW_MATH = (_cosh, _sinh, _pointwise(math.exp), _squares, np.sqrt)  # sqrt rounds correctly in both


def _mag_rapidity(p: FourMomentum):
    """|p| and the rapidity of one momentum, or 1-D arrays of both for ``FourMomentum._rows``."""
    if p.p.ndim == 1:
        p_mag = p.p_mag
        return p_mag, _rapidity(p_mag, p.E, p.m)
    p_mag = np.sqrt(_rowdot(p.p, p.p))  # p.p_mag row by row
    return p_mag, np.fromiter(map(_rapidity, p_mag.tolist(), p.E.tolist(), p.m.tolist()), float,
                              len(p_mag))


def _boost_parts(b: BoostSpec, p: FourMomentum):
    """cos(Omega/2), sin(Omega/2) n_hat and Lambda p = (q, E') for boost ``b`` on ``p``.

    n rows (``BoostSpec._rows``, ``FourMomentum._rows``; either may be a
    single boost or momentum, shared by every row) give every part a leading
    axis of n.  Each row takes its own c >= 0 or c < 0 form and equals the
    scalar result for its boost and momentum bit for bit.
    """
    alpha, e = b.alpha, b.e
    p_mag, delta = _mag_rapidity(p)
    if isinstance(p_mag, np.ndarray):  # p_hat = +z on a row at rest
        at_rest = (p_mag == 0.0)[:, None]
        p_hat = np.where(at_rest, Z_HAT, p.p / np.where(at_rest, 1.0, p_mag[:, None]))
    else:
        p_hat = Z_HAT if p_mag == 0.0 else p.p / p_mag
    rows = isinstance(alpha, np.ndarray) or p_hat.ndim == 2
    if rows:
        cosh, sinh, exp, square, sqrt = _ROW_MATH
        c, p_e = _rowdot(e, p_hat), _rowdot(p.p, e)
        (e0, e1, e2), (p0, p1, p2), p_comps = map(_components, (e, p_hat, p.p))
    else:  # the BLAS dots of e @ p_hat and p @ e, without the matmul dispatch
        cosh, sinh, exp, square, sqrt = _SCALAR_MATH
        c, p_e = float(e.dot(p_hat)), float(p.p.dot(e))
        (e0, e1, e2), (p0, p1, p2), p_comps = e.tolist(), p_hat.tolist(), p.p.tolist()
    ch, sh = cosh(alpha), sinh(alpha)
    sh_half = sinh(alpha / 2) * sinh(delta / 2)
    if rows:  # each row takes its own form; a form that no row takes is not evaluated
        first = (c >= 0.0) | (alpha == 0.0)
        use_plain, use_cancelling = first.any(), not first.all()
    else:
        use_plain = c >= 0.0 or alpha == 0.0
        use_cancelling = not use_plain
    forms = []
    if use_plain:  # no term cancels; a zero boost keeps p exactly
        k = sqrt(0.5 + 0.5 * ch * cosh(delta) + 0.5 * sh * sinh(delta) * c)
        cos_num = cosh(alpha / 2) * cosh(delta / 2) + sh_half * c
        forms.append((k, cos_num, ch * p.E + sh * p_e, (ch - 1.0) * p_e + sh * p.E))
    if use_cancelling:
        one_plus_c = 0.5 * (square(e0 + p0) + square(e1 + p1) + square(e2 + p2))
        # r = exp(alpha - delta): a difference of float rapidities is off by eps * delta
        r = exp(alpha) * p.m / (p.E + p_mag)
        root = sqrt(r)
        energy = 0.5 * p.m * (r + 1.0 / r) + sh * p_mag * one_plus_c
        forms.append((sqrt(0.5 + 0.5 * energy / p.m),
                      0.5 * (root + 1.0 / root) + sh_half * one_plus_c,
                      energy, 0.5 * p.m * (r - 1.0 / r) + ch * p_mag * one_plus_c - p_e))
    if len(forms) == 1:
        k, cos_num, energy, shift = forms[0]
    else:
        k, cos_num, energy, shift = (np.where(first, x, y) for x, y in zip(*forms))
    # e x p_hat from its six scalar products, as numpy's cross forms it
    f = sh_half / k
    sin_half_vec = np.array([f * (e1 * p2 - e2 * p1), f * (e2 * p0 - e0 * p2),
                             f * (e0 * p1 - e1 * p0)])
    q = np.array([x + shift * y for x, y in zip(p_comps, (e0, e1, e2))])
    if rows:  # (3, n) -> (n, 3)
        sin_half_vec, q = sin_half_vec.T, q.T
    return cos_num / k, sin_half_vec, q, energy


def little_group_closed(b: BoostSpec, p: FourMomentum) -> WignerRotation:
    """Closed-form little-group element for boost ``b`` acting on momentum ``p``.

    The rotation axis is along e x p_hat; collinear boosts and particles at
    rest give the identity rotation (axis fixed to +z by convention, since
    no axis is geometrically preferred).
    """
    return WignerRotation(*_boost_parts(b, p)[:2])


def little_group_oracle(b: BoostSpec, p: FourMomentum) -> np.ndarray:
    """Little-group spinor as the literal product D^-1(L(Lp)) D(Lambda) D(L(p)).

    This is the brute-force route the closed form is checked against.  The
    result is unitary by construction; that is asserted numerically here
    because the three factors are individually non-unitary and large at high
    rapidity.  n rows (``BoostSpec._rows``, ``FourMomentum._rows``; either may
    be a single boost or momentum) give the (n, 2, 2) stack, and the
    assertion covers every row.
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
    e /= np.sqrt(_dot(e, e))[..., None]  # float64 unit vectors carry an O(eps) norm defect
    alpha = np.asarray(b.alpha, dtype=ld)
    L = pure_boost4(e, np.cosh(alpha), np.sinh(alpha))
    m = np.asarray(p.m, dtype=ld)
    p3 = p.p.astype(ld)
    p4 = np.concatenate((p3, np.sqrt(m * m + _dot(p3, p3))[..., None]), axis=-1)
    lp = _standard_boost4(p4[..., :3], p4[..., 3], m)
    q4 = (L @ p4[..., None])[..., 0]
    lq = _standard_boost4(q4[..., :3], q4[..., 3], m)
    eta = np.diag(np.array([1.0, 1.0, 1.0, -1.0], dtype=ld))
    w4 = (eta @ lq.swapaxes(-1, -2) @ eta) @ L @ lp
    return np.asarray(w4, dtype=float)


_atan2 = _pointwise(math.atan2)


def rotation_angle(w4: np.ndarray):
    """Rotation angle of a 4x4 little-group element from its spatial block.

    Combines the trace (1 + 2 cos Omega) with the antisymmetric part
    (|antisym|/2 = sin Omega), which stays well conditioned at small
    angles.  An (n, 4, 4) stack gives the 1-D array of n angles.
    """
    r = np.asarray(w4)[..., :3, :3]
    c = (np.trace(r, axis1=-2, axis2=-1) - 1.0) / 2.0
    s = 0.5 * np.sqrt(_squares(r[..., 2, 1] - r[..., 1, 2])
                      + _squares(r[..., 0, 2] - r[..., 2, 0])
                      + _squares(r[..., 1, 0] - r[..., 0, 1]))
    return _atan2(s, c)


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
