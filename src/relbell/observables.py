"""Relativistic spin observables and CHSH Bell combinations.

The boost-corrected spin observable along a unit direction a, for an
observer moving with speed beta along e, is

    a_hat = (sqrt((1-beta)(1+beta)) a_perp + a_par) . sigma
            / sqrt((e.a)^2 + (1-beta)(1+beta) |a_perp|^2)

with a split into components parallel and perpendicular to e.  The
denominator is exactly the norm of the numerator's vector, so a_hat is
Hermitian, traceless and squares to the identity: a genuine +-1 observable
for every beta in [0, 1] (at beta = 1 it degenerates unless e.a != 0).
Every formula here uses (1-beta)(1+beta) for 1 - beta^2 and sums only
positive terms in its normalisers, so none cancels as beta -> 1.

The paper's geometry (pair momentum along z, boost along x) has closed
forms, each one body for one value or n rows as ``wigner_angle`` is: the
joint expectations of the {00, 11} sector, which the boost rotates by the
Wigner angle Omega (``expectation_case1_closed``), and of the {01, 10}
sector, which keeps its form (``expectation_case2_closed``), and the CHSH
table ``chsh_closed``, whose entries include the paper's two curves.

``chsh`` contracts the pair's correlation tensor T_ij = <sigma_i (x) sigma_j>
with the effective Bloch vectors, CHSH = a.T(b + b') + a'.T(b - b'); the
optimizer shares that kernel.  It is written component by component: a
Bloch vector is three numbers, T is nine real sums of products of the
amplitudes' real and imaginary parts divided by <psi|psi>, and the
contraction is explicit sums.  ``chsh_max``, the best value over all
settings, is 2 sqrt(1 + C^2) from the pair's concurrence C, written the
same way.  Both take n rows (the pair kernel's contract, see
``relbell.bell``): ``chsh`` n pairs, n betas, and each setting and the
boost direction one unit vector or an (n, 3) stack, ``chsh_max`` n pairs;
they return a float for one pair and an (n,) array for n.  ``ChshSettings``
checks its directions with ``unit3``'s one body, for one setting or n, in
a constructor written out rather than generated.  ``SpinObservable``,
``rel_spin_observable`` and the brute-force ``joint_expectation`` are the
matrix oracle that ``verify`` and the tests compare against; they take the
same n rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from relbell.bell import TwoQubitState
from relbell.kinematics import _check_beta, _unit_rows
from relbell.linalg import (IDENTITY2, _check, _check_values, _components, _each,
                            _floats_or_rows, _sqrt_for, dagger, sigma_dot, tensor)

_OBS_TOL = 1e-12

#: |CHSH| never exceeds 2*sqrt(2) for +-1 observables (Tsirelson).
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

_UNDEFINED = "observable undefined: direction perpendicular to the boost at beta = 1"


def _observable_vectors(directions, beta, e: np.ndarray) -> list:
    """Effective Bloch vectors (unit norm) of the boost-corrected observables, as components.

    One 3-tuple per direction of ``directions``, all at ``beta`` along
    ``e``.  A 1-D array of n betas gives each component as a 1-D array over
    the rows; each direction and ``e`` may then be one 3-vector or an (n, 3)
    stack.
    """
    e0, e1, e2 = _components(e)
    # 1 - beta^2 and the denominator 1 + beta^2 ((a.e)^2 - 1) both cancel as
    # beta -> 1 for a nearly perpendicular to e; these forms add positive
    # terms only (|a_perp|^2 = 1 - (a.e)^2 for the unit a).
    squeeze = (1.0 - beta) * (1.0 + beta)
    parts, defined = [], True
    for a in directions:
        a0, a1, a2 = _components(a)
        ae = a0 * e0 + a1 * e1 + a2 * e2
        den2 = ae * ae + squeeze * (1.0 - ae * ae)
        defined = defined & ((den2 > 0.0) | (den2 != den2))  # NaN fails the unit-norm check
        parts.append((a0, a1, a2, ae, den2))
    _check(defined, ValueError, _UNDEFINED)
    sqrt = _sqrt_for(defined)  # rows when beta, e or a direction is
    shrink = sqrt(squeeze)
    vectors = []
    for a0, a1, a2, ae, den2 in parts:
        den = sqrt(den2)
        x, y, z = ae * e0, ae * e1, ae * e2  # a_par; a - a_par is a_perp
        vectors.append(((shrink * (a0 - x) + x) / den, (shrink * (a1 - y) + y) / den,
                        (shrink * (a2 - z) + z) / den))
    return vectors


@dataclass(frozen=True)
class SpinObservable:
    """A +-1 spin observable: 2x2 Hermitian traceless matrix squaring to I; (n, 2, 2) for n."""

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-2:] != (2, 2):
            raise ValueError("observable must be a 2x2 matrix or an (n, 2, 2) stack, "
                             f"got shape {m.shape}")
        if not (np.abs(m - dagger(m)) <= _OBS_TOL).all():  # NaN fails here
            raise ValueError("observable must be Hermitian")
        if not (np.abs(m[..., 0, 0] + m[..., 1, 1]) <= _OBS_TOL).all():
            raise ValueError("observable must be traceless")
        if not (np.abs(m @ m - IDENTITY2) <= _OBS_TOL).all():
            raise ValueError("observable must square to the identity")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)


@dataclass(frozen=True)
class ChshSettings:
    """The four measurement directions of a CHSH run; each a unit vector or an (n, 3) stack."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray

    def __init__(self, a: np.ndarray, a_prime: np.ndarray, b: np.ndarray,
                 b_prime: np.ndarray) -> None:
        self.__dict__.update(a=_unit_rows(a, "a"), a_prime=_unit_rows(a_prime, "a_prime"),
                             b=_unit_rows(b, "b"), b_prime=_unit_rows(b_prime, "b_prime"))


def rel_spin_observable(direction, beta: float, e) -> SpinObservable:
    """Boost-corrected spin observable for measurement direction ``direction``.

    Reduces to sigma.a at beta = 0, and for directions parallel or
    perpendicular to the boost axis the correction cancels entirely.  Valid
    for beta in [0, 1]; at beta = 1 the direction must not be orthogonal to
    the boost.  A 1-D array of n betas, with each direction one unit vector
    or an (n, 3) stack, gives the n observables as one ``SpinObservable``,
    each row equal to its scalar call bit for bit.
    """
    a = _unit_rows(direction, "measurement direction")
    e = _unit_rows(e, "boost direction")
    _check_beta(beta)
    m = sigma_dot(np.array(_observable_vectors([a], beta, e)[0]).T)
    return SpinObservable(m)


def joint_expectation(s: TwoQubitState, A: SpinObservable, B: SpinObservable) -> float:
    """<amps| A (x) B |amps> on the normalized spin sector (kin_factor ignored).

    n rows (a ``TwoQubitState`` of n rows with n-row observables, or either
    side shared) give the 1-D array of n values, each equal to its scalar
    call bit for bit: one matrix is the one-row case of the same stacked
    products.
    """
    amps = s.amps
    val = (amps.conj()[..., None, :] @ (tensor(A.m, B.m) @ amps[..., None]))[..., 0, 0]
    if not (np.abs(val.imag) <= 1e-12).all():  # NaN fails too
        raise ArithmeticError(f"joint expectation not real: {val.tolist()!r}")
    return val.real if val.ndim else float(val.real)


def _correlation_tensor(amps: np.ndarray):
    """T_ij = <psi| sigma_i (x) sigma_j |psi> / <psi|psi> as its nine entries (xx, xy, ..., zz).

    Each is a sum of products of the amplitudes' real and imaginary parts,
    real by construction; (n, 4) amps give nine 1-D arrays.  Dividing by
    <psi|psi> removes the rounding of the unit amplitudes' norm.  NaN or inf
    amplitudes fail the check that every entry is a finite real number.
    """
    r0, i0, r1, i1, r2, i2, r3, i3 = _components(amps.view(float))
    # Re and Im of conj(psi_j) psi_k
    re01, im01 = r0 * r1 + i0 * i1, r0 * i1 - i0 * r1
    re02, im02 = r0 * r2 + i0 * i2, r0 * i2 - i0 * r2
    re03, im03 = r0 * r3 + i0 * i3, r0 * i3 - i0 * r3
    re12, im12 = r1 * r2 + i1 * i2, r1 * i2 - i1 * r2
    re13, im13 = r1 * r3 + i1 * i3, r1 * i3 - i1 * r3
    re23, im23 = r2 * r3 + i2 * i3, r2 * i3 - i2 * r3
    # |psi_0|^2 + |psi_3|^2 and |psi_1|^2 + |psi_2|^2, which sum to <psi|psi>
    n03, n12 = r0 * r0 + i0 * i0 + r3 * r3 + i3 * i3, r1 * r1 + i1 * i1 + r2 * r2 + i2 * i2
    n2 = n03 + n12
    t = (2.0 * (re03 + re12) / n2, 2.0 * (im03 - im12) / n2, 2.0 * (re02 - re13) / n2,
         2.0 * (im03 + im12) / n2, 2.0 * (re12 - re03) / n2, 2.0 * (im02 - im13) / n2,
         2.0 * (re01 - re23) / n2, 2.0 * (im01 - im23) / n2, (n03 - n12) / n2)
    total = sum(t)  # not finite exactly when an entry is not
    _check(total - total == 0, ArithmeticError, "correlation tensor not real")
    return t


def _chsh_sum(t, a, a_prime, b, b_prime):
    """a.T(b + b') + a'.T(b - b') on effective Bloch vectors, component by component.

    ``t`` holds T's nine entries and each vector its three components, all
    floats or all 1-D arrays of n rows, which give the n sums.
    """
    txx, txy, txz, tyx, tyy, tyz, tzx, tzy, tzz = t
    u0, u1, u2 = b[0] + b_prime[0], b[1] + b_prime[1], b[2] + b_prime[2]
    v0, v1, v2 = b[0] - b_prime[0], b[1] - b_prime[1], b[2] - b_prime[2]
    return (a[0] * (txx * u0 + txy * u1 + txz * u2) + a[1] * (tyx * u0 + tyy * u1 + tyz * u2)
            + a[2] * (tzx * u0 + tzy * u1 + tzz * u2)
            + (a_prime[0] * (txx * v0 + txy * v1 + txz * v2)
               + a_prime[1] * (tyx * v0 + tyy * v1 + tyz * v2)
               + a_prime[2] * (tzx * v0 + tzy * v1 + tzz * v2)))


def chsh(s: TwoQubitState, c: ChshSettings, beta: float, e) -> float:
    """CHSH combination <ab> + <ab'> + <a'b> - <a'b'> with boost-corrected observables.

    A float for one pair.  n rows, a ``TwoQubitState`` of n pairs or a 1-D
    array of n betas, with each direction of ``c`` and ``e`` one unit vector
    or an (n, 3) stack, give the n values as an array, each equal to its
    one-pair call bit for bit; every check covers the whole array.
    """
    e = _unit_rows(e, "boost direction")
    if beta.__class__ is not float:
        beta = float(beta) if np.ndim(beta) == 0 else np.array(beta, dtype=float)
    _check_beta(beta)
    vecs = _observable_vectors((c.a, c.a_prime, c.b, c.b_prime), beta, e)
    unit = True  # (sigma.v)^2 = |v|^2 I: SpinObservable's check, on all four vectors
    for x, y, z in vecs:
        unit = unit & (abs(x * x + y * y + z * z - 1.0) <= _OBS_TOL)
    _check(unit, ValueError, "observable must square to the identity")
    return _chsh_sum(_correlation_tensor(s.amps), *vecs)


def chsh_max(s: TwoQubitState):
    """The maximum CHSH value of pure pair ``s`` over all settings: 2 sqrt(1 + C^2).

    C = 2 |psi_++ psi_-- - psi_+- psi_-+| / <psi|psi> is the concurrence, and
    a pure pair's correlation tensor has singular values (1, C, C), so the
    Horodecki bound 2 sqrt(s1^2 + s2^2) is 2 sqrt(1 + C^2) (Gisin, Phys.
    Lett. A 154, 201 (1991); Horodecki, Horodecki & Horodecki, Phys. Lett. A
    200, 340 (1995)).  For every beta < 1 the boost correction maps the
    sphere of directions one-to-one onto the sphere of Bloch vectors, so
    this is also the maximum of ``chsh`` at any beta < 1 and boost direction.
    A boost acts on the pair as a local unitary, which keeps C: a Bell pair
    stays at 2 sqrt(2) in every frame, and a product state at 2.  A float
    for one pair; n rows give the (n,) array, each row equal to its one-pair
    call bit for bit.
    """
    r0, i0, r1, i1, r2, i2, r3, i3 = _components(s.amps.view(float))
    # Re and Im of psi_++ psi_-- - psi_+- psi_-+, and <psi|psi> as in _correlation_tensor
    re = (r0 * r3 - r1 * r2) - (i0 * i3 - i1 * i2)
    im = (r0 * i3 - r1 * i2) + (i0 * r3 - i1 * r2)
    n2 = (r0 * r0 + i0 * i0 + r3 * r3 + i3 * i3) + (r1 * r1 + i1 * i1 + r2 * r2 + i2 * i2)
    c2 = 4.0 * (re * re + im * im) / (n2 * n2)
    _check(c2 - c2 == 0, ArithmeticError, "concurrence not finite")  # NaN or inf amplitudes
    return 2.0 * _sqrt_for(c2)(1.0 + c2)


def _q_and_omega(beta, omega):
    """q = (1-beta)(1+beta) and ``omega``: floats, or both n rows if either is; checked."""
    if not (beta.__class__ is float and omega.__class__ is float):  # rows, or numpy scalars
        beta, omega = _floats_or_rows(beta, omega,
                                      "the closed forms take n speeds and/or n angles")
    _check_beta(beta)
    _check_values(abs(omega) < math.inf, ValueError, "omega must be finite, got {omega}",
                  omega=omega)
    return (1.0 - beta) * (1.0 + beta), omega


def _x_boost_norms(sqrt, ax, bx, q):
    """Na Nb, with Na = sqrt(ax^2 + q (1 - ax^2)) = |D a| for the x-boost; 0 raises."""
    na2, nb2 = ax * ax + q * (1.0 - ax * ax), bx * bx + q * (1.0 - bx * bx)
    _check_values((na2 > 0.0) & (nb2 > 0.0), ValueError, _UNDEFINED)
    return sqrt(na2) * sqrt(nb2)


def expectation_case1_closed(a, b, beta, omega):
    """Closed-form <a_hat (x) b_hat> on the boosted correlated pair (00 sector).

    Geometry: pair momentum along z, boost along x, ``omega`` the Wigner
    angle of the boost.  The state rotates into the 11 sector by omega, so
    correlations oscillate at 2*omega:

        { [ax bx + q az bz] cos(2w) - q ay by
          - sqrt(q) (az bx - bz ax) sin(2w) } / (Na Nb)

    with q = (1-beta)(1+beta), Na = sqrt(ax^2 + q (1 - ax^2)) and likewise Nb.
    n rows (a or b an (n, 3) stack, beta or omega 1-D) give the (n,) array
    of the one-value calls' floats, bit for bit.
    """
    (ax, ay, az), (bx, by, bz) = _components(_unit_rows(a, "a")), _components(_unit_rows(b, "b"))
    q, omega = _q_and_omega(beta, omega)
    part = (ax * bx + q * az * bz) * _each(math.cos, 2.0 * omega) - q * ay * by
    sqrt = _sqrt_for(part)  # rows when any input is
    num = part - sqrt(q) * (az * bx - bz * ax) * _each(math.sin, 2.0 * omega)
    return num / _x_boost_norms(sqrt, ax, bx, q)


def expectation_case2_closed(a, b, beta):
    """Closed-form <a_hat (x) b_hat> on the boosted exchange-symmetric pair (10 sector).

    The boost leaves this state's form invariant, so no Wigner angle enters:

        [ax bx + q (ay by - az bz)] / (Na Nb),

    with q, Na, Nb and rows as in ``expectation_case1_closed``.
    """
    (ax, ay, az), (bx, by, bz) = _components(_unit_rows(a, "a")), _components(_unit_rows(b, "b"))
    q = _q_and_omega(beta, 0.0)[0]
    num = ax * bx + q * (ay * by - az * bz)
    return num / _x_boost_norms(_sqrt_for(num), ax, bx, q)


#: (sign of t_x, whether t_x is +-cos(2 omega) rather than +-1, t_y) and s: see ``chsh_closed``
_XY_TENSOR = {"00": (1.0, True, -1.0), "11": (-1.0, True, -1.0),
              "10": (1.0, False, 1.0), "01": (-1.0, False, 1.0)}
_FAMILY_SIGN = {"case1": -1.0, "case2": 1.0}


def chsh_closed(state: str, vectors: str, beta, omega):
    """CHSH of the boosted Bell pair ``state`` at the settings ``vectors``, in closed form.

    The paper's table, at ``beta`` in [0, 1] with ``omega`` the boost's
    Wigner angle, for ``CASE1_SETTINGS`` ("case1") or ``CASE2_SETTINGS``
    ("case2"): CHSH = (2 / sqrt(1 + q)) (t_x + s t_y sqrt(q)), q = (1-beta)(1+beta),
    s = -1 for case1 and +1 for case2, and (t_x, t_y) = (cos 2w, -1) for 00,
    (-cos 2w, -1) for 11, (1, 1) for 10 and (-1, 1) for 01: the boosted
    state's T_xx and T_yy, the only entries the xy-plane settings reach.  A
    float for one beta and omega; n of either give the (n,) array, bit for bit.
    """
    if state not in _XY_TENSOR or vectors not in _FAMILY_SIGN:
        raise ValueError(f"no closed form for state {state!r} with vectors {vectors!r}: the "
                         "states are 00, 01, 10 and 11, the vectors case1 and case2")
    sign, rotates, t_y = _XY_TENSOR[state]
    q, omega = _q_and_omega(beta, omega)
    sqrt = _sqrt_for(q)  # rows when beta or omega is
    t_x = sign * _each(math.cos, 2.0 * omega) if rotates else sign
    return (2.0 / sqrt(1.0 + q)) * (sqrt(q) * (_FAMILY_SIGN[vectors] * t_y) + t_x)


def chsh_case1_closed(beta, omega):
    """CHSH curve of the boosted correlated pair at its rest-frame-optimal settings.

    (2 / sqrt(2 - beta^2)) (sqrt(1 - beta^2) + cos(2 omega)), ``chsh_closed``'s
    00 / case1 entry.  Equals the universal curve only when omega = 0.
    """
    return chsh_closed("00", "case1", beta, omega)


def chsh_universal(beta):
    """The state-independent CHSH curve of the form-invariant sector.

    (2 / sqrt(2 - beta^2)) (1 + sqrt(1 - beta^2)), ``chsh_closed``'s 10 / case2
    entry: 2*sqrt(2) at beta = 0, exactly 2 at beta = 1, decreasing in between.
    """
    return chsh_closed("10", "case2", beta, 0.0)


_S2 = 1.0 / math.sqrt(2.0)


def _xy_plane(a, a_prime) -> ChshSettings:
    """The settings a = (a0, a1, 0) / sqrt(2), a' likewise, b along y and b' along x."""
    a, a_prime = (np.array([x * _S2, y * _S2, 0.0]) for x, y in (a, a_prime))
    return ChshSettings(a, a_prime, np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


#: Rest-frame-optimal settings for the correlated pair (00): y-anticorrelated.
CASE1_SETTINGS = _xy_plane((1.0, -1.0), (-1.0, -1.0))

#: Rest-frame-optimal settings for the exchange-symmetric pair (10): y-correlated.
CASE2_SETTINGS = _xy_plane((1.0, 1.0), (-1.0, 1.0))

#: Settings reaching 2*sqrt(2) at beta = 0 for each Bell state, all drawn
#: from the same xy-plane family (b along y, b' along x).
REST_OPTIMAL_SETTINGS = {"00": CASE1_SETTINGS, "01": _xy_plane((-1.0, 1.0), (1.0, 1.0)),
                         "10": CASE2_SETTINGS, "11": _xy_plane((-1.0, -1.0), (1.0, -1.0))}
