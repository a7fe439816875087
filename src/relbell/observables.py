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

Closed-form joint expectations are provided for the z-momentum / x-boost
geometry, one for each sector of the Bell family:

* ``expectation_case1_closed`` -- the {00, 11} sector, which the boost
  rotates by the Wigner angle Omega, giving correlations in cos/sin(2 Omega);
* ``expectation_case2_closed`` -- the {01, 10} sector, which keeps its form.

``chsh`` contracts the pair's correlation tensor T_ij = <sigma_i (x) sigma_j>
with the effective Bloch vectors, CHSH = a.T(b + b') + a'.T(b - b'); the
optimizer shares that kernel.  ``SpinObservable``, ``rel_spin_observable``
and the brute-force ``joint_expectation`` keep every check as the matrix
oracle that ``verify`` and the tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from relbell.bell import TwoQubitState
from relbell.kinematics import unit3
from relbell.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, sigma_dot, tensor

_OBS_TOL = 1e-12

#: |CHSH| never exceeds 2*sqrt(2) for +-1 observables (Tsirelson).
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

_PAULIS = np.array([SIGMA_X, SIGMA_Y, SIGMA_Z])

_UNDEFINED = "observable undefined: direction perpendicular to the boost at beta = 1"


def _observable_vector(a: np.ndarray, beta: float, e: np.ndarray) -> np.ndarray:
    """Effective Bloch vector of the boost-corrected observable (unit norm)."""
    ae = float(a @ e)
    # 1 - beta^2 and the denominator 1 + beta^2 ((a.e)^2 - 1) both cancel as
    # beta -> 1 for a nearly perpendicular to e; these forms add positive
    # terms only (|a_perp|^2 = 1 - (a.e)^2 for the unit a).
    squeeze = (1.0 - beta) * (1.0 + beta)
    shrink = math.sqrt(squeeze)
    den2 = ae * ae + squeeze * (1.0 - ae * ae)
    if den2 <= 0.0:
        raise ValueError(_UNDEFINED)
    den = math.sqrt(den2)
    # (shrink * a_perp + a_par) / den component by component: the same
    # operations as the 3-vector expression, without numpy's dispatch
    return np.array([(shrink * (ai - ae * ei) + ae * ei) / den
                     for ai, ei in zip(a.tolist(), e.tolist())])


@dataclass(frozen=True)
class SpinObservable:
    """A +-1 spin observable: 2x2 Hermitian traceless matrix squaring to I."""

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "m", m)
        if m.shape != (2, 2):
            raise ValueError(f"observable must be a 2x2 matrix, got shape {m.shape}")
        # Checked on Python scalars, the same arithmetic as the array
        # expressions without numpy's per-call dispatch; NaN fails the first.
        (m00, m01), (m10, m11) = m.tolist()
        if not all(abs(d) <= _OBS_TOL for d in (m00 - m00.conjugate(), m01 - m10.conjugate(),
                                                 m10 - m01.conjugate(), m11 - m11.conjugate())):
            raise ValueError("observable must be Hermitian")
        if abs(m00 + m11) > _OBS_TOL:
            raise ValueError("observable must be traceless")
        (q00, q01), (q10, q11) = (m @ m).tolist()
        if not all(abs(d) <= _OBS_TOL for d in (q00 - 1.0, q01, q10, q11 - 1.0)):
            raise ValueError("observable must square to the identity")


@dataclass(frozen=True)
class ChshSettings:
    """The four measurement directions of a CHSH run."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray

    def __post_init__(self):
        for name in ("a", "a_prime", "b", "b_prime"):
            object.__setattr__(self, name, unit3(getattr(self, name), name))


def rel_spin_observable(direction, beta: float, e) -> SpinObservable:
    """Boost-corrected spin observable for measurement direction ``direction``.

    Reduces to sigma.a at beta = 0, and for directions parallel or
    perpendicular to the boost axis the correction cancels entirely.  Valid
    for beta in [0, 1]; at beta = 1 the direction must not be orthogonal to
    the boost.
    """
    a = unit3(direction, "measurement direction")
    e = unit3(e, "boost direction")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    vec = _observable_vector(a, beta, e)
    return SpinObservable(m=sigma_dot(vec))


def joint_expectation(s: TwoQubitState, A: SpinObservable, B: SpinObservable) -> float:
    """<amps| A (x) B |amps> on the normalized spin sector (kin_factor ignored)."""
    val = complex(np.vdot(s.amps, tensor(A.m, B.m) @ s.amps))
    if abs(val.imag) > 1e-12:
        raise ArithmeticError(f"joint expectation not real: {val!r}")
    return val.real


def _correlation_tensor(amps: np.ndarray) -> np.ndarray:
    """T_ij = <amps| sigma_i (x) sigma_j |amps>, real 3x3."""
    m = amps.reshape(2, 2)  # m[a, b]: particle 1 in a, particle 2 in b
    t = np.einsum("ab,iac,jbd,cd->ij", m.conj(), _PAULIS, _PAULIS, m)
    if not np.abs(t.imag).max() <= 1e-12:
        raise ArithmeticError(f"correlation tensor not real: {t!r}")
    return t.real


def _chsh_sum(t: np.ndarray, a, a_prime, b, b_prime) -> float:
    """a.T(b + b') + a'.T(b - b') on effective Bloch vectors."""
    return a @ (t @ (b + b_prime)) + a_prime @ (t @ (b - b_prime))


def chsh(s: TwoQubitState, c: ChshSettings, beta: float, e) -> float:
    """CHSH combination <ab> + <ab'> + <a'b> - <a'b'> with boost-corrected observables."""
    e = unit3(e, "boost direction")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    vecs = [_observable_vector(v, beta, e) for v in (c.a, c.a_prime, c.b, c.b_prime)]
    # (sigma.v)^2 = |v|^2 I: the scalar form of SpinObservable's check
    if not all(abs(v @ v - 1.0) <= _OBS_TOL for v in vecs):
        raise ValueError("observable must square to the identity")
    return float(_chsh_sum(_correlation_tensor(s.amps), *vecs))


def _x_boost_norm(ax: float, q: float) -> float:
    """|D a| for an x-boost with q = (1-beta)(1+beta): sqrt(ax^2 + q (1 - ax^2)); never 0."""
    norm = math.sqrt(ax * ax + q * (1.0 - ax * ax))
    if norm == 0.0:
        raise ValueError(_UNDEFINED)
    return norm


def expectation_case1_closed(a, b, beta: float, omega: float) -> float:
    """Closed-form <a_hat (x) b_hat> on the boosted correlated pair (00 sector).

    Geometry: pair momentum along z, boost along x, ``omega`` the Wigner
    angle of the boost.  The state rotates into the 11 sector by omega, so
    correlations oscillate at 2*omega:

        { [ax bx + q az bz] cos(2w) - q ay by
          - sqrt(q) (az bx - bz ax) sin(2w) } / (Na Nb)

    with q = (1-beta)(1+beta), Na = sqrt(ax^2 + q (1 - ax^2)) and likewise Nb.
    """
    ax, ay, az = unit3(a, "a").tolist()
    bx, by, bz = unit3(b, "b").tolist()
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    q = (1.0 - beta) * (1.0 + beta)
    num = ((ax * bx + q * az * bz) * math.cos(2.0 * omega)
           - q * ay * by
           - math.sqrt(q) * (az * bx - bz * ax) * math.sin(2.0 * omega))
    return num / (_x_boost_norm(ax, q) * _x_boost_norm(bx, q))


def expectation_case2_closed(a, b, beta: float) -> float:
    """Closed-form <a_hat (x) b_hat> on the boosted exchange-symmetric pair (10 sector).

    The boost leaves this state's form invariant, so no Wigner angle enters:

        [ax bx + q (ay by - az bz)] / (Na Nb),

    with q, Na and Nb as in ``expectation_case1_closed``.
    """
    ax, ay, az = unit3(a, "a").tolist()
    bx, by, bz = unit3(b, "b").tolist()
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    q = (1.0 - beta) * (1.0 + beta)
    return (ax * bx + q * (ay * by - az * bz)) / (_x_boost_norm(ax, q) * _x_boost_norm(bx, q))


def chsh_case1_closed(beta: float, omega: float) -> float:
    """CHSH curve of the boosted correlated pair at its rest-frame-optimal settings.

    (2 / sqrt(2 - beta^2)) (sqrt(1 - beta^2) + cos(2 omega)), evaluated as
    (2 / sqrt(1 + q)) (sqrt(q) + cos(2 omega)) with q = (1-beta)(1+beta);
    follows from ``expectation_case1_closed`` at the CASE1 settings.  Equals
    the universal curve only when omega = 0.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    q = (1.0 - beta) * (1.0 + beta)
    return (2.0 / math.sqrt(1.0 + q)) * (math.sqrt(q) + math.cos(2.0 * omega))


def chsh_universal(beta: float) -> float:
    """The state-independent CHSH curve of the form-invariant sector.

    (2 / sqrt(2 - beta^2)) (1 + sqrt(1 - beta^2)): 2*sqrt(2) at beta = 0,
    exactly 2 at beta = 1, strictly decreasing in between.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return chsh_case1_closed(beta, 0.0)


_S2 = 1.0 / math.sqrt(2.0)

#: Rest-frame-optimal settings for the correlated pair (00): y-anticorrelated.
CASE1_SETTINGS = ChshSettings(
    a=np.array([_S2, -_S2, 0.0]),
    a_prime=np.array([-_S2, -_S2, 0.0]),
    b=np.array([0.0, 1.0, 0.0]),
    b_prime=np.array([1.0, 0.0, 0.0]),
)

#: Rest-frame-optimal settings for the exchange-symmetric pair (10): y-correlated.
CASE2_SETTINGS = ChshSettings(
    a=np.array([_S2, _S2, 0.0]),
    a_prime=np.array([-_S2, _S2, 0.0]),
    b=np.array([0.0, 1.0, 0.0]),
    b_prime=np.array([1.0, 0.0, 0.0]),
)

#: Settings reaching 2*sqrt(2) at beta = 0 for each Bell state, all drawn
#: from the same xy-plane family (b along y, b' along x).
REST_OPTIMAL_SETTINGS = {
    "00": CASE1_SETTINGS,
    "01": ChshSettings(
        a=np.array([-_S2, _S2, 0.0]),
        a_prime=np.array([_S2, _S2, 0.0]),
        b=np.array([0.0, 1.0, 0.0]),
        b_prime=np.array([1.0, 0.0, 0.0]),
    ),
    "10": CASE2_SETTINGS,
    "11": ChshSettings(
        a=np.array([-_S2, -_S2, 0.0]),
        a_prime=np.array([_S2, -_S2, 0.0]),
        b=np.array([0.0, 1.0, 0.0]),
        b_prime=np.array([1.0, 0.0, 0.0]),
    ),
}
