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
optimizer shares that kernel.  Leading-axis contract (the pair kernel's,
see ``relbell.bell``): ``_chsh_amps`` also takes n rows, (n, 4) amplitudes
with a 1-D array of n betas, and each setting and the boost direction either
one unit vector or an (n, 3) stack (``ChshSettings._rows``), as ``verify``
passes its random settings and ``chsh-scan`` its whole grid.
``_observable_vector``, ``_correlation_tensor`` and ``_chsh_sum`` then carry
the leading axis, the unit-norm and real-T checks run once over the whole
array (NaN fails both), and every value equals the scalar call's bit for
bit.  ``SpinObservable``, ``rel_spin_observable`` and the brute-force
``joint_expectation`` are the matrix oracle that ``verify`` and the tests
compare against; they take the same n rows (``SpinObservable._rows``) and
keep every check, run once over the whole stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from relbell.bell import TwoQubitState
from relbell.kinematics import _unchecked, _unit_rows, unit3
from relbell.linalg import (
    IDENTITY2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _components,
    _kron,
    _rowdot,
    _sigma_dot,
    dagger,
    sigma_dot,
    tensor,
)

_OBS_TOL = 1e-12

#: |CHSH| never exceeds 2*sqrt(2) for +-1 observables (Tsirelson).
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

_PAULIS = np.array([SIGMA_X, SIGMA_Y, SIGMA_Z])

_SETTING_NAMES = ("a", "a_prime", "b", "b_prime")

_UNDEFINED = "observable undefined: direction perpendicular to the boost at beta = 1"


def _check_beta(beta) -> None:
    """Reject beta outside [0, 1], or a 1-D array of betas with any outside; NaN fails too."""
    if isinstance(beta, np.ndarray):
        if beta.ndim != 1 or not ((0.0 <= beta) & (beta <= 1.0)).all():
            raise ValueError(f"every beta must lie in [0, 1], got {beta!r}")
    elif not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")


def _observable_vector(a: np.ndarray, beta, e: np.ndarray) -> np.ndarray:
    """Effective Bloch vector of the boost-corrected observable (unit norm).

    A 1-D array of n betas gives the (n, 3) stack of vectors; ``a`` and ``e``
    may then each be one 3-vector or an (n, 3) stack.
    """
    rows = isinstance(beta, np.ndarray)
    ae = _rowdot(a, e) if rows else float(a.dot(e))  # a @ e without the matmul dispatch
    # 1 - beta^2 and the denominator 1 + beta^2 ((a.e)^2 - 1) both cancel as
    # beta -> 1 for a nearly perpendicular to e; these forms add positive
    # terms only (|a_perp|^2 = 1 - (a.e)^2 for the unit a).
    squeeze = (1.0 - beta) * (1.0 + beta)
    den2 = ae * ae + squeeze * (1.0 - ae * ae)
    if (den2 <= 0.0).any() if rows else den2 <= 0.0:
        raise ValueError(_UNDEFINED)
    sqrt = np.sqrt if rows else math.sqrt  # both round correctly
    shrink, den = sqrt(squeeze), sqrt(den2)
    # (shrink * a_perp + a_par) / den component by component: the same
    # operations as the 3-vector expression, without numpy's dispatch
    vec = np.array([(shrink * (ai - ae * ei) + ae * ei) / den
                    for ai, ei in zip(_components(a), _components(e))])
    return np.ascontiguousarray(vec.T) if rows else vec  # see wigner._su2 on contiguity


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

    @classmethod
    def _rows(cls, m) -> "SpinObservable":
        """n observables as one: ``m`` is their (n, 2, 2) stack.

        The constructor's checks run once over the stack (NaN fails them), so
        one bad row makes the call raise.
        """
        m = np.array(m, dtype=complex)
        if m.ndim != 3 or m.shape[1:] != (2, 2):
            raise ValueError(f"observable rows must be an (n, 2, 2) stack, got shape {m.shape}")
        if not (np.abs(m - dagger(m)) <= _OBS_TOL).all():
            raise ValueError("observable must be Hermitian")
        if not (np.abs(m[:, 0, 0] + m[:, 1, 1]) <= _OBS_TOL).all():
            raise ValueError("observable must be traceless")
        if not (np.abs(m @ m - IDENTITY2) <= _OBS_TOL).all():
            raise ValueError("observable must square to the identity")
        m.setflags(write=False)
        return _unchecked(cls, m=m)


@dataclass(frozen=True)
class ChshSettings:
    """The four measurement directions of a CHSH run."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray

    def __post_init__(self):
        for name in _SETTING_NAMES:
            object.__setattr__(self, name, unit3(getattr(self, name), name))

    @classmethod
    def _rows(cls, a, a_prime, b, b_prime) -> "ChshSettings":
        """n settings for ``_chsh_amps``: each direction one unit vector or an (n, 3) stack."""
        return _unchecked(cls, **{name: _unit_rows(v, name)
                                  for name, v in zip(_SETTING_NAMES, (a, a_prime, b, b_prime))})


def rel_spin_observable(direction, beta: float, e) -> SpinObservable:
    """Boost-corrected spin observable for measurement direction ``direction``.

    Reduces to sigma.a at beta = 0, and for directions parallel or
    perpendicular to the boost axis the correction cancels entirely.  Valid
    for beta in [0, 1]; at beta = 1 the direction must not be orthogonal to
    the boost.  A 1-D array of n betas, with each direction one unit vector
    or an (n, 3) stack, gives the n observables as ``SpinObservable._rows``,
    each row equal to its scalar call bit for bit.
    """
    rows = isinstance(beta, np.ndarray)
    unit, pauli_sum = (_unit_rows, _sigma_dot) if rows else (unit3, sigma_dot)
    a = unit(direction, "measurement direction")
    e = unit(e, "boost direction")
    _check_beta(beta)
    m = pauli_sum(_observable_vector(a, beta, e))
    return SpinObservable._rows(m) if rows else SpinObservable(m=m)


def joint_expectation(s: TwoQubitState, A: SpinObservable, B: SpinObservable) -> float:
    """<amps| A (x) B |amps> on the normalized spin sector (kin_factor ignored).

    n rows (a ``TwoQubitState._rows`` with n-row observables, or either
    side shared) give the 1-D array of n values, each equal to its scalar
    call bit for bit: the stacked products are the same BLAS calls as
    ``np.vdot`` and the one-matrix product.
    """
    amps = s.amps
    ab = tensor(A.m, B.m) if A.m.ndim == B.m.ndim == 2 else _kron(A.m, B.m)
    val = (amps.conj()[..., None, :] @ (ab @ amps[..., None]))[..., 0, 0]
    if not (np.abs(val.imag) <= 1e-12).all():  # NaN fails too
        raise ArithmeticError(f"joint expectation not real: {val.tolist()!r}")
    return val.real if val.ndim else float(val.real)


def _correlation_tensor(amps: np.ndarray) -> np.ndarray:
    """T_ij = <amps| sigma_i (x) sigma_j |amps>, real 3x3; (n, 4) amps give (n, 3, 3)."""
    m = amps.reshape(amps.shape[:-1] + (2, 2))  # m[..., a, b]: particle 1 in a, particle 2 in b
    t = np.einsum("...ab,iac,jbd,...cd->...ij", m.conj(), _PAULIS, _PAULIS, m)
    if not all(abs(x) <= 1e-12 for x in t.imag.ravel().tolist()):  # NaN fails too
        raise ArithmeticError(f"correlation tensor not real: {t!r}")
    # strided on purpose: a contiguous T sends _chsh_sum's @ to BLAS, which rounds differently
    return t.real


def _chsh_sum(t: np.ndarray, a, a_prime, b, b_prime):
    """a.T(b + b') + a'.T(b - b') on effective Bloch vectors.

    A stack of n tensors (n, 3, 3) and vectors (n, 3) gives the n sums: each
    u.T v is then the stacked (1, 3) @ (3, 3) @ (3, 1) product, the same BLAS
    calls as the 1-D ``u @ (T @ v)``.
    """
    if t.ndim == 2:
        return a @ (t @ (b + b_prime)) + a_prime @ (t @ (b - b_prime))

    def form(u, v):
        return (u[:, None, :] @ (t @ v[:, :, None]))[:, 0, 0]

    return form(a, b + b_prime) + form(a_prime, b - b_prime)


def chsh(s: TwoQubitState, c: ChshSettings, beta: float, e) -> float:
    """CHSH combination <ab> + <ab'> + <a'b> - <a'b'> with boost-corrected observables."""
    e = unit3(e, "boost direction")
    _check_beta(beta)
    return _chsh_amps(s.amps, c, beta, e)


def _chsh_amps(amps: np.ndarray, c: ChshSettings, beta, e: np.ndarray):
    """``chsh`` on unit-normalised amplitudes, for a unit ``e`` and beta in [0, 1].

    n rows, (n, 4) amplitudes with a 1-D array of n betas and each direction
    of ``c`` and ``e`` one unit vector or an (n, 3) stack, give the n values
    as an array, each equal to the scalar call's bit for bit; every check
    covers the whole array.
    """
    rows = isinstance(beta, np.ndarray)
    vecs = [_observable_vector(v, beta, e) for v in (c.a, c.a_prime, c.b, c.b_prime)]
    # (sigma.v)^2 = |v|^2 I: the scalar form of SpinObservable's check
    for x, y, z in (v.T if rows else v.tolist() for v in vecs):
        unit = abs(x * x + y * y + z * z - 1.0) <= _OBS_TOL
        if not (unit.all() if rows else unit):
            raise ValueError("observable must square to the identity")
    value = _chsh_sum(_correlation_tensor(amps), *vecs)
    return value if rows else float(value)


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
    _check_beta(beta)
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
    _check_beta(beta)
    q = (1.0 - beta) * (1.0 + beta)
    return (ax * bx + q * (ay * by - az * bz)) / (_x_boost_norm(ax, q) * _x_boost_norm(bx, q))


def chsh_case1_closed(beta: float, omega: float) -> float:
    """CHSH curve of the boosted correlated pair at its rest-frame-optimal settings.

    (2 / sqrt(2 - beta^2)) (sqrt(1 - beta^2) + cos(2 omega)), evaluated as
    (2 / sqrt(1 + q)) (sqrt(q) + cos(2 omega)) with q = (1-beta)(1+beta);
    follows from ``expectation_case1_closed`` at the CASE1 settings.  Equals
    the universal curve only when omega = 0.
    """
    _check_beta(beta)
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    q = (1.0 - beta) * (1.0 + beta)
    return (2.0 / math.sqrt(1.0 + q)) * (math.sqrt(q) + math.cos(2.0 * omega))


def chsh_universal(beta: float) -> float:
    """The state-independent CHSH curve of the form-invariant sector.

    (2 / sqrt(2 - beta^2)) (1 + sqrt(1 - beta^2)): 2*sqrt(2) at beta = 0,
    exactly 2 at beta = 1, strictly decreasing in between.
    """
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
