"""Momentum-conserved two-particle Bell states and their Lorentz boosts.

A pair is labelled by the first particle's momentum p; the second particle
carries the parity-flipped momentum (-p, E).  Spin amplitudes live in the
basis (++, +-, -+, --) and stay unit-normalized; the relativistic
normalization of the boosted creation operators is tracked separately in
``kin_factor`` so spin expectation values are unaffected by it.  Public
constructors validate; the pair kernel ``_spin_map`` builds no per-particle
object but keeps each one's check as one scalar test: the unit quaternion
inline, and (q, E') where ``boost_two_particle`` labels them.

Leading-axis contract: ``_spin_map`` also takes a grid boost
(``BoostSpec._grid``), whose rapidities form a 1-D array of n speeds in
(0, 1) along one direction.  Its parts (``wigner._boost_parts``,
``wigner._su2``) then carry a leading axis of n, the unitarity check runs
once over the whole array, and every row equals the scalar call for that
speed bit for bit: the alpha-dependent cosh, sinh and exp come from ``math``
per element, and the products are the same BLAS calls row by row.  Each
kernel tests its input kind once per call; scalar calls keep their route.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from relbell.kinematics import BoostSpec, FourMomentum
from relbell.linalg import _kron
from relbell.wigner import _boost_parts, _su2

BASIS_LABELS = ("++", "+-", "-+", "--")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Bell amplitudes over (++, +-, -+, --); index pair (i, j) follows the
# correlated/anticorrelated x sign layout.
_BELL_AMPS = {
    (0, 0): np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) * _INV_SQRT2,
    (0, 1): np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) * _INV_SQRT2,
    (1, 0): np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) * _INV_SQRT2,
    (1, 1): np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) * _INV_SQRT2,
}

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class TwoQubitState:
    """Spin state of a two-particle pair: 4 amplitudes, kinematic weight, momenta.

    ``p_label`` is the first particle's momentum; ``p2_label`` the second's,
    defaulting to the parity flip (-p, E) of a freshly built back-to-back
    pair.  Both labels must be carried explicitly because parity and boosts
    do not commute: after a boost the pair is generally no longer
    back-to-back, and chained boosts need the true second momentum.
    """

    amps: np.ndarray
    kin_factor: float
    p_label: FourMomentum
    p2_label: FourMomentum | None = None

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)
        if amps.shape != (4,):
            raise ValueError(f"amplitudes must have shape (4,), got {amps.shape}")
        if not all(map(cmath.isfinite, amps.tolist())):
            raise ValueError("amplitudes must be finite")
        norm2 = float(np.vdot(amps, amps).real)
        if abs(norm2 - 1.0) > _NORM_TOL:
            raise ValueError(f"spin sector not normalized: sum |amps|^2 = {norm2!r}")
        kin_factor = float(self.kin_factor)
        if not 0.0 < kin_factor < math.inf:
            raise ValueError(f"kin_factor must be finite and positive, got {kin_factor!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "kin_factor", kin_factor)
        if self.p2_label is None:
            object.__setattr__(self, "p2_label", self.p_label.parity())


@dataclass(frozen=True)
class BellCoefficients:
    """Expansion of a two-qubit spin state over the four Bell states."""

    c00: complex
    c01: complex
    c10: complex
    c11: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.c00, self.c01, self.c10, self.c11])


def bell_state(i: int, j: int, p: FourMomentum) -> TwoQubitState:
    """The (i, j) Bell state on the momentum-conserved pair (p, -p).

    (0,0) -> (|++> + |-->)/sqrt2     (0,1) -> (|++> - |-->)/sqrt2
    (1,0) -> (|+-> + |-+>)/sqrt2     (1,1) -> (|+-> - |-+>)/sqrt2

    A pair at rest is rejected: momentum conservation with two identical
    masses requires back-to-back motion.
    """
    if (i, j) not in _BELL_AMPS:
        raise ValueError(f"Bell indices must be bits, got ({i}, {j})")
    if p.p_mag == 0.0:
        raise ValueError("momentum-conserved pair requires |p| > 0")
    return TwoQubitState(amps=_BELL_AMPS[(i, j)].copy(), kin_factor=1.0, p_label=p)


def _spin_map(b: BoostSpec, s: TwoQubitState):
    """The pair kernel: normalised (W1 (x) W2) amps, their norm and each particle's (q, E').

    A grid boost (``BoostSpec._grid``) maps the pair once per speed: amps
    (n, 4), norm (n,), q (n, 3) and E' (n,), each row equal to the scalar
    call's bit for bit.
    """
    grid = isinstance(b.alpha, np.ndarray)
    parts = [_boost_parts(b, p) for p in (s.p_label, s.p2_label)]
    amps = _kron(*(_su2(c, *(v.T if grid else v.tolist())) for c, v, _, _ in parts)) @ s.amps
    re, im = amps.real, amps.imag  # np.linalg.norm of a complex vector, without its dispatch
    if grid:  # a stacked (1, 4) @ (4, 1) product is the same BLAS dot as the 1-D one
        re, im = re[:, None, :], im[:, None, :]
        norm = np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0])
        amps = amps / norm[:, None]
    else:
        norm = math.sqrt(re.dot(re) + im.dot(im))
        amps = amps / norm
    return amps, norm, [part[2:] for part in parts]


def boost_two_particle(s: TwoQubitState, b: BoostSpec) -> TwoQubitState:
    """Boost both particles: amps -> (W1 (x) W2) amps.

    W1 is the little-group spinor for (b, p1) and W2 the one for (b, p2);
    for a freshly built pair p2 = (-p, E).  The energy-ratio weights of the
    two boosted creation operators multiply into ``kin_factor``, together
    with any rounding residual of the (unitary) spin map, so the returned
    amplitudes are exactly unit-normalized.  Both momentum labels move to
    their boosted values so boosts chain.  This is the pair kernel
    ``_spin_map`` plus the labels and ``kin_factor``, validated once.
    """
    amps, norm, ((q1, e1), (q2, e2)) = _spin_map(b, s)
    p1, p2 = s.p_label, s.p2_label
    kin = math.sqrt(e1 / p1.E) * math.sqrt(e2 / p2.E)
    return TwoQubitState(amps=amps, kin_factor=s.kin_factor * kin * norm,
                         p_label=FourMomentum(q1, e1, p1.m), p2_label=FourMomentum(q2, e2, p2.m))


def bell_decompose(s: TwoQubitState) -> BellCoefficients:
    """Inner products of the state against the four Bell basis vectors."""
    c = [complex(np.vdot(_BELL_AMPS[idx], s.amps)) for idx in ((0, 0), (0, 1), (1, 0), (1, 1))]
    return BellCoefficients(*c)


def dump_state(s: TwoQubitState) -> str:
    """Plain-text state dump: one ``label re im`` line per amplitude plus kin_factor.

    Numbers carry 17 significant digits with '.' as the decimal separator,
    so dumps are byte-stable and round-trip float64 exactly.
    """
    lines = [
        f"{label} {amp.real:.17g} {amp.imag:.17g}"
        for label, amp in zip(BASIS_LABELS, s.amps)
    ]
    lines.append(f"kin_factor {s.kin_factor:.17g}")
    return "\n".join(lines) + "\n"
