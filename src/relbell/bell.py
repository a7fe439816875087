"""Momentum-conserved two-particle Bell states and their Lorentz boosts.

A pair is labelled by the first particle's momentum p; the second particle
carries the parity-flipped momentum (-p, E).  Spin amplitudes live in the
basis (++, +-, -+, --) and stay unit-normalized; the relativistic
normalization of the boosted creation operators is tracked separately in
``kin_factor`` so spin expectation values are unaffected by it.  Public
constructors validate; the pair kernel ``_spin_map`` builds no per-particle
object but keeps each one's check as one scalar test: the unit quaternion
inline, and (q, E') where ``boost_two_particle`` labels them.

Leading-axis contract (one for the whole pair kernel): every kernel also
takes n rows, and each row has its own boost direction, speed, momentum and
amplitudes.  The row inputs are ``BoostSpec._rows``, ``FourMomentum._rows``,
``TwoQubitState._rows`` and ``ChshSettings._rows``, each checked once over
its arrays; a single boost, momentum, amplitude vector or setting is shared
by every row, so ``chsh-scan``'s grid (``BoostSpec._grid``: one direction,
one momentum, n speeds) is just one case.  The parts (``wigner._boost_parts``,
``wigner._su2``, ``_spin_map``, ``boost_two_particle``, ``bell_decompose``)
then carry a leading axis of n, every check runs once over the whole array,
so one bad row (NaN, or a quaternion off unit norm) makes the call raise,
and every row equals the scalar call for its inputs bit for bit: the cosh,
sinh, exp and ``**`` of the boost come from ``math`` and Python per element,
each row takes its own c >= 0 or c < 0 form, and the products and dots are
the same BLAS calls row by row.  Each kernel tests its input kind once per
call; scalar calls keep their route.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from relbell.kinematics import BoostSpec, FourMomentum, _unchecked
from relbell.linalg import _components, _kron, _rowdot
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

    @classmethod
    def _rows(cls, amps, kin_factor, p_label, p2_label=None) -> "TwoQubitState":
        """n pairs for the pair kernel: row k is (amps[k], kin_factor[k], p_label[k], p2_label[k]).

        ``amps`` is an (n, 4) stack or one (4,) vector for every row,
        ``kin_factor`` n values or one, and each label a ``FourMomentum._rows``
        or one momentum.  The constructor's checks run once over the arrays
        (NaN fails them); ``_row(k)`` gives row k as the scalar pair.
        """
        amps = np.array(amps, dtype=complex, order="C")
        kin_factor = np.array(kin_factor, dtype=float)
        if amps.shape[-1:] != (4,) or amps.ndim > 2:
            raise ValueError(f"amplitudes must have shape (4,) or (n, 4), got {amps.shape}")
        norm2 = (amps.real ** 2 + amps.imag ** 2).sum(axis=-1)
        if not (np.abs(norm2 - 1.0) <= _NORM_TOL).all():  # NaN and inf fail too
            raise ValueError("every spin sector must be finite and normalized")
        if not ((0.0 < kin_factor) & (kin_factor < math.inf)).all():
            raise ValueError("every kin_factor must be finite and positive")
        amps.setflags(write=False)
        return _unchecked(cls, amps=amps, kin_factor=kin_factor, p_label=p_label,
                          p2_label=p_label.parity() if p2_label is None else p2_label)

    def _row(self, k: int) -> "TwoQubitState":
        """Row ``k`` of a ``_rows`` batch as the scalar pair, checked with the batch."""
        return _unchecked(TwoQubitState, amps=self.amps if self.amps.ndim == 1 else self.amps[k],
                          kin_factor=float(self.kin_factor if self.kin_factor.ndim == 0
                                           else self.kin_factor[k]),
                          p_label=self.p_label._row(k), p2_label=self.p2_label._row(k))


@dataclass(frozen=True)
class BellCoefficients:
    """Expansion of a two-qubit spin state over the four Bell states (1-D arrays over n rows)."""

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
    masses requires back-to-back motion.  n momenta (``FourMomentum._rows``)
    give the n pairs as one ``TwoQubitState._rows``.
    """
    if (i, j) not in _BELL_AMPS:
        raise ValueError(f"Bell indices must be bits, got ({i}, {j})")
    one = p.p.ndim == 1
    if p.p_mag == 0.0 if one else (_rowdot(p.p, p.p) == 0.0).any():
        raise ValueError("momentum-conserved pair requires |p| > 0")
    return (TwoQubitState if one else TwoQubitState._rows)(_BELL_AMPS[(i, j)].copy(), 1.0, p)


def _spin_map(b: BoostSpec, s: TwoQubitState):
    """The pair kernel: normalised (W1 (x) W2) amps, their norm and each particle's (q, E').

    n rows (any of ``BoostSpec._rows``, ``TwoQubitState._rows`` and its
    labels) map n pairs at once: amps (n, 4), norm (n,), q (n, 3) and E' (n,),
    each row equal to the scalar call's bit for bit.
    """
    parts = [_boost_parts(b, p) for p in (s.p_label, s.p2_label)]
    m = _kron(*(_su2(c, *_components(v)) for c, v, _, _ in parts))
    amps = m @ s.amps if s.amps.ndim == 1 else (m @ s.amps[:, :, None])[:, :, 0]
    re, im = amps.real, amps.imag  # np.linalg.norm of a complex vector, without its dispatch
    if amps.ndim == 2:  # a stacked (1, 4) @ (4, 1) product is the same BLAS dot as the 1-D one
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
    ``_spin_map`` plus the labels and ``kin_factor``, validated once.  n rows
    (``TwoQubitState._rows``, ``BoostSpec._rows``) give the n boosted pairs as
    one ``TwoQubitState._rows``, row k equal to the scalar call's bit for bit.
    """
    amps, norm, ((q1, e1), (q2, e2)) = _spin_map(b, s)
    p1, p2 = s.p_label, s.p2_label
    if amps.ndim == 1:
        sqrt, state, momentum = math.sqrt, TwoQubitState, FourMomentum
    else:
        sqrt, state, momentum = np.sqrt, TwoQubitState._rows, FourMomentum._rows
    kin = sqrt(e1 / p1.E) * sqrt(e2 / p2.E)
    return state(amps, s.kin_factor * kin * norm, momentum(q1, e1, p1.m), momentum(q2, e2, p2.m))


def bell_decompose(s: TwoQubitState) -> BellCoefficients:
    """Inner products of the state against the four Bell basis vectors.

    On n rows (``TwoQubitState._rows``) each coefficient is a 1-D array over
    the rows, each element the scalar call's (the same ``np.vdot``).
    """
    basis = [_BELL_AMPS[idx] for idx in ((0, 0), (0, 1), (1, 0), (1, 1))]
    if s.amps.ndim == 1:
        return BellCoefficients(*(complex(np.vdot(v, s.amps)) for v in basis))
    return BellCoefficients(*(np.array([np.vdot(v, a) for a in s.amps]) for v in basis))


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
