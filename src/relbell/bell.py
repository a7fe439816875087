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
``_spin_map``, ``boost_two_particle``, ``bell_decompose``) then carry a
leading axis of n, and every check runs once over the whole array, so one
bad row (NaN, or a quaternion off unit norm) makes the call raise.

The kernel is one body for both kinds.  It splits its inputs into real
components, plain floats for a scalar call and 1-D arrays for rows, and
writes W1 (x) W2 applied to the amplitudes, the norm and the Bell
coefficients as explicit real sums: no matrix product, no BLAS call, no
numpy complex multiply.  Rows equal scalar calls bit for bit because the
kernel uses only correctly rounded + - * / and sqrt, and each row takes its
own c >= 0 or c < 0 form of ``wigner._boost_parts``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from relbell.kinematics import MASS_SHELL_RTOL, BoostSpec, FourMomentum, _unchecked
from relbell.linalg import _check, _components, _rowdot, _sqrt
from relbell.wigner import _SU2_TOL, _quaternion

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


def _pair_rotation(w1, w2, r, i):
    """(W1 (x) W2) psi in real arithmetic; each W = c I + i sigma.(x, y, z) is its quaternion.

    ``r`` and ``i`` are Re and Im of psi over (++, +-, -+, --).  Every entry
    of W1 (x) W2 is a signed sum of two of the 16 products of a component
    of W1 with one of W2, formed before any amplitude enters, so a symmetry
    of the pair (W2 the mirror of W1) cancels exactly as it does in the
    literal Kronecker product.  Returns Re and Im of the four new amplitudes.
    """
    c1, x1, y1, z1 = w1
    c2, x2, y2, z2 = w2
    cc, cx, cy, cz = c1 * c2, c1 * x2, c1 * y2, c1 * z2
    xc, xx, xy, xz = x1 * c2, x1 * x2, x1 * y2, x1 * z2
    yc, yx, yy, yz = y1 * c2, y1 * x2, y1 * y2, y1 * z2
    zc, zx, zy, zz = z1 * c2, z1 * x2, z1 * y2, z1 * z2
    a, b, c, d = cc - zz, cc + zz, cz + zc, zc - cz
    e, f, g, h = cy - zx, cy + zx, cx + zy, cx - zy
    j, k, l, m = yc - xz, yc + xz, yz + xc, xc - yz
    n, o, p, q = yy - xx, yy + xx, yx + xy, xy - yx
    r0, r1, r2, r3 = r
    i0, i1, i2, i3 = i
    # each row of W1 (x) W2 against psi: entry u + i v adds u r_k - v i_k to Re, u i_k + v r_k to Im
    return (a * r0 - c * i0 + e * r1 - g * i1 + j * r2 - l * i2 + n * r3 - p * i3,
            a * i0 + c * r0 + e * i1 + g * r1 + j * i2 + l * r2 + n * i3 + p * r3,
            -f * r0 - h * i0 + b * r1 - d * i1 - o * r2 + q * i2 + k * r3 - m * i3,
            -f * i0 + h * r0 + b * i1 + d * r1 - o * i2 - q * r2 + k * i3 + m * r3,
            -k * r0 - m * i0 - o * r1 - q * i1 + b * r2 + d * i2 + f * r3 - h * i3,
            -k * i0 + m * r0 - o * i1 + q * r1 + b * i2 - d * r2 + f * i3 + h * r3,
            n * r0 + p * i0 - j * r1 - l * i1 - e * r2 - g * i2 + a * r3 + c * i3,
            n * i0 - p * r0 - j * i1 + l * r1 - e * i2 + g * r2 + a * i3 - c * r3)


def _sum_of_squares(parts):
    """The sum of the squares of the eight parts, in order."""
    x0, x1, x2, x3, x4, x5, x6, x7 = parts
    return x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4 + x5 * x5 + x6 * x6 + x7 * x7


def _complex(parts) -> np.ndarray:
    """Re, Im, Re, Im, ... (floats, or 1-D arrays of n rows) as a (k,) or (n, k) complex array."""
    return np.ascontiguousarray(np.array(parts).T).view(complex)


def _spin_map(b: BoostSpec, s: TwoQubitState):
    """The pair kernel: normalised (W1 (x) W2) amps, their norm and each particle's (q, E').

    n rows (any of ``BoostSpec._rows``, ``TwoQubitState._rows`` and its
    labels) map n pairs at once: amps (n, 4), norm (n,), q (n, 3) and E' (n,),
    each row equal to the scalar call's bit for bit.  The checks of
    ``TwoQubitState`` and ``FourMomentum`` run once on the kernel's floats or
    rows: each W unitary, the result of unit norm, each (q, E') finite and on
    shell with E' >= m.
    """
    (c1, (x1, y1, z1), kk1, q1, e1), (c2, (x2, y2, z2), kk2, q2, e2) = (
        _quaternion(b, s.p_label), _quaternion(b, s.p2_label))
    # each W is its quaternion scaled by K; W^dagger W = (c^2 + |s|^2) I = K^2 I
    _check((abs(c1 * c1 + (x1 * x1 + y1 * y1 + z1 * z1) - kk1) <= _SU2_TOL * kk1)
           & (abs(c2 * c2 + (x2 * x2 + y2 * y2 + z2 * z2) - kk2) <= _SU2_TOL * kk2), ValueError,
           "su2 is not unitary")
    for (q0, q1_, q2_), energy, m in ((q1, e1, s.p_label.m), (q2, e2, s.p2_label.m)):
        total = q0 + q1_ + q2_ + energy  # not finite exactly when a part is not
        e_sq = energy * energy
        defect = abs(e_sq - (q0 * q0 + q1_ * q1_ + q2_ * q2_) - m * m)
        _check((total - total == 0) & (energy >= m * (1.0 - 1e-12))
               & ((defect <= MASS_SHELL_RTOL * e_sq) | (defect <= MASS_SHELL_RTOL)), ValueError,
               "boosted momentum must be finite and on shell with E' >= m")
    raw = _pair_rotation((c1, x1, y1, z1), (c2, x2, y2, z2), _components(s.amps.real),
                         _components(s.amps.imag))
    norm = _sqrt(_sum_of_squares(raw))
    unit = [x / norm for x in raw]
    _check(abs(_sum_of_squares(unit) - 1.0) <= _NORM_TOL, ValueError, "spin sector not normalized")
    # the unitary map's norm: the scale K1 K2 of the two quaternions divided out
    return (_complex(unit), norm / _sqrt(kk1 * kk2),
            [(np.array(q1).T, e1), (np.array(q2).T, e2)])


def boost_two_particle(s: TwoQubitState, b: BoostSpec) -> TwoQubitState:
    """Boost both particles: amps -> (W1 (x) W2) amps.

    W1 is the little-group spinor for (b, p1) and W2 the one for (b, p2);
    for a freshly built pair p2 = (-p, E).  The energy-ratio weights of the
    two boosted creation operators multiply into ``kin_factor``, together
    with any rounding residual of the (unitary) spin map, so the returned
    amplitudes are exactly unit-normalized.  Both momentum labels move to
    their boosted values so boosts chain.  This is the pair kernel
    ``_spin_map``, which runs the checks of the objects it would otherwise
    build, plus the labels and ``kin_factor``.  n rows
    (``TwoQubitState._rows``, ``BoostSpec._rows``) give the n boosted pairs as
    one ``TwoQubitState._rows``, row k equal to the scalar call's bit for bit.
    """
    amps, norm, ((q1, e1), (q2, e2)) = _spin_map(b, s)
    p1, p2 = s.p_label, s.p2_label
    kin = s.kin_factor * (_sqrt(e1 / p1.E) * _sqrt(e2 / p2.E)) * norm
    _check((0.0 < kin) & (kin < math.inf), ValueError, "kin_factor must be finite and positive")
    for a in (amps, q1, q2):
        a.setflags(write=False)
    # m + 0 E' is each label's mass on every row
    return _unchecked(TwoQubitState, amps=amps, kin_factor=kin,
                      p_label=_unchecked(FourMomentum, p=q1, E=e1, m=p1.m + 0.0 * e1),
                      p2_label=_unchecked(FourMomentum, p=q2, E=e2, m=p2.m + 0.0 * e2))


def bell_decompose(s: TwoQubitState) -> BellCoefficients:
    """Inner products of the state against the four Bell basis vectors.

    (a0 + a3, a0 - a3, a1 + a2, a1 - a2) / sqrt(2), component by component;
    on n rows (``TwoQubitState._rows``) each coefficient is a 1-D array over
    the rows, each element the scalar call's.
    """
    r0, r1, r2, r3 = _components(s.amps.real)
    i0, i1, i2, i3 = _components(s.amps.imag)
    coefficients = _complex([_INV_SQRT2 * x for x in (
        r0 + r3, i0 + i3, r0 - r3, i0 - i3, r1 + r2, i1 + i2, r1 - r2, i1 - i2)])
    return BellCoefficients(*coefficients.T)


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
