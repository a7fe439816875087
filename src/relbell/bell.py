"""Momentum-conserved two-particle Bell states and their Lorentz boosts.

A pair is labelled by the first particle's momentum p; the second particle
carries the parity-flipped momentum (-p, E).  Spin amplitudes live in the
basis (++, +-, -+, --) and stay unit-normalized; the relativistic
normalization of the boosted creation operators is tracked separately in
``kin_factor`` so spin expectation values are unaffected by it.

Leading-axis contract (one for the whole pair kernel): every kernel also
takes n rows, each with its own boost direction, speed, momentum and
amplitudes, as the public constructors build them (``BoostSpec``,
``FourMomentum``, ``TwoQubitState`` and ``ChshSettings`` each take one
value or n rows); a single boost, momentum, amplitude vector or setting is
shared by every row, so ``chsh-scan``'s grid is one case.  The kernel,
``boost_two_particle`` over ``wigner._quaternion``, is one body for both
kinds: it splits its inputs into real components, plain floats for a scalar
call and 1-D arrays for rows, and writes W1 (x) W2 applied to the
amplitudes, the norm and the Bell coefficients as explicit real sums of
correctly rounded + - * / and sqrt, so rows equal scalar calls bit for bit.
The kind is tested once per call, by the ``linalg`` helpers (``_sqrt_for``
picks ``math``'s or numpy's square root), never in the body, and each
output (the amplitudes, each label's q) is built as one array.  It builds
no per-particle object but runs each value type's one check body
(``_check_amps`` and ``_check_kin`` here, ``kinematics._on_shell``) on what
it maps, once over the whole array, so one bad row makes the call raise; a
check formats its message only when it fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from relbell.kinematics import BoostSpec, FourMomentum, _on_shell, _unchecked
from relbell.linalg import _check, _check_values, _components, _holds, _sqrt_for, _stack
from relbell.wigner import _check_unit_quaternion, _quaternion

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

for _a in _BELL_AMPS.values():
    _a.setflags(write=False)

_NORM_TOL = 1e-12


def _check_amps(parts) -> None:
    """``TwoQubitState``'s amplitude checks on Re, Im, Re, Im, ... of its four amplitudes."""
    norm2 = _sum_of_squares(parts)
    ok = abs(norm2 - 1.0) <= _NORM_TOL  # NaN and inf fail too
    if not _holds(ok):
        _check(np.isfinite(parts), ValueError, "amplitudes must be finite")
        _check_values(ok, ValueError, "spin sector not normalized: sum |amps|^2 = {norm2!r}",
                      norm2=norm2)


def _check_kin(kin) -> None:
    """``TwoQubitState``'s kin_factor check on a float or on n rows; NaN fails it."""
    ok = (0.0 < kin) & (kin < math.inf)
    if not _holds(ok):
        _check_values(ok, ValueError, "kin_factor must be finite and positive, got {kin!r}", kin=kin)


@dataclass(frozen=True)
class TwoQubitState:
    """Spin state of a two-particle pair: 4 amplitudes, kinematic weight, momenta.

    ``p_label`` is the first particle's momentum; ``p2_label`` the second's,
    defaulting to the parity flip (-p, E) of a freshly built back-to-back
    pair.  Both labels must be carried explicitly because parity and boosts
    do not commute: after a boost the pair is generally no longer
    back-to-back, and chained boosts need the true second momentum.  An
    (n, 4) stack of amplitudes, or n kin_factors, makes n pairs; each label
    is then one momentum for all or n rows.
    """

    amps: np.ndarray
    kin_factor: float
    p_label: FourMomentum
    p2_label: FourMomentum | None = None

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex, order="C")
        if amps.shape[-1:] != (4,) or amps.ndim > 2:
            raise ValueError(f"amplitudes must have shape (4,) or (n, 4), got {amps.shape}")
        _check_amps(_components(amps.view(float)))
        kin_factor = self.kin_factor
        kin_factor = float(kin_factor) if np.ndim(kin_factor) == 0 else np.array(kin_factor, float)
        _check_kin(kin_factor)
        amps.setflags(write=False)
        self.__dict__.update(amps=amps, kin_factor=kin_factor, p2_label=(
            self.p_label.parity() if self.p2_label is None else self.p2_label))

    def row(self, k: int) -> "TwoQubitState":
        """Row ``k`` of n pairs as one pair (checked with the others); one pair is every row."""
        kin = self.kin_factor
        return _unchecked(TwoQubitState, amps=self.amps if self.amps.ndim == 1 else self.amps[k],
                          kin_factor=float(kin[k] if np.ndim(kin) else kin),
                          p_label=self.p_label.row(k), p2_label=self.p2_label.row(k))


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
    masses requires back-to-back motion.  n momenta give the n pairs as one
    ``TwoQubitState`` of n rows.  The amplitudes are
    constants that pass the state's checks, so they are not checked again.
    """
    if (i, j) not in _BELL_AMPS:
        raise ValueError(f"Bell indices must be bits, got ({i}, {j})")
    p0, p1, p2 = _components(p.p)
    _check(p0 * p0 + p1 * p1 + p2 * p2 > 0.0, ValueError,
           "momentum-conserved pair requires |p| > 0")
    return _unchecked(TwoQubitState, amps=_BELL_AMPS[(i, j)], kin_factor=1.0, p_label=p,
                      p2_label=p.parity())


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
    a = np.array(parts)
    return (a if a.ndim == 1 else np.ascontiguousarray(a.T)).view(complex)


def boost_two_particle(s: TwoQubitState, b: BoostSpec) -> TwoQubitState:
    """Boost both particles: amps -> (W1 (x) W2) amps.

    W1 is the little-group spinor for (b, p1) and W2 the one for (b, p2);
    for a freshly built pair p2 = (-p, E).  The energy-ratio weights of the
    two boosted creation operators multiply into ``kin_factor``, together
    with any rounding residual of the (unitary) spin map, so the returned
    amplitudes are exactly unit-normalized.  Both momentum labels move to
    their boosted values so boosts chain.  This is the pair kernel: n rows
    give the n boosted pairs as one ``TwoQubitState`` of n rows.  Each W is
    checked unitary, the amplitudes get ``TwoQubitState``'s checks and each
    (q, E') ``FourMomentum``'s, once over the floats or rows.
    """
    p1, p2 = s.p_label, s.p2_label
    c1, (x1, y1, z1), kk1, q1, e1 = _quaternion(b, p1)
    c2, (x2, y2, z2), kk2, q2, e2 = _quaternion(b, p2)
    # each W is its quaternion scaled by K
    _check_unit_quaternion(c1, x1, y1, z1, kk1)
    _check_unit_quaternion(c2, x2, y2, z2, kk2)
    _on_shell(q1, e1, p1.m)
    _on_shell(q2, e2, p2.m)
    r0, i0, r1, i1, r2, i2, r3, i3 = _components(s.amps.view(float))
    raw = _pair_rotation((c1, x1, y1, z1), (c2, x2, y2, z2), (r0, r1, r2, r3), (i0, i1, i2, i3))
    norm2 = _sum_of_squares(raw)
    sqrt = _sqrt_for(norm2)  # rows when the amplitudes, the boost or a momentum are
    norm = sqrt(norm2)
    unit = [x / norm for x in raw]
    _check_amps(unit)
    # the unitary map's norm is norm / (K1 K2): the scale of the two quaternions divided out
    kin = s.kin_factor * (sqrt(e1 / p1.E) * sqrt(e2 / p2.E)) * (norm / sqrt(kk1 * kk2))
    _check_kin(kin)
    amps, q1, q2 = _complex(unit), _stack(q1), _stack(q2)
    for a in (amps, q1, q2):
        a.setflags(False)
    # m + 0 E' is each label's mass on every row
    return _unchecked(TwoQubitState, amps=amps, kin_factor=kin,
                      p_label=_unchecked(FourMomentum, p=q1, E=e1, m=p1.m + 0.0 * e1),
                      p2_label=_unchecked(FourMomentum, p=q2, E=e2, m=p2.m + 0.0 * e2))


def bell_decompose(s: TwoQubitState) -> BellCoefficients:
    """Inner products of the state against the four Bell basis vectors.

    (a0 + a3, a0 - a3, a1 + a2, a1 - a2) / sqrt(2), component by component;
    on n rows each coefficient is a 1-D array over the rows, each element
    the scalar call's.
    """
    r0, i0, r1, i1, r2, i2, r3, i3 = _components(s.amps.view(float))
    coefficients = _complex([_INV_SQRT2 * x for x in (
        r0 + r3, i0 + i3, r0 - r3, i0 - i3, r1 + r2, i1 + i2, r1 - r2, i1 - i2)])
    return BellCoefficients(*coefficients.T)


def dump_state(s: TwoQubitState) -> str:
    """Plain-text state dump: one ``label re im`` line per amplitude plus kin_factor.

    Numbers carry 17 significant digits with '.' as the decimal separator,
    so dumps are byte-stable and round-trip float64 exactly.  One pair only.
    """
    if s.amps.ndim != 1:
        raise ValueError(f"dump_state takes one pair, got {len(s.amps)} rows")
    lines = [
        f"{label} {amp.real:.17g} {amp.imag:.17g}"
        for label, amp in zip(BASIS_LABELS, s.amps)
    ]
    lines.append(f"kin_factor {s.kin_factor:.17g}")
    return "\n".join(lines) + "\n"
