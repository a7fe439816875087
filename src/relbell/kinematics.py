"""Four-momentum algebra and 4x4 Lorentz boosts.

Index convention: four-vectors are ordered (x, y, z, t), so the metric is
eta = diag(+1, +1, +1, -1) and the time component sits at index 3.  Natural
units c = 1 throughout; masses default to 1 and energies are most easily
supplied as E/m ratios.

Speeds are restricted to beta < 1 on every matrix-building path, because
cosh(alpha) diverges at the light cone; the ultra-relativistic limit is
available only through the closed-form expressions in
:mod:`relbell.observables`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ETA = np.diag([1.0, 1.0, 1.0, -1.0])
ETA.setflags(write=False)

X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])
Z_HAT = np.array([0.0, 0.0, 1.0])
for _v in (X_HAT, Y_HAT, Z_HAT):
    _v.setflags(write=False)

#: |E^2 - |p|^2 - m^2| <= MASS_SHELL_RTOL * max(E^2, 1) for every FourMomentum.
MASS_SHELL_RTOL = 1e-9

_UNIT_TOL = 1e-12


def unit3(v, name: str = "direction") -> np.ndarray:
    """Validate and return a unit 3-vector (read-only copy)."""
    v = np.array(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    if not all(map(math.isfinite, v.tolist())):
        raise ValueError(f"{name} must be finite")
    n = math.sqrt(v.dot(v))  # np.linalg.norm of a real vector, without its dispatch
    if abs(n - 1.0) > _UNIT_TOL:
        raise ValueError(f"{name} must be a unit vector (|v| = {n!r})")
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class FourMomentum:
    """On-shell four-momentum of a massive particle.

    Fields are the spatial momentum ``p`` (3-vector), the energy ``E`` and
    the rest mass ``m``, with E >= m > 0 and E^2 - |p|^2 = m^2 enforced at
    construction.
    """

    p: np.ndarray
    E: float
    m: float = 1.0

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.shape != (3,):
            raise ValueError(f"momentum must be a 3-vector, got shape {p.shape}")
        if not (all(map(math.isfinite, p.tolist())) and math.isfinite(self.E)
                and math.isfinite(self.m)):
            raise ValueError("four-momentum components must be finite")
        if self.m <= 0.0:
            raise ValueError(f"mass must be positive, got {self.m}")
        if self.E < self.m * (1.0 - 1e-12):
            raise ValueError(f"energy {self.E} below rest mass {self.m}")
        defect = abs(self.E**2 - float(p @ p) - self.m**2)
        if defect > MASS_SHELL_RTOL * max(self.E**2, 1.0):
            raise ValueError(
                f"off mass shell: E^2 - |p|^2 - m^2 = {defect:.3e} for E={self.E}, m={self.m}"
            )
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "E", float(self.E))
        object.__setattr__(self, "m", float(self.m))

    @classmethod
    def rest(cls, m: float = 1.0) -> "FourMomentum":
        return cls(np.zeros(3), m, m)

    @classmethod
    def from_spatial(cls, p, m: float = 1.0) -> "FourMomentum":
        """Momentum from its spatial part, energy fixed by the mass shell."""
        p = np.asarray(p, dtype=float)
        return cls(p, math.sqrt(m * m + float(p @ p)), m)

    @classmethod
    def along_z(cls, e_over_m: float, m: float = 1.0) -> "FourMomentum":
        """Momentum of magnitude m*sqrt((E/m)^2 - 1) along +z."""
        if e_over_m < 1.0:
            raise ValueError(f"E/m must be >= 1, got {e_over_m}")
        pz = m * math.sqrt(e_over_m * e_over_m - 1.0)
        return cls(np.array([0.0, 0.0, pz]), m * e_over_m, m)

    @property
    def four_vector(self) -> np.ndarray:
        """(px, py, pz, E) in the package's (x, y, z, t) layout."""
        return np.array([self.p[0], self.p[1], self.p[2], self.E])

    @property
    def p_mag(self) -> float:
        return math.sqrt(self.p.dot(self.p))

    @property
    def gamma(self) -> float:
        return self.E / self.m

    @property
    def rapidity(self) -> float:
        """delta with cosh(delta) = E/m; from |p| below |p| = m, where E/m - 1 loses digits."""
        p_mag = self.p_mag
        return math.asinh(p_mag / self.m) if p_mag < self.m else math.acosh(self.E / self.m)

    def direction(self) -> np.ndarray:
        """Unit vector along p; raises for a particle at rest."""
        n = self.p_mag
        if n == 0.0:
            raise ValueError("direction undefined for a particle at rest")
        return self.p / n

    def parity(self) -> "FourMomentum":
        """Spatially flipped momentum (-p, E, m)."""
        return FourMomentum(-self.p, self.E, self.m)


@dataclass(frozen=True)
class BoostSpec:
    """A pure boost: unit direction ``e`` and speed ``beta`` in [0, 1).

    The rapidity ``alpha`` (cosh alpha = gamma) and ``gamma`` are derived at
    construction.  Inverse boosts are represented with the flipped direction
    rather than a negative rapidity, so every BoostSpec keeps beta >= 0.
    """

    e: np.ndarray
    beta: float
    alpha: float = field(init=False)
    gamma: float = field(init=False)

    def __post_init__(self):
        e = unit3(self.e, "boost direction")
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "alpha", math.atanh(self.beta))
        object.__setattr__(self, "gamma", 1.0 / math.sqrt(1.0 - self.beta**2))

    @classmethod
    def from_rapidity(cls, e, alpha: float) -> "BoostSpec":
        """Boost with signed rapidity, kept exactly; a negative alpha flips the direction."""
        e = unit3(e, "boost direction")
        if alpha < 0.0:
            e, alpha = -e, -alpha
        b = cls(e, math.tanh(alpha))
        object.__setattr__(b, "alpha", float(alpha))  # atanh(tanh(alpha)) loses digits
        object.__setattr__(b, "gamma", math.cosh(alpha))
        return b

    def inverse(self) -> "BoostSpec":
        """The boost undoing this one (same speed, opposite direction)."""
        return BoostSpec(-self.e, self.beta)


def pure_boost4(e: np.ndarray, ch, sh) -> np.ndarray:
    """Pure-boost matrix from a unit direction and cosh/sinh rapidity.

    Works for any float dtype of ``e``; no validation, intended for callers
    that already hold exact hyperbolic values.
    """
    L = np.eye(4, dtype=e.dtype)
    L[:3, :3] += np.outer(e, e) * (ch - 1.0)
    L[:3, 3] = L[3, :3] = e * sh
    L[3, 3] = ch
    return L


def _standard_boost4(p3: np.ndarray, energy, m) -> np.ndarray:
    """L(p) from four-momentum components in the float dtype of ``p3``.

    cosh(delta) = E/m and sinh(delta) = |p|/m exactly; the identity at rest.
    """
    pn = np.sqrt(p3 @ p3)
    if pn == 0.0:
        return np.eye(4, dtype=p3.dtype)
    return pure_boost4(p3 / pn, energy / m, pn / m)


def boost_matrix(b: BoostSpec) -> np.ndarray:
    """4x4 boost: Lambda_ij = delta_ij + e_i e_j (cosh a - 1), Lambda_i3 = e_i sinh a.

    The result is symmetric and Minkowski-orthogonal (Lambda^T eta Lambda = eta).
    """
    return pure_boost4(b.e.astype(float), math.cosh(b.alpha), math.sinh(b.alpha))


def apply_boost(L: np.ndarray, p: FourMomentum) -> FourMomentum:
    """Apply a 4x4 Lorentz matrix to a four-momentum; the mass rides along."""
    y = np.asarray(L) @ p.four_vector
    return FourMomentum(y[:3], float(y[3]), p.m)


def standard_boost(p: FourMomentum) -> np.ndarray:
    """The pure boost L(p) taking the rest momentum (0, 0, 0, m) to p.

    A boost along p/|p| with cosh(delta) = E/m; the identity for a particle
    at rest.  Built directly from the exact pair (cosh, sinh) =
    (E/m, |p|/m), avoiding the ill-conditioned beta -> rapidity roundtrip
    at high gamma.
    """
    return _standard_boost4(p.p, p.E, p.m)


def minkowski_defect(L: np.ndarray) -> float:
    """Max elementwise violation of L^T eta L = eta."""
    L = np.asarray(L)
    return float(np.max(np.abs(L.T @ ETA @ L - ETA)))
