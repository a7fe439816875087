"""Four-momentum algebra and 4x4 Lorentz boosts.

Index convention: four-vectors are ordered (x, y, z, t), so the metric is
eta = diag(+1, +1, +1, -1) and the time component sits at index 3.  Natural
units c = 1 throughout; masses default to 1 and energies are most easily
supplied as E/m ratios.

Speeds are restricted to beta < 1 on every matrix-building path, because
cosh(alpha) diverges at the light cone; the ultra-relativistic limit is
available only through the closed-form expressions in
:mod:`relbell.observables`.

``FourMomentum._rows`` and ``BoostSpec._rows`` hold n momenta or boosts
for the array routes.  ``pure_boost4``, ``boost_matrix``,
``standard_boost``, ``apply_boost``, ``minkowski_defect`` and
``FourMomentum.from_spatial`` take them with one numpy body each (a single
boost or momentum is every row's), and every row equals the scalar call bit
for bit: numpy's elementwise loops round an element the same whatever the
array's length or stride, as ``tests/test_linalg.py`` pins.

``BoostSpec`` carries gamma and gamma*beta (cosh and sinh of the rapidity)
from construction on, and the pair kernel reads only those two: it uses
only + - * / and sqrt, which round correctly on floats and on arrays alike,
so its rows equal its scalar calls by construction.  The 4x4 oracle route
``boost_matrix`` stays on the rapidity, through numpy's cosh and sinh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from relbell.linalg import _rowdot

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


def _unit_rows(v, name: str = "direction") -> np.ndarray:
    """``unit3`` for one 3-vector, or for each row of an (n, 3) stack at once; NaN fails."""
    v = np.array(v, dtype=float, order="C")
    if v.ndim == 1:
        return unit3(v, name)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"{name} must be a 3-vector or an (n, 3) stack, got shape {v.shape}")
    if not (np.abs(np.sqrt(_rowdot(v, v)) - 1.0) <= _UNIT_TOL).all():
        raise ValueError(f"every {name} must be a finite unit vector")
    v.setflags(write=False)
    return v


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given.

    Skips ``__post_init__``: for values that are valid by construction, and
    for the n-row inputs of the pair kernel, whose builders check every row
    once over the arrays.
    """
    obj = cls.__new__(cls)
    obj.__dict__.update(fields)  # what object.__setattr__ does field by field, in one call
    return obj


def _rapidity(p_mag: float, E: float, m: float) -> float:
    """delta with cosh(delta) = E/m; from |p| below |p| = m, where E/m - 1 loses digits."""
    return math.asinh(p_mag / m) if p_mag < m else math.acosh(E / m)


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
        """Momentum from its spatial part, energy fixed by the mass shell.

        An (n, 3) stack of spatial parts gives ``_rows``, row i equal to the
        call for p[i] (``m`` one float or n masses).
        """
        p = np.asarray(p, dtype=float)
        if p.ndim == 2:
            return cls._rows(p, np.sqrt(m * m + _rowdot(p, p)), m)
        return cls(p, math.sqrt(m * m + float(p @ p)), m)

    @classmethod
    def along_z(cls, e_over_m: float, m: float = 1.0) -> "FourMomentum":
        """Momentum of magnitude m*sqrt((E/m)^2 - 1) along +z."""
        if e_over_m < 1.0:
            raise ValueError(f"E/m must be >= 1, got {e_over_m}")
        # (r - 1)(r + 1) with r = E/m: r*r - 1 loses digits as r -> 1
        pz = m * math.sqrt((e_over_m - 1.0) * (e_over_m + 1.0))
        return cls(np.array([0.0, 0.0, pz]), m * e_over_m, m)

    @property
    def four_vector(self) -> np.ndarray:
        """(px, py, pz, E) in the package's (x, y, z, t) layout; (n, 4) for ``_rows``."""
        return np.concatenate((self.p, np.expand_dims(self.E, -1)), axis=-1)

    @property
    def p_mag(self) -> float:
        return math.sqrt(self.p.dot(self.p))

    @property
    def gamma(self) -> float:
        return self.E / self.m

    @property
    def rapidity(self) -> float:
        """delta with cosh(delta) = E/m; from |p| below |p| = m, where E/m - 1 loses digits."""
        return _rapidity(self.p_mag, self.E, self.m)

    def direction(self) -> np.ndarray:
        """Unit vector along p; raises for a particle at rest."""
        n = self.p_mag
        if n == 0.0:
            raise ValueError("direction undefined for a particle at rest")
        return self.p / n

    def parity(self) -> "FourMomentum":
        """Spatially flipped momentum (-p, E, m).

        The flip is exact (same E and m, same |p|^2), so it keeps this
        momentum's checks instead of running them again; it also flips every
        row of ``FourMomentum._rows``.
        """
        p = -self.p
        p.setflags(write=False)
        return _unchecked(FourMomentum, p=p, E=self.E, m=self.m)

    @classmethod
    def _rows(cls, p, E, m=1.0) -> "FourMomentum":
        """n momenta for the pair kernel: row i is (p[i], E[i], m[i]).

        ``p`` is an (n, 3) stack, ``E`` holds n energies and ``m`` n masses or
        one float for all.  The constructor's checks run once over the arrays (NaN
        fails them), and every row equals ``FourMomentum(p[i], E[i], m[i])``.
        """
        p = np.array(p, dtype=float, order="C")
        E = np.array(E, dtype=float)
        m = np.full(E.shape, m) if isinstance(m, float) else np.array(m, dtype=float)
        if E.ndim != 1 or p.shape != E.shape + (3,) or m.shape != E.shape:
            raise ValueError("momentum rows must be (n, 3) with n energies and masses, "
                             f"got {p.shape}, {E.shape}, {m.shape}")
        e2 = E * E
        defect = np.abs(e2 - _rowdot(p, p) - m * m)
        if not ((m > 0.0) & (E >= m * (1.0 - 1e-12))
                & (defect <= MASS_SHELL_RTOL * np.maximum(e2, 1.0))).all():
            raise ValueError("every momentum row must be finite and on shell with E >= m > 0")
        for a in (p, E, m):
            a.setflags(write=False)
        return _unchecked(cls, p=p, E=E, m=m)

    def _row(self, k: int) -> "FourMomentum":
        """Row ``k`` of a ``_rows`` batch as the scalar momentum; a scalar momentum is every row."""
        if self.p.ndim == 1:
            return self
        return _unchecked(FourMomentum, p=self.p[k], E=float(self.E[k]), m=float(self.m[k]))


@dataclass(frozen=True)
class BoostSpec:
    """A pure boost: unit direction ``e`` and speed ``beta`` in [0, 1).

    The rapidity ``alpha``, ``gamma`` = cosh alpha and ``gamma_beta`` =
    sinh alpha are derived at construction.  Inverse boosts are represented
    with the flipped direction rather than a negative rapidity, so every
    BoostSpec keeps beta >= 0.
    """

    e: np.ndarray
    beta: float
    alpha: float = field(init=False)
    gamma: float = field(init=False)
    gamma_beta: float = field(init=False)

    def __post_init__(self):
        e = unit3(self.e, "boost direction")
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "beta", float(self.beta))
        gamma = 1.0 / math.sqrt((1.0 - self.beta) * (1.0 + self.beta))
        object.__setattr__(self, "alpha", math.atanh(self.beta))
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "gamma_beta", gamma * self.beta)

    @classmethod
    def from_rapidity(cls, e, alpha: float) -> "BoostSpec":
        """Boost with signed rapidity, kept exactly; a negative alpha flips the direction."""
        e = unit3(e, "boost direction")
        if alpha < 0.0:
            e, alpha = -e, -alpha
        b = cls(e, math.tanh(alpha))
        object.__setattr__(b, "alpha", float(alpha))  # atanh(tanh(alpha)) loses digits
        object.__setattr__(b, "gamma", math.cosh(alpha))
        object.__setattr__(b, "gamma_beta", math.sinh(alpha))
        return b

    @classmethod
    def _rows(cls, e, beta=None, alpha=None) -> "BoostSpec":
        """n boosts for the pair kernel, row i along e[i] of an (n, 3) stack or all along one e.

        Give the n speeds ``beta`` in [0, 1), as the constructor takes them, or
        the n rapidities ``alpha`` >= 0, kept exactly as ``from_rapidity``
        keeps them.  ``beta``, ``alpha``, ``gamma`` and ``gamma_beta`` are
        then 1-D arrays whose elements equal the scalar constructors' bit for
        bit (atanh, tanh, cosh and sinh from ``math`` per element); the checks
        run once over the arrays, and NaN fails them.
        """
        e = _unit_rows(e, "boost direction")
        if alpha is None:
            beta = np.array(beta, dtype=float)
        else:
            alpha = np.array(alpha, dtype=float)
            if alpha.ndim != 1 or not (alpha >= 0.0).all():
                raise ValueError(f"rapidities must form a 1-D array >= 0, got {alpha!r}")
            beta = np.array([math.tanh(x) for x in alpha.tolist()])
        if beta.ndim != 1 or not ((0.0 <= beta) & (beta < 1.0)).all():
            raise ValueError(f"speeds must form a 1-D array in [0, 1), got {beta!r}")
        if e.ndim == 2 and len(e) != len(beta):
            raise ValueError(f"{len(e)} boost directions for {len(beta)} speeds")
        if alpha is None:
            alpha = np.array([math.atanh(x) for x in beta.tolist()])
            gamma = 1.0 / np.sqrt((1.0 - beta) * (1.0 + beta))
            gamma_beta = gamma * beta
        else:
            gamma = np.array([math.cosh(x) for x in alpha.tolist()])
            gamma_beta = np.array([math.sinh(x) for x in alpha.tolist()])
        return _unchecked(cls, e=e, beta=beta, alpha=alpha, gamma=gamma, gamma_beta=gamma_beta)

    @classmethod
    def _grid(cls, e, betas) -> "BoostSpec":
        """``_rows`` along one ``e`` at every speed of the 1-D ``betas``, each in (0, 1).

        This is ``chsh-scan``'s grid.  A zero boost is the identity, which the
        scan keeps as is.
        """
        betas = np.array(betas, dtype=float)
        if betas.ndim != 1 or not ((0.0 < betas) & (betas < 1.0)).all():  # NaN fails too
            raise ValueError(f"grid speeds must form a 1-D array in (0, 1), got {betas!r}")
        return cls._rows(e, beta=betas)

    def inverse(self) -> "BoostSpec":
        """The boost undoing this one (same speed, opposite direction)."""
        return BoostSpec(-self.e, self.beta)


def pure_boost4(e: np.ndarray, ch, sh) -> np.ndarray:
    """Pure-boost matrix from a unit direction and cosh/sinh rapidity.

    Works for any float dtype of ``e``; no validation, intended for callers
    that already hold exact hyperbolic values.  n rows (an (n, 3) stack
    ``e`` or 1-D arrays ``ch`` and ``sh``; a single one is shared by every
    row) give the (n, 4, 4) stack, each matrix equal to its row's call.
    """
    ch, sh = np.asarray(ch), np.asarray(sh)
    shape = np.broadcast_shapes(e.shape[:-1], ch.shape) + (4, 4)
    L = np.broadcast_to(np.eye(4, dtype=e.dtype), shape).copy()
    L[..., :3, :3] += e[..., :, None] * e[..., None, :] * (ch - 1.0)[..., None, None]  # outer(e, e)
    L[..., :3, 3] = L[..., 3, :3] = e * sh[..., None]
    L[..., 3, 3] = ch
    return L


def _standard_boost4(p3: np.ndarray, energy, m) -> np.ndarray:
    """L(p) from four-momentum components in the float dtype of ``p3``, or from n rows of them.

    cosh(delta) = E/m and sinh(delta) = |p|/m exactly; the identity at rest.
    """
    pn = np.sqrt(_rowdot(p3, p3))
    rest = pn == 0.0
    L = pure_boost4(p3 / np.where(rest, 1.0, pn)[..., None], energy / m, pn / m)
    return np.where(rest[..., None, None], np.eye(4, dtype=p3.dtype), L)


def boost_matrix(b: BoostSpec) -> np.ndarray:
    """4x4 boost: Lambda_ij = delta_ij + e_i e_j (cosh a - 1), Lambda_i3 = e_i sinh a.

    The result is symmetric and Minkowski-orthogonal (Lambda^T eta Lambda = eta).
    ``BoostSpec._rows`` gives the (n, 4, 4) stack.
    """
    return pure_boost4(b.e.astype(float), np.cosh(b.alpha), np.sinh(b.alpha))


def apply_boost(L: np.ndarray, p: FourMomentum) -> FourMomentum:
    """Apply a 4x4 Lorentz matrix to a four-momentum; the mass rides along.

    An (n, 4, 4) stack or ``FourMomentum._rows`` gives n momenta as
    ``FourMomentum._rows``, whose checks cover every row.
    """
    y = (np.asarray(L) @ p.four_vector[..., None])[..., 0]
    if y.ndim == 2:
        return FourMomentum._rows(y[:, :3], y[:, 3], p.m)
    return FourMomentum(y[:3], float(y[3]), p.m)


def standard_boost(p: FourMomentum) -> np.ndarray:
    """The pure boost L(p) taking the rest momentum (0, 0, 0, m) to p.

    A boost along p/|p| with cosh(delta) = E/m; the identity for a particle
    at rest.  Built directly from the exact pair (cosh, sinh) =
    (E/m, |p|/m), avoiding the ill-conditioned beta -> rapidity roundtrip
    at high gamma.  ``FourMomentum._rows`` gives the (n, 4, 4) stack.
    """
    return _standard_boost4(p.p, p.E, p.m)


def minkowski_defect(L: np.ndarray):
    """Max elementwise violation of L^T eta L = eta; a 1-D array of them for an (n, 4, 4) stack."""
    L = np.asarray(L)
    defect = np.abs(L.swapaxes(-1, -2) @ ETA @ L - ETA).max(axis=(-2, -1))
    return float(defect) if defect.ndim == 0 else defect
