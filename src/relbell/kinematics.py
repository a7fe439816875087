"""Four-momentum algebra and 4x4 Lorentz boosts.

Index convention: four-vectors are ordered (x, y, z, t), so the metric is
eta = diag(+1, +1, +1, -1) and the time component sits at index 3.  Natural
units c = 1 throughout; masses default to 1 and energies are most easily
supplied as E/m ratios.

Speeds are restricted to beta < 1 on every matrix-building path, because
cosh(alpha) diverges at the light cone; the ultra-relativistic limit is
available through ``wigner_angle`` and the closed forms of
:mod:`relbell.observables`, which take beta in [0, 1] (``_check_beta``).

Each value type writes its checks once (``_unit_rows``, ``_on_shell``,
``_boost_fields``), for one value's floats or n rows' 1-D arrays, and its
constructor takes either: ``FourMomentum`` an (n, 3) stack with n energies,
``BoostSpec`` n speeds (``from_rapidity`` n rapidities) with one direction
or an (n, 3) stack.  Row k passes exactly when the one-value call on row k
does, with the same bits.  Constructors are written out, not generated
(fields, repr and ``replace`` stay the dataclass's), and copy array input
once through ``_real``, which refuses complex values.  ``BoostSpec`` carries
gamma and gamma*beta, all the pair kernel reads.  The 4x4 oracle routes
(``pure_boost4``, ``boost_matrix`` on the rapidity, ``standard_boost``,
``apply_boost``, ``minkowski_defect``) take the same rows with one numpy
body each, which numpy rounds row by row as it rounds one value
(``tests/test_linalg.py`` pins this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from relbell.linalg import _check, _check_values, _components, _each, _holds, _rowdot, _sqrt_for

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


class EnergyOverflowError(ValueError):
    """A finite input whose energy, or energy squared, exceeds the float64 range.

    A ``ValueError`` about the input values, as the other domain checks
    are, kept apart from the checks of a result's own invariants: the CLI
    reports it as a usage error.
    """


def unit3(v, name: str = "direction") -> np.ndarray:
    """Validate and return a unit 3-vector (read-only copy)."""
    return _unit_rows(v, name, 1)


def _real(v, name: str) -> np.ndarray:
    """``v`` as a new C-ordered float array; complex values raise, not lose their imaginary part."""
    v = np.array(v, order="C")
    if v.dtype.char != "d":
        if v.dtype.kind == "c":
            raise ValueError(f"{name} must be real, got {v.dtype} values")
        v = v.astype(float)
    return v


def _unit_rows(v, name: str = "direction", max_ndim: int = 2) -> np.ndarray:
    """``unit3`` for one 3-vector, or for each row of an (n, 3) stack at once; a read-only copy.

    ``max_ndim`` 1 admits the one vector only.  One body for both that
    dispatches inline, as ``_components``, ``_sqrt_for`` and ``_holds`` would:
    one vector, every constructor's common case, is checked on floats with
    no helper call per step.  NaN and inf fail the norm test; the reported
    norm is np.linalg.norm's.
    """
    v = _real(v, name)
    one = v.shape == (3,)
    if not one and (v.shape[-1:] != (3,) or v.ndim > max_ndim):
        kinds = "a 3-vector" if max_ndim == 1 else "a 3-vector or an (n, 3) stack"
        raise ValueError(f"{name} must be {kinds}, got shape {v.shape}")
    x, y, z = v.tolist() if one else v.T
    ok = abs((math.sqrt if one else np.sqrt)(x * x + y * y + z * z) - 1.0) <= _UNIT_TOL
    if not (ok if one else ok.all()):
        _check(np.isfinite(v), ValueError, f"{name} must be finite")
        _check_values(ok, ValueError, name + " must be a unit vector (|v| = {norm!r})",
                      norm=np.sqrt(_rowdot(v, v)).tolist())
    v.setflags(False)  # write=False by position: numpy parses a keyword slower than it flips it
    return v


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given.

    Skips the constructor's checks: for values valid by construction, and for
    n rows, which their builders check once over the arrays.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)  # what object.__setattr__ does field by field, in one call
    return obj


def _on_shell(p, E, m, quiet: bool = False) -> None:
    """``FourMomentum``'s checks on the floats of one momentum or the 1-D arrays of n rows.

    ``p`` is the spatial part's three components.  The pair kernel runs
    these checks on the momenta it maps.  Rows run again under ``quiet``,
    numpy's overflow and invalid warnings off, so that a square past the
    float range (and inf - inf after it) is as silent as on floats: the
    checks name it.
    """
    if E.__class__ is np.ndarray and not quiet:
        with np.errstate(invalid="ignore", over="ignore"):
            return _on_shell(p, E, m, True)
    p0, p1, p2 = p
    positive, above = m > 0.0, E >= m * (1.0 - 1e-12)
    e2 = E * E
    defect = abs(e2 - (p0 * p0 + p1 * p1 + p2 * p2) - m * m)
    # defect <= RTOL max(E^2, 1) with E^2 finite, without a max that floats and
    # arrays spell differently; NaN or inf anywhere fails one of the three tests
    on_shell = (e2 < math.inf) & ((defect <= MASS_SHELL_RTOL * e2) | (defect <= MASS_SHELL_RTOL))
    if not _holds(positive & above & on_shell):
        _check(np.isfinite(np.broadcast_arrays(p0, p1, p2, E, m)), ValueError,
               "four-momentum components must be finite")
        for ok, error, message in (
                (positive, ValueError, "mass must be positive, got {m}"),
                (above, ValueError, "energy {E} below rest mass {m}"),
                (e2 < math.inf, EnergyOverflowError,
                 "energy overflows: E^2 exceeds the float64 range for E={E}"),
                (on_shell, ValueError, "off mass shell: E^2 - |p|^2 - m^2 = {defect:.3e} "
                                       "for E={E}, m={m}")):
            _check_values(ok, error, message, E=E, m=m, defect=defect)


@dataclass(frozen=True)
class FourMomentum:
    """On-shell four-momentum of a massive particle.

    Fields are the spatial momentum ``p`` (3-vector), the energy ``E`` and
    the rest mass ``m``, with E >= m > 0 and E^2 - |p|^2 = m^2 enforced at
    construction.  An (n, 3) ``p`` with n energies (one mass or n) is n
    momenta, each row checked as its own call would be.
    """

    p: np.ndarray
    E: float
    m: float = 1.0

    def __init__(self, p: np.ndarray, E: float, m: float = 1.0) -> None:
        p = _real(p, "momentum")
        if p.ndim == 2:  # n rows: n energies, and n masses or one for all
            E = _real(E, "energy")
            m = np.full(E.shape, m, dtype=float) if np.ndim(m) == 0 else _real(m, "mass")
            if E.ndim != 1 or p.shape != E.shape + (3,) or m.shape != E.shape:
                raise ValueError("momentum rows must be (n, 3) with n energies and masses, "
                                 f"got {p.shape}, {E.shape}, {m.shape}")
            _on_shell(_components(p), E, m)
            E.setflags(False)
            m.setflags(False)
        elif p.shape != (3,):
            raise ValueError(f"momentum must be a 3-vector, got shape {p.shape}")
        else:
            E, m = float(E), float(m)
            _on_shell(p.tolist(), E, m)
        p.setflags(False)
        self.__dict__.update(p=p, E=E, m=m)  # object.__setattr__ field by field, in one call

    @classmethod
    def rest(cls, m: float = 1.0) -> "FourMomentum":
        return cls(np.zeros(3), m, m)

    @classmethod
    def from_spatial(cls, p, m: float = 1.0) -> "FourMomentum":
        """Momentum from its spatial part, energy fixed by the mass shell.

        An (n, 3) stack of spatial parts gives n rows, row i equal to the
        call for p[i] (``m`` one float or n masses).
        """
        p = _real(p, "momentum")
        if p.shape == (3,):
            if m.__class__ is not float and np.ndim(m) != 0:
                raise ValueError(f"one momentum of shape {p.shape} takes one mass, "
                                 f"got masses of shape {np.shape(m)}")
            x = p.tolist()
            if max(abs(m), *map(abs, x)) < 1e150:  # no square overflows
                # the constructor's checks on the one copy; p.dot(p) rounds as _rowdot's row
                E, m = math.sqrt(m * m + p.dot(p)), float(m)
                _on_shell(x, E, m)
                p.setflags(False)
                return _unchecked(cls, p=p, E=E, m=m)
        m = m if np.ndim(m) == 0 else _real(m, "mass")  # n masses: a list too
        with np.errstate(over="ignore"):  # n rows, or an E past the float range: named, not warned
            E = np.sqrt(m * m + _rowdot(p, p)[()])
        # a NaN input fails E < inf too, and the constructor names it
        if not _holds(E < math.inf) and np.isfinite(p).all() and np.isfinite(m).all():
            raise EnergyOverflowError("energy overflows: m^2 + |p|^2 exceeds the float64 range")
        return cls(p, E, m)

    @classmethod
    def along_z(cls, e_over_m: float, m: float = 1.0) -> "FourMomentum":
        """Momentum of magnitude m*sqrt((E/m)^2 - 1) along +z."""
        if e_over_m < 1.0:
            raise ValueError(f"E/m must be >= 1, got {e_over_m}")
        # (r - 1)(r + 1) with r = E/m: r*r - 1 loses digits as r -> 1
        r2 = (e_over_m - 1.0) * (e_over_m + 1.0)
        if r2 == math.inf and e_over_m < math.inf:  # named here, not as an infinite pz
            raise EnergyOverflowError(
                f"energy overflows: (E/m)^2 exceeds the float64 range for E/m={e_over_m}")
        return cls(np.array([0.0, 0.0, m * math.sqrt(r2)]), m * e_over_m, m)

    @property
    def four_vector(self) -> np.ndarray:
        """(px, py, pz, E) in the package's (x, y, z, t) layout; (n, 4) for n rows."""
        return np.concatenate((self.p, np.expand_dims(self.E, -1)), axis=-1)

    @property
    def p_mag(self) -> float:
        """|p|; a 1-D array of n values for n rows."""
        p = self.p
        return math.sqrt(p.dot(p)) if p.ndim == 1 else np.sqrt(_rowdot(p, p))

    @property
    def gamma(self) -> float:
        return self.E / self.m

    @property
    def rapidity(self) -> float:
        """delta with cosh(delta) = E/m; from |p| below |p| = m, where E/m - 1 loses digits."""
        if self.p.ndim == 2:
            return np.array([self.row(k).rapidity for k in range(len(self.p))])
        p_mag = self.p_mag
        return math.asinh(p_mag / self.m) if p_mag < self.m else math.acosh(self.E / self.m)

    def direction(self) -> np.ndarray:
        """Unit vector along p, of every row too; raises for a particle at rest."""
        n = self.p_mag
        if not _holds(n != 0.0):
            raise ValueError("direction undefined for a particle at rest")
        return self.p / (n if self.p.ndim == 1 else n[:, None])

    def parity(self) -> "FourMomentum":
        """Spatially flipped momentum (-p, E, m), of every row too; exact, so not checked again."""
        p = -self.p
        p.setflags(False)
        return _unchecked(FourMomentum, p=p, E=self.E, m=self.m)

    def row(self, k: int) -> "FourMomentum":
        """Row ``k`` of n rows as the one-value momentum; one momentum is every row."""
        if self.p.ndim == 1:
            return self
        return _unchecked(FourMomentum, p=self.p[k], E=float(self.E[k]), m=float(self.m[k]))


@dataclass(frozen=True)
class BoostSpec:
    """A pure boost: unit direction ``e`` and speed ``beta`` in [0, 1).

    The rapidity ``alpha``, ``gamma`` = cosh alpha and ``gamma_beta`` =
    sinh alpha are derived at construction.  Inverse boosts are represented
    with the flipped direction rather than a negative rapidity, so every
    BoostSpec keeps beta >= 0.  n speeds, along one direction or an (n, 3)
    stack, are n boosts with 1-D fields.
    """

    e: np.ndarray
    beta: float
    alpha: float = field(init=False)
    gamma: float = field(init=False)
    gamma_beta: float = field(init=False)

    def __init__(self, e: np.ndarray, beta: float) -> None:
        if beta.__class__ is float or np.ndim(beta) == 0:
            e, beta = unit3(e, "boost direction"), float(beta)
        else:
            e, beta = _boost_rows(e, beta)
        self.__dict__.update(e=e, **_boost_fields(beta, False))

    @classmethod
    def from_rapidity(cls, e, alpha: float) -> "BoostSpec":
        """Boost with signed rapidity, kept exactly; a negative alpha flips its row's direction."""
        if alpha.__class__ is float or np.ndim(alpha) == 0:
            alpha = float(alpha)
            if alpha < 0.0:
                e, alpha = np.negative(e), -alpha
            e = unit3(e, "boost direction")
        else:
            e, alpha = _boost_rows(e, alpha)
            flip = alpha < 0.0
            e, alpha = np.where(flip[:, None], -e, e), np.where(flip, -alpha, alpha)
            e.setflags(write=False)
        return _unchecked(cls, e=e, **_boost_fields(alpha, True))

    def inverse(self) -> "BoostSpec":
        """The boost undoing this one: the same speed and rapidity, kept exactly, along -e."""
        e = -self.e
        e.setflags(write=False)
        return _unchecked(BoostSpec, **{**self.__dict__, "e": e})


def _boost_rows(e, x) -> tuple:
    """``BoostSpec``'s row shapes: n speeds or rapidities ``x``, one direction ``e`` or n."""
    e = _unit_rows(e, "boost direction")
    x = np.array(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"boost rows take a 1-D array of speeds or rapidities, got {x!r}")
    if e.ndim == 2 and len(e) != len(x):
        raise ValueError(f"{len(e)} boost directions for {len(x)} speeds")
    return e, x


def _check_speed(beta) -> None:
    """``BoostSpec``'s speed check, beta in [0, 1), on a float or on n rows; NaN fails."""
    ok = (0.0 <= beta) & (beta < 1.0)
    if not _holds(ok):
        _check(np.isfinite(beta), ValueError, "beta must be finite")
        _check_values(ok, ValueError, "beta must lie in [0, 1), got {beta}", beta=beta)


def _check_beta(beta) -> None:
    """The closed forms' speed check, beta in [0, 1], on a float or on n rows; NaN fails."""
    ok = (0.0 <= beta) & (beta <= 1.0)
    if not _holds(ok):
        _check_values(ok, ValueError, "beta must lie in [0, 1], got {beta}", beta=beta)


def _boost_fields(x, rapidity: bool) -> dict:
    """``BoostSpec``'s checks and fields from a speed ``x`` or a rapidity ``x``, kept exactly.

    ``x`` is a float or a 1-D array of n rows.  ``math``'s tanh, cosh and
    sinh of a rapidity, or its atanh of a speed with gamma = 1/sqrt((1 -
    beta)(1 + beta)), run element by element on rows.
    """
    beta = _each(math.tanh, x) if rapidity else x
    if not (beta.__class__ is float and 0.0 <= beta < 1.0):  # rows, and a float out of range
        _check_speed(beta)
    if rapidity:
        return {"beta": beta, "alpha": x, "gamma": _each(math.cosh, x),
                "gamma_beta": _each(math.sinh, x)}
    gamma = 1.0 / _sqrt_for(beta)((1.0 - beta) * (1.0 + beta))
    return {"beta": beta, "alpha": _each(math.atanh, beta), "gamma": gamma,
            "gamma_beta": gamma * beta}


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
    n boosts give the (n, 4, 4) stack.
    """
    return pure_boost4(b.e.astype(float), np.cosh(b.alpha), np.sinh(b.alpha))


def apply_boost(L: np.ndarray, p: FourMomentum) -> FourMomentum:
    """Apply a 4x4 Lorentz matrix to a four-momentum; the mass rides along.

    An (n, 4, 4) stack or n momenta give the n momenta, whose checks cover
    every row.
    """
    y = (np.asarray(L) @ p.four_vector[..., None])[..., 0]
    return FourMomentum(y[..., :3], y[..., 3], p.m)


def standard_boost(p: FourMomentum) -> np.ndarray:
    """The pure boost L(p) taking the rest momentum (0, 0, 0, m) to p.

    A boost along p/|p| with cosh(delta) = E/m; the identity for a particle
    at rest.  Built directly from the exact pair (cosh, sinh) =
    (E/m, |p|/m), avoiding the ill-conditioned beta -> rapidity roundtrip
    at high gamma.  n momenta give the (n, 4, 4) stack.
    """
    return _standard_boost4(p.p, p.E, p.m)


def minkowski_defect(L: np.ndarray):
    """Max elementwise violation of L^T eta L = eta; a 1-D array of them for an (n, 4, 4) stack."""
    L = np.asarray(L)
    defect = np.abs(L.swapaxes(-1, -2) @ ETA @ L - ETA).max(axis=(-2, -1))
    return float(defect) if defect.ndim == 0 else defect
