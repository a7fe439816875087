"""Maximum CHSH value over the four measurement directions, in closed form.

For beta < 1 the boost correction a -> D a / |D a| (D is 1 along the boost
direction e and sqrt(1-beta^2) across it) is a bijection of the unit
sphere: a unit Bloch vector u is produced by the direction
a ~ (u.e) e + u_perp / sqrt(1-beta^2), and by no other.  The best CHSH
value over all settings is therefore the best value over the effective
Bloch vectors, which for the state's correlation tensor
T_ij = <sigma_i (x) sigma_j> is 2 sqrt(s1^2 + s2^2), with s1 >= s2 the two
largest singular values of T (Horodecki, Horodecki & Horodecki,
Phys. Lett. A 200, 340 (1995)).  Every pair the library builds is pure,
and a pure pair's T has singular values (1, C, C) with C its concurrence,
so the bound is 2 sqrt(1 + C^2): ``relbell.observables.chsh_max``, which
``maximize_chsh`` reports as its value.  Its settings come from the SVD
T = U S V^T, pulled back through the boost correction.

``search_chsh`` is the derivative-free search that the closed form
replaced.  It stays as the reference the tests compare against.  The four
directions are parameterized by spherical angles (theta, phi) each, giving
a smooth unconstrained 8-dimensional objective (angles wrap, so no
unit-norm constraints are needed).  A Nelder-Mead polytope search is run
from ``restarts`` random starting points drawn from per-restart RNG streams
spawned off a master seed, the best local optimum wins (ties within ``tol``
go to the lowest restart index), and the winner gets one polishing run.
Its objective is ``chsh``'s kernel, a.T(b + b') + a'.T(b - b') with T
computed once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from relbell.bell import TwoQubitState
from relbell.kinematics import BoostSpec
from relbell.observables import (ChshSettings, _chsh_sum, _correlation_tensor,
                                  _observable_vectors, chsh_max)


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a CHSH maximization.

    ``iterations`` and ``converged`` describe the search in ``search_chsh``;
    the closed form of ``maximize_chsh`` reports 0 and True.
    """

    settings: ChshSettings
    value: float
    iterations: int
    converged: bool


def _angles_to_unit(theta: float, phi: float) -> np.ndarray:
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def _params_to_vectors(x: np.ndarray) -> list[np.ndarray]:
    return [_angles_to_unit(x[2 * k], x[2 * k + 1]) for k in range(4)]


def _pull_back(u: np.ndarray, beta: float, e: np.ndarray) -> np.ndarray:
    """The unit direction whose boost-corrected Bloch vector is the unit vector ``u``."""
    par = float(u @ e) * e
    a = par + (u - par) / math.sqrt(1.0 - beta * beta)
    return a / np.linalg.norm(a)


def maximize_chsh(
    s: TwoQubitState,
    beta: float,
    e,
    restarts: int = 32,
    tol: float = 1e-9,
    seed: int = 0,
) -> OptimizationResult:
    """Maximum CHSH value of state ``s`` over the four measurement directions.

    ``beta`` and ``e`` fix the boost correction applied to the observables
    (the state itself is taken as given; boost it first if needed).  The
    value is ``chsh_max(s)``, 2 sqrt(1 + C^2) from the pair's concurrence C,
    which no beta < 1 changes.  The settings reach it up to rounding: from
    the SVD T = U S V^T of the correlation tensor, b, b' = cos(t) v1 +- sin(t) v2
    with tan(t) = s2/s1, and a, a' along T(b + b') and T(b - b'), each pulled
    back through the boost correction.  Where s1 = s2 (C = 1, every Bell
    pair) the singular vectors are not unique and any choice is optimal.
    ``restarts``, ``tol`` and ``seed`` belong to ``search_chsh`` and are
    ignored.
    """
    if s.amps.ndim != 1 or np.ndim(beta) != 0:
        raise ValueError("maximize_chsh takes one pair at one beta, got rows")
    e = BoostSpec(e, beta).e  # the boost's checks: a unit direction, beta in [0, 1)
    u, sv, vt = np.linalg.svd(np.reshape(_correlation_tensor(s.amps), (3, 3)))
    t = math.atan2(sv[1], sv[0])
    b = math.cos(t) * vt[0] + math.sin(t) * vt[1]
    bp = math.cos(t) * vt[0] - math.sin(t) * vt[1]
    # T(b + b') = 2 cos(t) s1 u1 and T(b - b') = 2 sin(t) s2 u2.  Taking the
    # columns of U keeps a and a' unit vectors where those products vanish
    # (s2 = 0, as for product states), where any unit vector is optimal.
    a, ap = u[:, 0], u[:, 1]
    settings = ChshSettings(*(_pull_back(v, beta, e) for v in (a, ap, b, bp)))
    return OptimizationResult(settings=settings, value=chsh_max(s), iterations=0,
                              converged=True)


def search_chsh(
    s: TwoQubitState,
    beta: float,
    e,
    restarts: int = 32,
    tol: float = 1e-9,
    max_iterations: int = 2000,
    seed: int = 0,
) -> OptimizationResult:
    """Maximize the CHSH value of state ``s`` by a seeded Nelder-Mead search.

    The reference for ``maximize_chsh`` in the tests; no production path
    calls it.  ``beta`` and ``e`` are as for ``maximize_chsh``.
    ``converged`` reports whether the winning polytope collapsed below
    ``tol`` in coordinate diameter; hitting the iteration budget instead is
    reported through that flag, never as an exception.  Identical inputs and
    seed give identical results.
    """
    if s.amps.ndim != 1 or np.ndim(beta) != 0:
        raise ValueError("search_chsh takes one pair at one beta, got rows")
    e = BoostSpec(e, beta).e  # the boost's checks: a unit direction, beta in [0, 1)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    t = _correlation_tensor(s.amps)

    def neg_chsh(x: np.ndarray) -> float:
        return -_chsh_sum(t, *_observable_vectors(_params_to_vectors(x), beta, e))

    options = {
        "maxiter": max_iterations,
        "xatol": tol / 4.0,
        "fatol": tol / 4.0,
    }

    streams = np.random.SeedSequence(seed).spawn(restarts)
    best_x = None
    best_value = -math.inf
    total_iterations = 0
    for stream in streams:
        rng = np.random.default_rng(stream)
        x0 = np.empty(8)
        x0[0::2] = rng.uniform(0.0, math.pi, size=4)
        x0[1::2] = rng.uniform(0.0, 2.0 * math.pi, size=4)
        res = minimize(neg_chsh, x0, method="Nelder-Mead", options=options)
        total_iterations += int(res.nit)
        value = -float(res.fun)
        if value > best_value + tol:  # ties within tol keep the earlier restart
            best_value = value
            best_x = res.x

    polish = minimize(neg_chsh, best_x, method="Nelder-Mead", options=options)
    total_iterations += int(polish.nit)
    if -float(polish.fun) > best_value:
        best_value = -float(polish.fun)
        best_x = polish.x
    converged = float(np.ptp(polish.final_simplex[0], axis=0).max()) < tol

    a, ap, b, bp = _params_to_vectors(best_x)
    settings = ChshSettings(a=a, a_prime=ap, b=b, b_prime=bp)
    return OptimizationResult(
        settings=settings,
        value=best_value,
        iterations=total_iterations,
        converged=converged,
    )
