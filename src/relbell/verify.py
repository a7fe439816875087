"""Randomized invariant suite behind the ``verify`` command.

Each check draws its own samples from a seeded generator and yields one
(residual, describe) pair per comparison.  A single driver, ``_worst``,
keeps the first strict maximum of the residuals and calls ``describe()``
only for a new maximum, so the report names the inputs of the worst sample
without formatting every sample's.  A check passes when that residual stays
at or below its tolerance.  The checks mirror the library's contracts:
Pauli algebra, Lorentz/Minkowski identities, the little-group closed form
against its brute-force spinor and 4x4 oracles, Bell-sector behavior under
boosts, observable normalization, closed-form correlations against matrix
elements, and the Tsirelson bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from relbell.bell import TwoQubitState, bell_decompose, bell_state, boost_two_particle
from relbell.kinematics import (
    BoostSpec,
    FourMomentum,
    X_HAT,
    apply_boost,
    boost_matrix,
    minkowski_defect,
    standard_boost,
)
from relbell.linalg import IDENTITY2, dagger, exp2, max_abs_diff, sigma_dot, tensor
from relbell.observables import (
    CASE1_SETTINGS,
    CASE2_SETTINGS,
    ChshSettings,
    TSIRELSON_BOUND,
    chsh,
    chsh_case1_closed,
    chsh_universal,
    expectation_case1_closed,
    expectation_case2_closed,
    joint_expectation,
    rel_spin_observable,
)
from relbell.wigner import (
    _boost_parts,
    little_group_closed,
    little_group_lorentz,
    little_group_oracle,
    rotation_angle,
    wigner_angle,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    samples: int
    worst: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_momentum(rng, max_gamma: float) -> FourMomentum:
    r = math.exp(rng.uniform(0.0, math.log(max_gamma)))
    return FourMomentum.from_spatial(math.sqrt(r * r - 1.0) * _unit(rng))


def _random_boost(rng, beta_max: float) -> BoostSpec:
    return BoostSpec(_unit(rng), rng.uniform(0.0, beta_max))


def _momentum_and_boost(rng) -> tuple[FourMomentum, BoostSpec]:
    """A random momentum (E/m up to 1e3), then a random boost (beta up to 0.99)."""
    p = _random_momentum(rng, 1e3)
    return p, _random_boost(rng, 0.99)


def _z_momentum_x_boost(rng, e_over_m_min: float = 1.001):
    """The paper's geometry: beta in [0, 0.99), E/m log-uniform in [e_over_m_min, 1e3].

    Returns (beta, E/m, the x-boost, the z-momentum).
    """
    beta = rng.uniform(0.0, 0.99)
    r_em = math.exp(rng.uniform(math.log(e_over_m_min), math.log(1e3)))
    return beta, r_em, BoostSpec(X_HAT, beta), FourMomentum.along_z(r_em)


def _worst(name: str, tol: float, samples: int, trials) -> CheckResult:
    """Fold (residual, describe) pairs into the check's result.

    The first strict maximum wins; ``describe()`` runs only when a residual
    beats the running maximum, so inputs are formatted only for those.
    """
    worst, arg = 0.0, ""
    for r, describe in trials:
        if r > worst:
            worst, arg = r, describe()
    return CheckResult(name, worst, tol, samples, arg)


def check_pauli_algebra(rng, samples: int) -> CheckResult:
    """sigma.v is Hermitian, traceless and squares to I for unit v."""
    def trials():
        for _ in range(samples):
            v = _unit(rng)
            m = sigma_dot(v)
            r = max(
                max_abs_diff(m, dagger(m)),
                abs(m[0, 0] + m[1, 1]),
                max_abs_diff(m @ m, IDENTITY2),
            )
            yield r, lambda: f"v={v.tolist()}"
    return _worst("pauli_algebra", 1e-14, samples, trials())


def check_tensor_product(rng, samples: int) -> CheckResult:
    """tensor(a,b) tensor(c,d) = tensor(ac, bd) and bilinearity."""
    def trials():
        for k in range(samples):
            a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
            r = max_abs_diff(tensor(a, b) @ tensor(c, d), tensor(a @ c, b @ d))
            r = max(r, max_abs_diff(tensor(a + c, b), tensor(a, b) + tensor(c, b)))
            yield r, lambda: f"sample {k}"
    return _worst("tensor_product", 1e-13, samples, trials())


def check_matrix_exponential(rng, samples: int) -> CheckResult:
    """exp2(m) exp2(-m) = I and exp2 agrees with scipy's expm."""
    def trials():
        for k in range(samples):
            m = rng.uniform(-2, 2, size=(2, 2)) + 1j * rng.uniform(-2, 2, size=(2, 2))
            r = max_abs_diff(exp2(m) @ exp2(-m), IDENTITY2)
            r = max(r, max_abs_diff(exp2(m), scipy.linalg.expm(m)) / 10.0)
            yield r, lambda: f"sample {k}"
    return _worst("matrix_exponential", 1e-12, samples, trials())


def check_minkowski_orthogonality(rng, samples: int) -> CheckResult:
    """Lambda^T eta Lambda = eta for random boosts up to beta = 0.999."""
    def trials():
        for _ in range(samples):
            b = _random_boost(rng, 0.999)
            yield minkowski_defect(boost_matrix(b)), lambda: f"beta={b.beta}, e={b.e.tolist()}"
    return _worst("minkowski_orthogonality", 1e-10, samples, trials())


def check_mass_shell(rng, samples: int) -> CheckResult:
    """Boosts preserve E^2 - |p|^2 = m^2 to relative 1e-9 (E/m up to 1e4)."""
    def trials():
        for _ in range(samples):
            p = _random_momentum(rng, 1e4)
            b = _random_boost(rng, 0.999)
            q = apply_boost(boost_matrix(b), p)
            r = abs(q.E**2 - q.p_mag**2 - q.m**2) / max(q.E**2, 1.0)
            yield r, lambda: f"beta={b.beta}, E/m={p.gamma}"
    return _worst("mass_shell_preservation", 1e-9, samples, trials())


def check_boost_inverse(rng, samples: int) -> CheckResult:
    """boost_matrix(b) boost_matrix(b.inverse()) = identity."""
    def trials():
        for _ in range(samples):
            b = _random_boost(rng, 0.999)
            r = max_abs_diff(boost_matrix(b) @ boost_matrix(b.inverse()), np.eye(4))
            yield r, lambda: f"beta={b.beta}, e={b.e.tolist()}"
    return _worst("boost_inverse", 1e-10, samples, trials())


def check_standard_boost(rng, samples: int) -> CheckResult:
    """L(p) maps the rest momentum to p; the little group fixes it."""
    def trials():
        for _ in range(samples):
            p, b = _momentum_and_boost(rng)
            mapped = apply_boost(standard_boost(p), FourMomentum.rest(p.m)).four_vector
            r = float(np.max(np.abs(mapped - p.four_vector))) / max(p.E, 1.0)
            r = max(r, abs(little_group_lorentz(b, p)[3, 3] - 1.0))
            yield r, lambda: f"E/m={p.gamma}, beta={b.beta}"
    return _worst("standard_boost", 1e-9, samples, trials())


def check_little_group_unitarity(rng, samples: int) -> CheckResult:
    """Little-group outputs are unitary with unit determinant (1e-12)."""
    def trials():
        for _ in range(samples):
            p, b = _momentum_and_boost(rng)
            u = little_group_closed(b, p).su2
            det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
            r = max(max_abs_diff(dagger(u) @ u, IDENTITY2), abs(det - 1.0))
            yield r, lambda: f"beta={b.beta}, E/m={p.gamma}"
    return _worst("little_group_unitarity", 1e-12, samples, trials())


def check_oracle_equivalence(rng, samples: int) -> CheckResult:
    """Closed-form little group equals the three-factor spinor product."""
    def trials():
        for _ in range(samples):
            p, b = _momentum_and_boost(rng)
            r = max_abs_diff(little_group_closed(b, p).su2, little_group_oracle(b, p))
            yield r, lambda: f"beta={b.beta}, e={b.e.tolist()}, p={p.p.tolist()}"
    return _worst("oracle_equivalence", 1e-10, samples, trials())


def check_angle_axis_consistency(rng, samples: int) -> CheckResult:
    """cos^2(O/2) + |sin(O/2) n|^2 = 1 for the closed-form quaternion.

    Both parts come from one set of hyperbolic terms, divided by the same K,
    so this checks that K^2 = (1 + E'/m)/2 normalises them.
    """
    def trials():
        for _ in range(samples):
            p, b = _momentum_and_boost(rng)
            ch, sv = _boost_parts(b, p)[:2]
            yield abs(ch * ch + float(sv @ sv) - 1.0), lambda: f"beta={b.beta}, E/m={p.gamma}"
    return _worst("angle_axis_consistency", 1e-12, samples, trials())


def check_lorentz_spinor_angle(rng, samples: int) -> CheckResult:
    """Rotation angle of the 4x4 composition matches the spinor closed form."""
    def trials():
        for _ in range(samples):
            p, b = _momentum_and_boost(rng)
            r = abs(rotation_angle(little_group_lorentz(b, p)) - little_group_closed(b, p).omega)
            yield r, lambda: f"beta={b.beta}, E/m={p.gamma}"
        # special geometry against the two-parameter angle formula
        for beta in np.linspace(0.05, 0.99, 20):
            for r_em in (10.0, 100.0, 1000.0):
                b = BoostSpec(X_HAT, float(beta))
                p = FourMomentum.along_z(r_em)
                omega = rotation_angle(little_group_lorentz(b, p))
                yield abs(omega - wigner_angle(float(beta), r_em)), \
                    lambda: f"special beta={beta}, E/m={r_em}"
    return _worst("lorentz_spinor_angle", 1e-9, samples, trials())


def check_wigner_monotonicity(rng, samples: int) -> CheckResult:
    """Omega strictly increases in beta (and in E/m) on the reference grids."""
    betas = np.linspace(0.01, 0.99, 99)

    def trials():
        for r_em in (10.0, 100.0, 1000.0):
            om = [wigner_angle(float(b), r_em) for b in betas]
            yield float(np.max(-np.diff(om))), lambda: f"E/m={r_em} beta grid"
        for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
            om = [wigner_angle(beta, r_em) for r_em in (10.0, 100.0, 1000.0)]
            yield float(np.max(-np.diff(om))), lambda: f"beta={beta} E/m grid"
    return _worst("wigner_monotonicity", 0.0, len(betas), trials())


def _random_state(rng) -> TwoQubitState:
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    return TwoQubitState(amps=amps, kin_factor=1.0, p_label=FourMomentum.along_z(2.0))


def check_bell_norms(rng, samples: int) -> CheckResult:
    """Boosting preserves the unit norm of the spin sector."""
    def trials():
        for _ in range(samples):
            s = _random_state(rng)
            b = _random_boost(rng, 0.99)
            out = boost_two_particle(s, b)
            yield abs(float(np.vdot(out.amps, out.amps).real) - 1.0), lambda: f"beta={b.beta}"
    return _worst("bell_norm_preservation", 1e-12, samples, trials())


def check_rapidity_additivity(rng, samples: int) -> CheckResult:
    """Two collinear boosts equal one boost at the summed rapidity (spin sector)."""
    def trials():
        for _ in range(samples):
            s = _random_state(rng)
            e = _unit(rng)
            a1, a2 = rng.uniform(0.1, 1.5, size=2)
            twice = boost_two_particle(boost_two_particle(s, BoostSpec.from_rapidity(e, a1)),
                                       BoostSpec.from_rapidity(e, a2))
            once = boost_two_particle(s, BoostSpec.from_rapidity(e, a1 + a2))
            yield max_abs_diff(twice.amps, once.amps), lambda: f"e={e.tolist()}, a1={a1}, a2={a2}"
    return _worst("rapidity_additivity", 1e-10, samples, trials())


def check_sector_invariance(rng, samples: int) -> CheckResult:
    """z-momentum/x-boost preserves the {00,11} and {01,10} sectors separately."""
    idx = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}

    def trials():
        for _ in range(samples):
            beta, r_em, b, p = _z_momentum_x_boost(rng, 1.0)
            for (i, j), others in (((0, 0), ((0, 1), (1, 0))), ((1, 1), ((0, 1), (1, 0))),
                                   ((0, 1), ((0, 0), (1, 1))), ((1, 0), ((0, 0), (1, 1)))):
                out = bell_decompose(boost_two_particle(bell_state(i, j, p), b)).as_array()
                leak = max(abs(out[idx[o]]) for o in others)
                yield leak, lambda: f"state {i}{j}, beta={beta}, E/m={r_em}"
    return _worst("bell_sector_invariance", 1e-12, samples, trials())


def check_mixing_rotation(rng, samples: int) -> CheckResult:
    """The {00,11} mixing matrix is the rotation by the Wigner angle."""
    def trials():
        for _ in range(samples):
            beta, r_em, b, p = _z_momentum_x_boost(rng)
            om = wigner_angle(beta, r_em)
            c00 = bell_decompose(boost_two_particle(bell_state(0, 0, p), b)).as_array()
            c11 = bell_decompose(boost_two_particle(bell_state(1, 1, p), b)).as_array()
            expect00 = np.array([math.cos(om), 0.0, 0.0, -math.sin(om)])
            expect11 = np.array([math.sin(om), 0.0, 0.0, math.cos(om)])
            r = max(max_abs_diff(c00, expect00), max_abs_diff(c11, expect11))
            yield r, lambda: f"beta={beta}, E/m={r_em}"
    return _worst("bell_mixing_rotation", 1e-12, samples, trials())


def check_observable_normalization(rng, samples: int) -> CheckResult:
    """Every boost-corrected observable squares to the identity."""
    def trials():
        for _ in range(samples):
            a = _unit(rng)
            e = _unit(rng)
            beta = rng.uniform(0.0, 1.0)
            if beta == 1.0 and abs(a @ e) < 1e-6:
                beta = 0.999
            m = rel_spin_observable(a, beta, e).m
            yield max_abs_diff(m @ m, IDENTITY2), lambda: f"a={a.tolist()}, beta={beta}"
    return _worst("observable_normalization", 1e-12, samples, trials())


def check_closed_form_correlations(rng, samples: int) -> CheckResult:
    """Closed-form joint expectations equal the matrix elements (both sectors)."""
    def trials():
        for _ in range(samples):
            beta, r_em, b, p = _z_momentum_x_boost(rng)
            om = wigner_angle(beta, r_em)
            a, bb = _unit(rng), _unit(rng)
            A = rel_spin_observable(a, beta, X_HAT)
            B = rel_spin_observable(bb, beta, X_HAT)
            s00 = boost_two_particle(bell_state(0, 0, p), b)
            s10 = boost_two_particle(bell_state(1, 0, p), b)
            r = abs(joint_expectation(s00, A, B) - expectation_case1_closed(a, bb, beta, om))
            r = max(r, abs(joint_expectation(s10, A, B) - expectation_case2_closed(a, bb, beta)))
            yield r, lambda: f"beta={beta}, E/m={r_em}, a={a.tolist()}, b={bb.tolist()}"
    return _worst("closed_form_correlations", 1e-12, samples, trials())


def check_tsirelson(rng, samples: int) -> CheckResult:
    """|CHSH| <= 2 sqrt(2) over random states, settings and boosts."""
    def trials():
        for _ in range(samples):
            s = _random_state(rng)
            beta = rng.uniform(0.0, 0.999)
            settings = ChshSettings(a=_unit(rng), a_prime=_unit(rng),
                                    b=_unit(rng), b_prime=_unit(rng))
            e = _unit(rng)
            yield abs(chsh(s, settings, beta, e)) - TSIRELSON_BOUND, lambda: f"beta={beta}"
    return _worst("tsirelson_bound", 1e-12, samples, trials())


def check_chsh_curves(rng, samples: int) -> CheckResult:
    """Matrix-path CHSH reproduces the closed-form curves in both sectors."""
    def trials():
        for _ in range(samples):
            beta, r_em, b, p = _z_momentum_x_boost(rng)
            s10 = boost_two_particle(bell_state(1, 0, p), b)
            r = abs(chsh(s10, CASE2_SETTINGS, beta, X_HAT) - chsh_universal(beta))
            s00 = boost_two_particle(bell_state(0, 0, p), b)
            om = wigner_angle(beta, r_em)
            r = max(r, abs(chsh(s00, CASE1_SETTINGS, beta, X_HAT) - chsh_case1_closed(beta, om)))
            yield r, lambda: f"beta={beta}, E/m={r_em}"
    return _worst("chsh_curves", 1e-10, samples, trials())


ALL_CHECKS = (
    check_pauli_algebra,
    check_tensor_product,
    check_matrix_exponential,
    check_minkowski_orthogonality,
    check_mass_shell,
    check_boost_inverse,
    check_standard_boost,
    check_little_group_unitarity,
    check_oracle_equivalence,
    check_angle_axis_consistency,
    check_lorentz_spinor_angle,
    check_wigner_monotonicity,
    check_bell_norms,
    check_rapidity_additivity,
    check_sector_invariance,
    check_mixing_rotation,
    check_observable_normalization,
    check_closed_form_correlations,
    check_tsirelson,
    check_chsh_curves,
)


def run_checks(seed: int, samples: int, checks=ALL_CHECKS) -> list[CheckResult]:
    """Run the invariant suite; each check gets its own child stream of ``seed``."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    streams = np.random.SeedSequence(seed).spawn(len(checks))
    return [chk(np.random.default_rng(st), samples) for chk, st in zip(checks, streams)]
