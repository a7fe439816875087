"""Six ``relbell.verify`` checks written one state (or one row set) per kernel call.

``verify`` stacks the states, settings and rows of these checks so that each
makes one call per kernel or oracle.  These bodies make one call per Bell
state, per boost or per row set instead, on the same draws, so the tests can
hold the stacked checks to them: the same residuals, in the same sample
order, and the same reported inputs.
"""

import math

import numpy as np

from relbell.bell import bell_decompose, bell_state, boost_two_particle
from relbell.kinematics import BoostSpec, X_HAT
from relbell.linalg import _rowdot
from relbell.observables import (
    CASE1_SETTINGS,
    CASE2_SETTINGS,
    chsh,
    chsh_case1_closed,
    chsh_universal,
    expectation_case1_closed,
    expectation_case2_closed,
    joint_expectation,
    rel_spin_observable,
)
from relbell.verify import (
    _AMPS,
    _DIRECTION,
    _batch,
    _beta_and_gamma,
    _draws,
    _momenta_and_boosts,
    _paper_draw,
    _paper_rows,
    _random_states,
    _uniform,
)
from relbell.wigner import _boost_parts, little_group_lorentz, rotation_angle, wigner_angle


def check_lorentz_spinor_angle(rng, samples):
    p, b = _momenta_and_boosts(rng, samples)
    cos_half, sin_half_vec = _boost_parts(b, p)[:2]
    omega = 2.0 * np.arctan2(np.sqrt(_rowdot(sin_half_vec, sin_half_vec)), cos_half)
    random = np.abs(rotation_angle(little_group_lorentz(b, p)) - omega)
    betas = np.repeat(np.linspace(0.05, 0.99, 20), 3)
    ratios = np.tile([10.0, 100.0, 1000.0], 20)
    closed = [wigner_angle(beta, r_em) for beta, r_em in zip(betas.tolist(), ratios.tolist())]
    special = np.abs(rotation_angle(little_group_lorentz(*_paper_rows(betas, ratios))) - closed)

    def describe(k):
        if k < samples:
            return _beta_and_gamma(b, p, k)
        return f"special beta={betas[k - samples]}, E/m={float(ratios[k - samples])}"
    return _batch("lorentz_spinor_angle", 1e-9, samples, np.concatenate([random, special]),
                  describe)


def check_rapidity_additivity(rng, samples):
    amps, e, a1, a2 = _draws(rng, samples, _AMPS, _DIRECTION,
                             _uniform(0.1, 1.5), _uniform(0.1, 1.5))
    s = _random_states(amps)
    twice = boost_two_particle(boost_two_particle(s, BoostSpec.from_rapidity(e, a1)),
                               BoostSpec.from_rapidity(e, a2))
    once = boost_two_particle(s, BoostSpec.from_rapidity(e, a1 + a2))
    return _batch("rapidity_additivity", 1e-10, samples, np.abs(twice.amps - once.amps).max(axis=1),
                  lambda k: f"e={e[k].tolist()}, a1={a1[k]}, a2={a2[k]}")


def check_sector_invariance(rng, samples):
    leaks = (((0, 0), [1, 2]), ((1, 1), [1, 2]), ((0, 1), [0, 3]), ((1, 0), [0, 3]))
    betas, ratios = _draws(rng, samples, *_paper_draw(1.0))
    b, p = _paper_rows(betas, ratios)
    residuals = np.stack([
        np.abs(bell_decompose(boost_two_particle(bell_state(*ij, p), b)).as_array()[others])
        .max(axis=0) for ij, others in leaks], axis=1).ravel()

    def describe(k):
        (i, j), _ = leaks[k % len(leaks)]
        return f"state {i}{j}, beta={float(betas[k // len(leaks)])}, " \
               f"E/m={float(ratios[k // len(leaks)])}"
    return _batch("bell_sector_invariance", 1e-12, samples, residuals, describe)


def check_mixing_rotation(rng, samples):
    betas, ratios = _draws(rng, samples, *_paper_draw())
    b, p = _paper_rows(betas, ratios)
    c00, c11 = (bell_decompose(boost_two_particle(bell_state(i, j, p), b)).as_array().T
                for i, j in ((0, 0), (1, 1)))
    oms = [wigner_angle(beta, r_em) for beta, r_em in zip(betas.tolist(), ratios.tolist())]
    cos, sin = np.array([[math.cos(om), math.sin(om)] for om in oms]).T
    zero = np.zeros_like(cos)
    expect00, expect11 = np.stack([cos, zero, zero, -sin], 1), np.stack([sin, zero, zero, cos], 1)
    residuals = np.maximum(np.abs(c00 - expect00).max(axis=1), np.abs(c11 - expect11).max(axis=1))
    return _batch("bell_mixing_rotation", 1e-12, samples, residuals,
                  lambda k: f"beta={float(betas[k])}, E/m={float(ratios[k])}")


def check_closed_form_correlations(rng, samples):
    betas, ratios, a, bb = _draws(rng, samples, *_paper_draw(), _DIRECTION, _DIRECTION)
    b, p = _paper_rows(betas, ratios)
    A, B = (rel_spin_observable(v, betas, X_HAT) for v in (a, bb))
    j00, j10 = (joint_expectation(boost_two_particle(bell_state(i, j, p), b), A, B)
                for i, j in ((0, 0), (1, 0)))
    case1, case2 = np.array([
        [expectation_case1_closed(ak, bk, beta, wigner_angle(beta, r_em)),
         expectation_case2_closed(ak, bk, beta)]
        for beta, r_em, ak, bk in zip(betas.tolist(), ratios.tolist(), a, bb)]).T
    residuals = np.maximum(np.abs(j00 - case1), np.abs(j10 - case2))
    return _batch("closed_form_correlations", 1e-12, samples, residuals,
                  lambda k: f"beta={float(betas[k])}, E/m={float(ratios[k])}, "
                            f"a={a[k].tolist()}, b={bb[k].tolist()}")


def check_chsh_curves(rng, samples):
    betas, ratios = _draws(rng, samples, *_paper_draw())
    b, p = _paper_rows(betas, ratios)
    chsh10, chsh00 = (chsh(boost_two_particle(bell_state(i, j, p), b), settings, betas, X_HAT)
                      for (i, j), settings in (((1, 0), CASE2_SETTINGS), ((0, 0), CASE1_SETTINGS)))
    universal, case1 = np.array([
        [chsh_universal(beta), chsh_case1_closed(beta, wigner_angle(beta, r_em))]
        for beta, r_em in zip(betas.tolist(), ratios.tolist())]).T
    return _batch("chsh_curves", 1e-10, samples,
                  np.maximum(np.abs(chsh10 - universal), np.abs(chsh00 - case1)),
                  lambda k: f"beta={float(betas[k])}, E/m={float(ratios[k])}")


#: the checks, by the name of the ``relbell.verify`` check each mirrors
PER_STATE = {f.__name__: f for f in (
    check_lorentz_spinor_angle, check_rapidity_additivity, check_sector_invariance,
    check_mixing_rotation, check_closed_form_correlations, check_chsh_curves)}
