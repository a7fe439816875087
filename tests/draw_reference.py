"""numpy's own draws, one sample at a time, in the order ``relbell.verify`` draws them.

``verify`` makes each draw with the cheap Generator call on the same bits
(``standard_normal`` for ``normal``, ``random`` for ``uniform``) and does
the arithmetic once over the stacked rows.  These functions call
``normal`` and ``uniform`` themselves and normalise with
``np.linalg.norm``, so the tests can hold the suite's draws to numpy's,
and the tests that need random inputs draw them without the suite's code.
"""

import functools
import math

import numpy as np


def unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def spatial_momentum(rng, max_gamma: float) -> np.ndarray:
    """A unit-mass spatial momentum with E/m log-uniform in [1, max_gamma]."""
    r = math.exp(rng.uniform(0.0, math.log(max_gamma)))
    return math.sqrt(r * r - 1.0) * unit(rng)


def random_amps(rng) -> np.ndarray:
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return amps / np.linalg.norm(amps)


def paper_draw(rng, e_over_m_min: float = 1.001) -> tuple[float, float]:
    """beta in [0, 0.99), then E/m log-uniform in [e_over_m_min, 1e3]."""
    beta = rng.uniform(0.0, 0.99)
    return beta, math.exp(rng.uniform(math.log(e_over_m_min), math.log(1e3)))


def paper_draw_from_1(rng) -> tuple[float, float]:
    """``paper_draw`` with E/m from 1."""
    return paper_draw(rng, 1.0)


# one function per argument list, so that a test can draw each reference once and share it
@functools.cache
def boost(beta_max: float = 0.999):
    return lambda rng: (unit(rng), rng.uniform(0.0, beta_max))


@functools.cache
def momentum_and_boost(max_gamma: float = 1e3, beta_max: float = 0.99):
    return lambda rng: (spatial_momentum(rng, max_gamma), unit(rng), rng.uniform(0.0, beta_max))


#: every check's per-sample draw; tensor_product and matrix_exponential draw all their
#: samples in one call, and wigner_monotonicity draws nothing
CHECK_DRAWS = {
    "check_pauli_algebra": lambda rng: (unit(rng),),
    "check_minkowski_orthogonality": boost(),
    "check_mass_shell": momentum_and_boost(1e4, 0.999),
    "check_boost_inverse": boost(),
    "check_standard_boost": momentum_and_boost(),
    "check_little_group_unitarity": momentum_and_boost(),
    "check_oracle_equivalence": momentum_and_boost(),
    "check_angle_axis_consistency": momentum_and_boost(),
    "check_lorentz_spinor_angle": momentum_and_boost(),
    "check_bell_norms": lambda rng: (random_amps(rng), unit(rng), rng.uniform(0.0, 0.99)),
    "check_rapidity_additivity": lambda rng: (random_amps(rng), unit(rng),
                                              *rng.uniform(0.1, 1.5, size=2)),
    "check_sector_invariance": paper_draw_from_1,
    "check_mixing_rotation": paper_draw,
    "check_observable_normalization": lambda rng: (unit(rng), unit(rng), rng.uniform(0.0, 1.0)),
    "check_closed_form_correlations": lambda rng: (*paper_draw(rng), unit(rng), unit(rng)),
    "check_tsirelson": lambda rng: (random_amps(rng), rng.uniform(0.0, 0.999),
                                    *(unit(rng) for _ in range(5))),
    "check_chsh_curves": paper_draw,
}


def stacked(draw, rng, samples: int) -> list[np.ndarray]:
    """``draw(rng)`` once per sample; each of its outputs stacked over the samples."""
    return [np.array(x) for x in zip(*(draw(rng) for _ in range(samples)))]
