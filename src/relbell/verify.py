"""Randomized invariant suite behind the ``verify`` command.

Each check draws its own samples from a seeded generator, forms one array
of residuals in sample order and reduces it through ``_batch``: the first
strict maximum wins, and its inputs alone are formatted.  A NaN residual
beats every number, so the first NaN is the worst and fails its check.  A
check passes when that residual stays at or below its tolerance.  The
checks mirror the library's contracts: Pauli algebra, Lorentz/Minkowski
identities, the little-group closed form against its brute-force spinor and
4x4 oracles, Bell-sector behavior under boosts, observable normalization,
closed-form correlations against matrix elements, and the Tsirelson bound.

A seed always gives the same samples, drawn in a fixed order: sample after
sample, each sample's draws in turn.  Each draw is the cheap primitive on
numpy's bits, ``standard_normal`` for ``normal`` and ``low + (high - low) *
random()``, numpy's own formula, for ``uniform(low, high)`` (``_Draw``).
numpy's ziggurat normal (Marsaglia & Tsang 2000) takes a variable number of
stream words per draw, so normals and uniforms cannot be regrouped into one
call per kind; but a run of one kind within a sample is one call, the same
bits as its parts, and a check whose samples draw one kind only draws them
all in one call (``_draws``).  Per sample stay the ``math.exp`` of a
log-uniform E/m, since ``np.exp`` rounds differently, and the norm of the
random amplitudes: ``np.linalg.norm`` forms it from two strided dots, which
a batched norm does not reproduce (it moves the last bit on about one row in
seven).  Everything else happens once over the stacked rows: ``normal``'s
``0.0 +``, the ``v / |v|`` of the directions and the ``|p| v`` of the
momenta.

Every check then evaluates all its samples as one batch, with one call per
kernel or oracle: the draws become n rows of the public constructors
(``BoostSpec``, ``FourMomentum``, ``TwoQubitState``, ``ChshSettings``) for
the pair kernel, ``chsh`` and the brute-force oracles (the spinor product,
the long-double 4x4, the boost matrices, the matrix observable, ``exp2``
and ``linalg.expm_oracle``'s long-double scaling and squaring).  A check
that compares several Bell states, settings or row sets stacks them into
one call of k n rows and splits the result; the boost by a1 and the one by
a1 + a2 of ``rapidity_additivity`` share a call the same way.  Each kernel
and oracle is one numpy body whose rows equal its scalar calls bit for bit,
so the stacked residuals are the per-state ones, in sample order.
Only the closed forms the oracles are compared with (``wigner_angle``, the
closed-form correlations and CHSH curves, ``math.cos`` and ``math.sin`` of
the Wigner angle) run once per sample, feeding the residual arrays: numpy's
transcendental functions round differently from ``math``'s.  The
correlations run through their unchecked cores (``observables._case1`` and
``_case2``), on draws that are unit vectors and speeds in range by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

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
from relbell.linalg import (
    IDENTITY2,
    _components,
    _each,
    _kron,
    _rowdot,
    _sigma_dot,
    dagger,
    exp2,
    expm_oracle,
)
from relbell.observables import (
    CASE1_SETTINGS,
    CASE2_SETTINGS,
    ChshSettings,
    TSIRELSON_BOUND,
    _case1,
    _case2,
    chsh,
    chsh_case1_closed,
    chsh_universal,
    joint_expectation,
    rel_spin_observable,
)
from relbell.wigner import (
    _boost_parts,
    _su2,
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


class _Draw(NamedTuple):
    """One per-sample draw: its Generator ``calls`` and ``rows``, which finishes all samples'.

    ``calls`` lists the sample's (kind, k) draws in stream order: k
    ``standard_normal`` values for "n", k ``random`` values for "u".
    ``rows`` takes their (samples, total k) block, in sample order, and does
    the array work once over it.
    """
    calls: tuple
    rows: Callable


def _plus_zero(raw) -> np.ndarray:
    """Stacked ``standard_normal`` draws as ``normal`` gives them: its 0.0 + x makes -0.0 +0.0."""
    return np.add(raw, 0.0)


def _normalised(raw) -> np.ndarray:
    """numpy's ``normal(size=3) / np.linalg.norm`` for stacked ``standard_normal(3)`` rows."""
    v = _plus_zero(raw)
    return v / np.sqrt(_rowdot(v, v))[..., None]


def _uniform(low: float, high: float) -> _Draw:
    """numpy's ``uniform(low, high)`` from one ``random()``: its ``low + (high - low) * u``."""
    width = high - low
    return _Draw((("u", 1),), lambda u: low + width * u[:, 0])


def _log_uniform(low: float, high: float) -> _Draw:
    """exp of numpy's ``uniform(log(low), log(high))``: log-uniform in [low, high]."""
    log_low = math.log(low)
    width = math.log(high) - log_low
    # math.exp element by element: np.exp rounds otherwise
    return _Draw((("u", 1),), lambda u: _each(math.exp, log_low + width * u[:, 0]))


def _momentum(max_gamma: float) -> _Draw:
    """A unit-mass spatial momentum: E/m log-uniform in [1, max_gamma], then its direction."""
    gamma = _log_uniform(1.0, max_gamma).rows

    def rows(raw):
        r = gamma(raw[:, :1])
        return np.sqrt(r * r - 1.0)[..., None] * _normalised(raw[:, 1:])
    return _Draw((("u", 1), ("n", 3)), rows)


def _random_amps(raw) -> np.ndarray:
    """numpy's ``normal(size=4) + 1j * normal(size=4)`` over its ``np.linalg.norm``, per row.

    Each row's norm comes from ``np.linalg.norm``'s complex branch, two dots
    on the strided real and imaginary views of that row.  Only the sign of a
    zero can differ; ``_plus_zero`` sets it.
    """
    amps = np.empty((len(raw), 4), dtype=complex)
    amps.real, amps.imag = raw[:, :4], raw[:, 4:]
    re, im = amps.real, amps.imag
    norms = [math.sqrt(re[k].dot(re[k]) + im[k].dot(im[k])) for k in range(len(raw))]
    return _plus_zero(amps / np.array(norms)[:, None])


_DIRECTION = _Draw((("n", 3),), _normalised)
_AMPS = _Draw((("n", 8),), _random_amps)


def _draws(rng, samples: int, *draws: _Draw) -> list[np.ndarray]:
    """Each draw's finished rows, drawn sample after sample in the order of ``draws``.

    A run of one kind within a sample is one Generator call, which draws the
    same bits as its parts; when the sample has one kind only, one call
    draws every sample.
    """
    calls = [call for d in draws for call in d.calls]
    runs = [(kind, sum(k for _, k in group)) for kind, group in groupby(calls, itemgetter(0))]
    width = sum(k for _, k in runs)
    draw = {"n": rng.standard_normal, "u": rng.random}
    if len(runs) == 1:
        raw = draw[runs[0][0]](samples * width)
    else:
        raw = np.concatenate([draw[kind](k) for _ in range(samples) for kind, k in runs])
    block = raw.reshape(samples, width)
    out, start = [], 0
    for d in draws:
        stop = start + sum(k for _, k in d.calls)
        out.append(d.rows(block[:, start:stop]))
        start = stop
    return out


def _boosts(rng, samples: int, beta_max: float = 0.999) -> BoostSpec:
    """A random boost (unit direction, then beta up to ``beta_max``) for every sample, as n rows."""
    e, beta = _draws(rng, samples, _DIRECTION, _uniform(0.0, beta_max))
    return BoostSpec(e, beta)


def _momenta_and_boosts(rng, samples: int, max_gamma: float = 1e3,
                        beta_max: float = 0.99) -> tuple[FourMomentum, BoostSpec]:
    """A random unit-mass momentum (E/m up to ``max_gamma``), then a random boost, as n rows."""
    p, e, beta = _draws(rng, samples, _momentum(max_gamma), _DIRECTION, _uniform(0.0, beta_max))
    return FourMomentum.from_spatial(p), BoostSpec(e, beta)


def _paper_draw(e_over_m_min: float = 1.001) -> tuple[_Draw, _Draw]:
    """The paper's geometry: beta in [0, 0.99), E/m log-uniform in [e_over_m_min, 1e3]."""
    return _uniform(0.0, 0.99), _log_uniform(e_over_m_min, 1e3)


def _paper_rows(betas: np.ndarray, ratios: np.ndarray) -> tuple[BoostSpec, FourMomentum]:
    """The x-boosts at ``betas`` and the z-momenta (``along_z``) at E/m ``ratios``, as n rows."""
    pz = np.sqrt((ratios - 1.0) * (ratios + 1.0))  # along_z's m sqrt((r - 1)(r + 1)) with m = 1
    zeros = np.zeros_like(ratios)
    return (BoostSpec(X_HAT, betas),
            FourMomentum(np.stack([zeros, zeros, pz], axis=1), ratios))


def _beta_and_gamma(b: BoostSpec, p: FourMomentum, k: int) -> str:
    return f"beta={float(b.beta[k])}, E/m={p._row(k).gamma}"


def _beta_and_e(b: BoostSpec, k: int) -> str:
    return f"beta={float(b.beta[k])}, e={b.e[k].tolist()}"


def _row_max_abs(a, b) -> np.ndarray:
    """``max_abs_diff`` of each matrix of an (n, k, k) stack."""
    return np.abs(a - b).max(axis=(-2, -1))


def _batch(name: str, tol: float, samples: int, residuals: np.ndarray, describe) -> CheckResult:
    """The check's result for its residuals in sample order; ``describe(k)`` names sample k.

    The first strict maximum above 0 wins, and a NaN beats every number, so
    the first NaN is the worst and fails the check.  ``describe`` runs once,
    for the winner.
    """
    k = int(np.argmax(residuals))  # the first maximum, or the first NaN
    r = float(residuals[k])
    if r > 0.0 or math.isnan(r):
        return CheckResult(name, r, tol, samples, describe(k))
    return CheckResult(name, 0.0, tol, samples)


def check_pauli_algebra(rng, samples: int) -> CheckResult:
    """sigma.v is Hermitian, traceless and squares to I for unit v."""
    (v,) = _draws(rng, samples, _DIRECTION)
    m = _sigma_dot(v)
    residuals = np.maximum.reduce([_row_max_abs(m, dagger(m)), np.abs(m[:, 0, 0] + m[:, 1, 1]),
                                   _row_max_abs(m @ m, IDENTITY2)])
    return _batch("pauli_algebra", 1e-14, samples, residuals, lambda k: f"v={v[k].tolist()}")


def check_tensor_product(rng, samples: int) -> CheckResult:
    """tensor(a,b) tensor(c,d) = tensor(ac, bd) and bilinearity."""
    # four complex 2x2 matrices per sample, each its real then its imaginary part
    x = rng.normal(size=(samples, 4, 2, 2, 2))
    a, b, c, d = (x[:, i, 0] + 1j * x[:, i, 1] for i in range(4))
    residuals = np.maximum(_row_max_abs(_kron(a, b) @ _kron(c, d), _kron(a @ c, b @ d)),
                           _row_max_abs(_kron(a + c, b), _kron(a, b) + _kron(c, b)))
    return _batch("tensor_product", 1e-13, samples, residuals, lambda k: f"sample {k}")


def check_matrix_exponential(rng, samples: int) -> CheckResult:
    """exp2(m) exp2(-m) = I and exp2 agrees with the scaling-and-squaring oracle."""
    x = rng.uniform(-2, 2, size=(samples, 2, 2, 2))  # per sample the real, then the imaginary part
    m = x[:, 0] + 1j * x[:, 1]
    e = exp2(m)
    residuals = np.maximum(_row_max_abs(e @ exp2(-m), IDENTITY2),
                           _row_max_abs(e, expm_oracle(m)) / 10.0)
    return _batch("matrix_exponential", 1e-12, samples, residuals, lambda k: f"sample {k}")


def check_minkowski_orthogonality(rng, samples: int) -> CheckResult:
    """Lambda^T eta Lambda = eta for random boosts up to beta = 0.999."""
    b = _boosts(rng, samples)
    return _batch("minkowski_orthogonality", 1e-10, samples, minkowski_defect(boost_matrix(b)),
                  lambda k: _beta_and_e(b, k))


def check_mass_shell(rng, samples: int) -> CheckResult:
    """Boosts preserve E^2 - |p|^2 = m^2 to relative 1e-9 (E/m up to 1e4)."""
    p, b = _momenta_and_boosts(rng, samples, 1e4, 0.999)
    q = apply_boost(boost_matrix(b), p)  # FourMomentum checks every row's shell
    e2, q_mag = q.E * q.E, np.sqrt(_rowdot(q.p, q.p))
    residuals = np.abs(e2 - q_mag * q_mag - q.m * q.m) / np.maximum(e2, 1.0)
    return _batch("mass_shell_preservation", 1e-9, samples, residuals,
                  lambda k: _beta_and_gamma(b, p, k))


def check_boost_inverse(rng, samples: int) -> CheckResult:
    """boost_matrix(b) boost_matrix(b.inverse()) = identity."""
    b = _boosts(rng, samples)
    residuals = _row_max_abs(boost_matrix(b) @ boost_matrix(b.inverse()), np.eye(4))
    return _batch("boost_inverse", 1e-10, samples, residuals, lambda k: _beta_and_e(b, k))


def check_standard_boost(rng, samples: int) -> CheckResult:
    """L(p) maps the rest momentum to p; the little group fixes it."""
    p, b = _momenta_and_boosts(rng, samples)
    rest = FourMomentum(np.zeros_like(p.p), p.m, p.m)  # FourMomentum.rest(p.m) per row
    mapped = apply_boost(standard_boost(p), rest).four_vector
    residuals = np.maximum(np.abs(mapped - p.four_vector).max(axis=1) / np.maximum(p.E, 1.0),
                           np.abs(little_group_lorentz(b, p)[:, 3, 3] - 1.0))
    return _batch("standard_boost", 1e-9, samples, residuals,
                  lambda k: f"E/m={p._row(k).gamma}, beta={float(b.beta[k])}")


def check_little_group_unitarity(rng, samples: int) -> CheckResult:
    """Little-group outputs are unitary with unit determinant (1e-12)."""
    p, b = _momenta_and_boosts(rng, samples)
    cos_half, sin_half_vec = _boost_parts(b, p)[:2]  # little_group_closed(b, p).su2 per row
    u = _su2(cos_half, *_components(sin_half_vec))
    # the determinant from the real and imaginary parts, as a complex scalar product
    # forms it: numpy's vectorised complex product fuses multiply-adds
    (r00, r01), (r10, r11) = np.moveaxis(u.real, 0, -1)
    (i00, i01), (i10, i11) = np.moveaxis(u.imag, 0, -1)
    det_re = (r00 * r11 - i00 * i11) - (r01 * r10 - i01 * i10)
    det_im = (r00 * i11 + i00 * r11) - (r01 * i10 + i01 * r10)
    residuals = np.maximum(_row_max_abs(dagger(u) @ u, IDENTITY2), np.hypot(det_re - 1.0, det_im))
    return _batch("little_group_unitarity", 1e-12, samples, residuals,
                  lambda k: _beta_and_gamma(b, p, k))


def check_oracle_equivalence(rng, samples: int) -> CheckResult:
    """Closed-form little group equals the three-factor spinor product."""
    p, b = _momenta_and_boosts(rng, samples)
    cos_half, sin_half_vec = _boost_parts(b, p)[:2]  # little_group_closed(b, p).su2 per row
    residuals = _row_max_abs(_su2(cos_half, *_components(sin_half_vec)), little_group_oracle(b, p))
    return _batch("oracle_equivalence", 1e-10, samples, residuals,
                  lambda k: f"{_beta_and_e(b, k)}, p={p.p[k].tolist()}")


def check_angle_axis_consistency(rng, samples: int) -> CheckResult:
    """cos^2(O/2) + |sin(O/2) n|^2 = 1 for the closed-form quaternion.

    Both parts come from one set of hyperbolic terms, divided by the same K,
    so this checks that K^2 = (1 + E'/m)/2 normalises them.
    """
    p, b = _momenta_and_boosts(rng, samples)
    ch, sv = _boost_parts(b, p)[:2]
    return _batch("angle_axis_consistency", 1e-12, samples, np.abs(ch * ch + _rowdot(sv, sv) - 1.0),
                  lambda k: _beta_and_gamma(b, p, k))


def check_lorentz_spinor_angle(rng, samples: int) -> CheckResult:
    """Rotation angle of the 4x4 composition matches the spinor closed form."""
    p, b = _momenta_and_boosts(rng, samples)
    cos_half, sin_half_vec = _boost_parts(b, p)[:2]
    omega = 2.0 * np.arctan2(np.sqrt(_rowdot(sin_half_vec, sin_half_vec)), cos_half)
    # special geometry against the two-parameter angle formula: each beta at each E/m
    betas = np.repeat(np.linspace(0.05, 0.99, 20), 3)
    ratios = np.tile([10.0, 100.0, 1000.0], 20)
    closed = [wigner_angle(beta, r_em) for beta, r_em in zip(betas.tolist(), ratios.tolist())]
    special = _paper_rows(betas, ratios)[1]
    # the random rows, then the special ones, through one oracle call
    both_b = BoostSpec(np.concatenate([b.e, np.broadcast_to(X_HAT, special.p.shape)]),
                       np.concatenate([b.beta, betas]))
    both_p = FourMomentum(np.concatenate([p.p, special.p]), np.concatenate([p.E, special.E]))
    residuals = np.abs(rotation_angle(little_group_lorentz(both_b, both_p))
                       - np.concatenate([omega, closed]))

    def describe(k):
        if k < samples:
            return _beta_and_gamma(b, p, k)
        return f"special beta={betas[k - samples]}, E/m={float(ratios[k - samples])}"
    return _batch("lorentz_spinor_angle", 1e-9, samples, residuals, describe)


def check_wigner_monotonicity(rng, samples: int) -> CheckResult:
    """Omega strictly increases in beta (and in E/m) on the reference grids."""
    betas = np.linspace(0.01, 0.99, 99).tolist()
    ratios, grid_betas = (10.0, 100.0, 1000.0), (0.1, 0.3, 0.5, 0.7, 0.9)
    grids = ([[wigner_angle(beta, r_em) for beta in betas] for r_em in ratios]
             + [[wigner_angle(beta, r_em) for r_em in ratios] for beta in grid_betas])
    residuals = np.array([np.max(-np.diff(om)) for om in grids])

    def describe(k):
        if k < len(ratios):
            return f"E/m={ratios[k]} beta grid"
        return f"beta={grid_betas[k - len(ratios)]} E/m grid"
    return _batch("wigner_monotonicity", 0.0, len(betas), residuals, describe)


def _random_states(amps: np.ndarray) -> TwoQubitState:
    """n pairs with the amplitudes ``amps`` on the momentum (0, 0, sqrt(3)) and its flip."""
    return TwoQubitState(amps, 1.0, FourMomentum.along_z(2.0))


def _first_rows(s: TwoQubitState, n: int) -> TwoQubitState:
    """The first ``n`` pairs of the pair rows ``s``."""
    p, q = s.p_label, s.p2_label
    return TwoQubitState(s.amps[:n], s.kin_factor[:n], FourMomentum(p.p[:n], p.E[:n], p.m[:n]),
                         FourMomentum(q.p[:n], q.E[:n], q.m[:n]))


def _bell_pairs(states, betas: np.ndarray, ratios: np.ndarray) -> tuple[BoostSpec, TwoQubitState]:
    """Each Bell state (i, j) of ``states`` in turn on the paper's rows, as one boost and pair."""
    b, p = _paper_rows(np.tile(betas, len(states)), np.tile(ratios, len(states)))
    amps = np.repeat([bell_state(i, j, p).amps for i, j in states], len(betas), axis=0)
    return b, TwoQubitState(amps, 1.0, p)


def check_bell_norms(rng, samples: int) -> CheckResult:
    """Boosting preserves the unit norm of the spin sector."""
    amps, e, beta = _draws(rng, samples, _AMPS, _DIRECTION, _uniform(0.0, 0.99))
    a = boost_two_particle(_random_states(amps), BoostSpec(e, beta)).amps
    norms = _rowdot(a.real, a.real) + _rowdot(a.imag, a.imag)  # np.vdot(a, a).real per row
    return _batch("bell_norm_preservation", 1e-12, samples, np.abs(norms - 1.0),
                  lambda k: f"beta={float(beta[k])}")


def check_rapidity_additivity(rng, samples: int) -> CheckResult:
    """Two collinear boosts equal one boost at the summed rapidity (spin sector)."""
    amps, e, a1, a2 = _draws(rng, samples, _AMPS, _DIRECTION,
                             _uniform(0.1, 1.5), _uniform(0.1, 1.5))
    # the first boost by a1 and the one boost by a1 + a2 in one call, then the second by a2
    first = boost_two_particle(_random_states(np.concatenate([amps, amps])),
                               BoostSpec.from_rapidity(np.concatenate([e, e]),
                                                       np.concatenate([a1, a1 + a2])))
    twice = boost_two_particle(_first_rows(first, samples), BoostSpec.from_rapidity(e, a2))
    residuals = np.abs(twice.amps - first.amps[samples:]).max(axis=1)
    return _batch("rapidity_additivity", 1e-10, samples, residuals,
                  lambda k: f"e={e[k].tolist()}, a1={a1[k]}, a2={a2[k]}")


def check_sector_invariance(rng, samples: int) -> CheckResult:
    """z-momentum/x-boost preserves the {00,11} and {01,10} sectors separately."""
    # each state and the indices of the other sector in (c00, c01, c10, c11)
    leaks = (((0, 0), [1, 2]), ((1, 1), [1, 2]), ((0, 1), [0, 3]), ((1, 0), [0, 3]))
    betas, ratios = _draws(rng, samples, *_paper_draw(1.0))
    b, s = _bell_pairs([ij for ij, _ in leaks], betas, ratios)
    # |c| by coefficient, state and sample
    c = np.abs(bell_decompose(boost_two_particle(s, b)).as_array()).reshape(4, len(leaks), samples)
    residuals = np.stack([c[others, k].max(axis=0) for k, (_, others) in enumerate(leaks)],
                         axis=1).ravel()  # sample-major, then state

    def describe(k):
        (i, j), _ = leaks[k % len(leaks)]
        return f"state {i}{j}, beta={float(betas[k // len(leaks)])}, " \
               f"E/m={float(ratios[k // len(leaks)])}"
    return _batch("bell_sector_invariance", 1e-12, samples, residuals, describe)


def check_mixing_rotation(rng, samples: int) -> CheckResult:
    """The {00,11} mixing matrix is the rotation by the Wigner angle."""
    betas, ratios = _draws(rng, samples, *_paper_draw())
    b, s = _bell_pairs(((0, 0), (1, 1)), betas, ratios)
    c00, c11 = np.split(bell_decompose(boost_two_particle(s, b)).as_array().T, 2)
    oms = [wigner_angle(beta, r_em) for beta, r_em in zip(betas.tolist(), ratios.tolist())]
    cos, sin = np.array([[math.cos(om), math.sin(om)] for om in oms]).T
    zero = np.zeros_like(cos)
    expect00, expect11 = np.stack([cos, zero, zero, -sin], 1), np.stack([sin, zero, zero, cos], 1)
    residuals = np.maximum(np.abs(c00 - expect00).max(axis=1), np.abs(c11 - expect11).max(axis=1))
    return _batch("bell_mixing_rotation", 1e-12, samples, residuals,
                  lambda k: f"beta={float(betas[k])}, E/m={float(ratios[k])}")


def check_observable_normalization(rng, samples: int) -> CheckResult:
    """Every boost-corrected observable squares to the identity."""
    a, e, beta = _draws(rng, samples, _DIRECTION, _DIRECTION, _uniform(0.0, 1.0))
    m = rel_spin_observable(a, beta, e).m
    return _batch("observable_normalization", 1e-12, samples, _row_max_abs(m @ m, IDENTITY2),
                  lambda k: f"a={a[k].tolist()}, beta={float(beta[k])}")


def check_closed_form_correlations(rng, samples: int) -> CheckResult:
    """Closed-form joint expectations equal the matrix elements (both sectors)."""
    betas, ratios, a, bb = _draws(rng, samples, *_paper_draw(), _DIRECTION, _DIRECTION)
    b, s = _bell_pairs(((0, 0), (1, 0)), betas, ratios)
    A, B = (rel_spin_observable(np.concatenate([v, v]), b.beta, X_HAT) for v in (a, bb))
    j00, j10 = np.split(joint_expectation(boost_two_particle(s, b), A, B), 2)
    # the draws are unit vectors and speeds in range: the closed forms' cores, unchecked
    case1, case2 = np.array([
        [_case1(ak, bk, beta, wigner_angle(beta, r_em)), _case2(ak, bk, beta)]
        for beta, r_em, ak, bk in zip(betas.tolist(), ratios.tolist(), a.tolist(), bb.tolist())]).T
    residuals = np.maximum(np.abs(j00 - case1), np.abs(j10 - case2))
    return _batch("closed_form_correlations", 1e-12, samples, residuals,
                  lambda k: f"beta={float(betas[k])}, E/m={float(ratios[k])}, "
                            f"a={a[k].tolist()}, b={bb[k].tolist()}")


def check_tsirelson(rng, samples: int) -> CheckResult:
    """|CHSH| <= 2 sqrt(2) over random states, settings and boosts."""
    amps, beta, a, a_prime, b, b_prime, e = _draws(rng, samples, _AMPS, _uniform(0.0, 0.999),
                                                    *[_DIRECTION] * 5)
    values = chsh(_random_states(amps), ChshSettings(a, a_prime, b, b_prime), beta, e)
    return _batch("tsirelson_bound", 1e-12, samples, np.abs(values) - TSIRELSON_BOUND,
                  lambda k: f"beta={float(beta[k])}")


def check_chsh_curves(rng, samples: int) -> CheckResult:
    """Matrix-path CHSH reproduces the closed-form curves in both sectors."""
    betas, ratios = _draws(rng, samples, *_paper_draw())
    b, s = _bell_pairs(((1, 0), (0, 0)), betas, ratios)
    settings = ChshSettings(*(np.repeat([getattr(CASE2_SETTINGS, f), getattr(CASE1_SETTINGS, f)],
                                        samples, axis=0) for f in ("a", "a_prime", "b", "b_prime")))
    chsh10, chsh00 = np.split(chsh(boost_two_particle(s, b), settings, b.beta, X_HAT), 2)
    universal, case1 = np.array([
        [chsh_universal(beta), chsh_case1_closed(beta, wigner_angle(beta, r_em))]
        for beta, r_em in zip(betas.tolist(), ratios.tolist())]).T
    return _batch("chsh_curves", 1e-10, samples,
                  np.maximum(np.abs(chsh10 - universal), np.abs(chsh00 - case1)),
                  lambda k: f"beta={float(betas[k])}, E/m={float(ratios[k])}")


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
