"""Every public callable that takes rows: n rows equal n one-value calls, bit for bit.

Row k of an n-row result must equal the one-value call on row k bit for bit
(see ``relbell``'s docstring).  Each test below draws rows with hypothesis
and holds the n-row call to the one-value calls through ``_match``: equal
shapes and bits row by row, through ``row(k)`` where a result has it, and
the n-row call raises exactly when some row's call raises.  Every array of
an n-row result has the row axis, but for the items that a test names as
reading a shared argument alone.  Most tests also pass one argument as a
single value shared by every row (``_shared``).
``test_rows_raise_like_scalar_calls`` runs the listed failing cases: the
n-row message is the failing row's one-value message plus " in row k".

A new function that takes rows gets a test here, marked ``@_covers(name)``,
instead of a class of its own; ``tests/test_package.py`` holds every public
callable to ``COVERED`` or to its list of one-value callables.
"""

import dataclasses
import math
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from draw_reference import unit
from relbell.bell import TwoQubitState, bell_decompose, bell_state, boost_two_particle
from relbell.cli import BETA_CLAMP
from relbell.kinematics import (MASS_SHELL_RTOL, BoostSpec, FourMomentum, X_HAT, Y_HAT, Z_HAT,
                                _unchecked, apply_boost, boost_matrix, minkowski_defect,
                                standard_boost)
from relbell.linalg import exp2, sigma_dot, tensor
from relbell.observables import (CASE1_SETTINGS, ChshSettings, chsh, chsh_case1_closed,
                                 chsh_closed, chsh_max, chsh_universal, expectation_case1_closed,
                                 expectation_case2_closed, joint_expectation, rel_spin_observable)
from relbell.wigner import (WignerRotation, d_half_exponential, d_half_pure_boost,
                            d_half_standard, little_group_closed, little_group_lorentz,
                            little_group_oracle, rotation_angle, wigner_angle)
from test_bell import _AMPS, _BELL_11, _pair, _two_pairs
from test_wigner import _DIRECTIONS, _N, _STOP_1E6, _direction


def _covers(*names):
    """Mark a test as holding the public ``names`` (``Type.member`` for a member) to their
    one-value calls; ``COVERED``, at the end, collects them."""
    def mark(test):
        test.covers = names
        return test
    return mark


def _rows(row, max_size=6):
    return st.lists(row, min_size=1, max_size=max_size)


def _outcome(call, *args):
    """``call(*args)``, or the exception it raises."""
    try:
        return call(*args)
    except Exception as exc:  # compared by type, whatever it is
        return exc


def _same_row(got, k, one, n, shared=(), key=None):
    """Row ``k`` of the n-row result ``got`` has the shape and bits of the one-value ``one``.

    Tuples, dicts and dataclasses go item by item, through ``row(k)`` where
    the value type has it.  An array has one axis more than ``one``, the row
    axis, and is taken at row k.  Only an item whose index, key or field name
    is in ``shared`` may have as many axes as ``one``, and is then one value
    for every row.
    """
    if isinstance(one, tuple):
        assert len(got) == len(one)
        for i, (g, o) in enumerate(zip(got, one)):
            _same_row(g, k, o, n, shared, i)
    elif isinstance(one, dict):
        assert got.keys() == one.keys()
        for name, o in one.items():
            _same_row(got[name], k, o, n, shared, name)
    elif dataclasses.is_dataclass(one):
        if hasattr(got, "row"):  # TwoQubitState, FourMomentum
            got, k = got.row(k), None
        for f in dataclasses.fields(one):
            _same_row(getattr(got, f.name), k, getattr(one, f.name), n, shared, f.name)
    else:
        g = np.asarray(got)
        if k is not None and not (key in shared and g.ndim == np.ndim(one)):
            assert type(got) is np.ndarray and g.shape == (n, *np.shape(one)), \
                (key, g.shape, n, one)
            g = g[k]
        else:
            assert g.shape == np.shape(one), (key, g.shape, one)
            if type(one) is float:
                assert type(got) is float, (key, got, one)
        assert g.tobytes() == np.asarray(one).tobytes(), (key, k, got, one)


def _match(call, ones, *args, raises=None, shared=()):
    """``call(*args)`` on n rows against ``call(*one)`` for each row's one-value arguments.

    Equal bits row by row, with the row axis on every array of the result
    but the items named in ``shared`` (see ``_same_row``).  Where some row's
    call raises, the n-row call raises an exception of the type of one of
    them; ``raises``, an (exception type, message pattern) pair, admits such
    rows, and without it no row may raise.
    """
    want = [_outcome(call, *one) for one in ones]
    got = _outcome(call, *args)
    errors = [w for w in want if isinstance(w, Exception)]
    for error in errors:
        if not (raises and isinstance(error, raises[0])):
            raise error
    if errors:
        assert type(got) in {type(e) for e in errors}, (got, errors)
        assert re.search(raises[1], str(got)), (got, raises)
        return
    if isinstance(got, Exception):
        raise got
    for k, w in enumerate(want):
        _same_row(got, k, w, len(want), shared)


def _shared(call, ones, args, i, raises=None, shared=()):
    """``_match`` with argument ``i`` row 0's one value for every row."""
    one = ones[0][i]
    _match(call, [a[:i] + (one,) + a[i + 1:] for a in ones], *args[:i], one, *args[i + 1:],
           raises=raises, shared=shared)


def _state(amps, p):
    z = np.array(amps[:4]) + 1j * np.array(amps[4:])
    return TwoQubitState(amps=z / np.linalg.norm(z), kin_factor=1.0, p_label=p)


class Raises(NamedTuple):
    """``build(*rows)`` raises ``message`` plus " in row ``row``" (as it is, for a check that
    names no row); ``build(*one)``, that row alone, raises ``message`` (no ``one``: a shape
    only rows have); ``build(*passes)``, the rows before it, passes."""

    id: str
    build: Callable
    rows: tuple
    one: tuple | None
    message: str
    row: int | None = None
    error: type = ValueError
    passes: tuple | None = None


# -- the constructors: raw floats, mostly valid, nudged across a tolerance or poisoned --

# relative nudges across the tolerances (1e-12 on norms, 1e-9 on the mass shell); 0 mostly
_NUDGES = st.sampled_from([0.0] * 6 + [1e-12, -1e-12, 5e-13, -5e-13, 2e-12, -2e-12, 4.9e-10,
                                       5.1e-10])
# a NaN or infinity at one index; an index past the row's length leaves it clean
_POISON = st.tuples(st.integers(0, 47), st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def _value_row(draw, kind):
    """The raw floats of one value of ``kind``: mostly valid, nudged or poisoned."""
    nudge = 1.0 + draw(_NUDGES)
    if kind == "momentum":  # p, E, m
        p = draw(st.tuples(*[st.floats(-1e3, 1e3)] * 3))
        m = draw(st.floats(-1.0, 1e3))
        row = [*p, math.sqrt(m * m + sum(x * x for x in p)) * nudge, m]
    elif kind == "spatial":  # p and m, E from the mass shell
        row = [*draw(st.tuples(*[st.floats(-1e6, 1e6)] * 3)), draw(st.floats(-1.0, 1e3))]
    elif kind in ("speed", "rapidity"):  # e, then beta or alpha
        x = st.floats(-0.1, 1.1) if kind == "speed" else st.floats(-25.0, 25.0)
        row = [*(draw(_DIRECTIONS) * nudge), draw(x | st.sampled_from([0.0, BETA_CLAMP, 1.0]))]
    elif kind == "state":  # Re and Im of each amplitude, then kin_factor
        z = np.array(draw(_AMPS))
        row = [*(z / math.sqrt(z @ z) * math.sqrt(nudge)), draw(st.floats(-1.0, 10.0))]
    else:  # the four directions of a setting, one of them nudged
        nudged = draw(st.integers(0, 3))
        row = [x * (nudge if k == nudged else 1.0) for k in range(4) for x in draw(_DIRECTIONS)]
    at, bad = draw(_POISON)
    if at < len(row):
        row[at] = bad
    return row


#: kind: the constructor, its arguments from one row's floats and from n rows' (n, k) array,
#: the argument that may be one value for every row (the mass, the direction, kin_factor, a)
#: and the field that keeps it as given
_KINDS = {
    "momentum": (FourMomentum, lambda r: (np.array(r[:3]), r[3], r[4]),
                 lambda a: (a[:, :3], a[:, 3], a[:, 4]), 2, "m"),
    "spatial": (FourMomentum.from_spatial, lambda r: (np.array(r[:3]), r[3]),
                lambda a: (a[:, :3], a[:, 3]), 1, "m"),
    "speed": (BoostSpec, lambda r: (np.array(r[:3]), r[3]), lambda a: (a[:, :3], a[:, 3]), 0,
              "e"),
    "rapidity": (BoostSpec.from_rapidity, lambda r: (np.array(r[:3]), r[3]),
                 lambda a: (a[:, :3], a[:, 3]), 0, "e"),
    "state": (TwoQubitState, lambda r: (np.array(r[:8]).view(complex), r[8], _pair()),
              lambda a: (np.ascontiguousarray(a[:, :8]).view(complex), a[:, 8], _pair()), 1,
              "kin_factor"),
    "settings": (ChshSettings, lambda r: tuple(np.reshape(r, (4, 3))),
                 lambda a: tuple(a.reshape(len(a), 4, 3).transpose(1, 0, 2)), 0, "a"),
}


def _constructed(kind, rows):
    """Each row alone, then all of them, then all with one argument row 0's for every row."""
    build, one, stack, i, field = _KINDS[kind]
    for chosen in [*([row] for row in rows), rows]:
        _match(build, [one(row) for row in chosen], *stack(np.array(chosen)),
               raises=(Exception, ""))
    _shared(build, [one(row) for row in rows], stack(np.array(rows)), i, (Exception, ""),
            shared={field})


_E_EDGE = 1.0 - 1e-12  # E >= m (1 - 1e-12) for m = 1
_E_SHELL = math.sqrt(10.0 / (1.0 - MASS_SHELL_RTOL))  # E^2 - 9 - 1 = RTOL E^2 for p = (0, 0, 3)
_UNIT_AMP = 0.5 * math.sqrt(2.0)
_P_1E6 = math.sqrt((1e6 - 1.0) * (1e6 + 1.0))  # |p| at E/m = 1e6 for m = 1


@_covers("FourMomentum", "FourMomentum.from_spatial", "BoostSpec", "BoostSpec.from_rapidity",
         "TwoQubitState", "ChshSettings")
@settings(max_examples=150)
@given(st.sampled_from(sorted(_KINDS)).flatmap(lambda kind: st.tuples(
    st.just(kind), st.lists(_value_row(kind), min_size=1, max_size=4))))
@example(("momentum", [[0.0, 0.0, 1.0, math.sqrt(2.0), 1.0],
                       [math.nan, 0.0, 1.0, math.sqrt(2.0), 1.0]]))
@example(("speed", [[1.0, 0.0, 0.0, 0.5], [1.0, 0.0, 0.0, math.inf]]))
@example(("state", [[_UNIT_AMP, 0.0, 0.0, 0.0, 0.0, 0.0, _UNIT_AMP, 0.0, -math.inf]]))
@example(("momentum", [[0.0, 0.0, 0.0, math.nextafter(_E_EDGE, 2.0), 1.0],
                       [0.0, 0.0, 0.0, math.nextafter(_E_EDGE, 0.0), 1.0]]))
@example(("momentum", [[0.0, 0.0, 3.0, x, 1.0] for x in (
    math.nextafter(_E_SHELL, 0.0), _E_SHELL, math.nextafter(_E_SHELL, 4.0))]))
@example(("speed", [[1.0 + 1e-12, 0.0, 0.0, 0.5], [1.0 - 1e-12, 0.0, 0.0, 0.5]]))
@example(("settings", [[1.0 + 1e-12, 0.0, 0.0] + [0.0, 1.0, 0.0] * 3,
                       [0.0, 0.0, 1.0 - 1e-12] + [0.0, 1.0, 0.0] * 3]))
@example(("state", [[math.sqrt(1.0 + d), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
                    for d in (1e-12, -1e-12)]))
@example(("speed", [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, BETA_CLAMP]]))
@example(("rapidity", [[1.0, 0.0, 0.0, 18.0], [0.0, 0.0, 1.0, 0.0]]))
@example(("rapidity", [[1.0, 0.0, 0.0, -18.0], [0.0, 0.0, 1.0, 0.5], [0.0, 1.0, 0.0, -0.0]]))
@example(("spatial", [[0.0, 0.0, 0.0, 1.0], [0.0, -0.0, 0.0, 2.5]]))  # at rest
@example(("spatial", [[1e6, 0.0, 0.0, 1.0], [0.0, 6e5, -8e5, 1.0], [3e5, 4e5, 1.2e6, 2]]))
@example(("spatial", [[0.0, 0.0, 1.0, 1.0], [0.0, math.inf, 1.0, 1.0]]))
@example(("spatial", [[0.3, -1.2, 2.0, 1.0], [math.nan, 0.0, 1.0, 1.0]]))
# E from _rowdot here is one ulp below sqrt(1 + (x*x + y*y + z*z)) summed left to right
@example(("spatial", [[-457.09679093979696, 759.3023466698444, -871.571125375618, 1.0]]))
# one vector's E goes through p.dot(p), the rows' through _rowdot: |p| = 1e-8, E/m = 1e6
# and a momentum just under the 1e150 guard past which one vector takes the rows' route
@example(("spatial", [[1e-8, 0.0, 0.0, 1.0], [0.0, 6e-9, -8e-9, 1.0], [3e-9, -4e-9, 1.2e-8, 2.0]]))
@example(("spatial", [[0.0, 0.0, _P_1E6, 1.0], [0.6 * _P_1E6, -0.8 * _P_1E6, 0.0, 1.0],
                      [-0.48 * _P_1E6, 0.6 * _P_1E6, 0.64 * _P_1E6, 1.0]]))
@example(("spatial", [[math.nextafter(1e150, 0.0), 0.0, 0.0, 1.0], [9e149, -3e149, 2e149, 1.0],
                      [1.0, 2.0, 3.0, 9.9e149]]))
def test_constructors(case):
    _constructed(*case)


@settings(max_examples=30)
@given(_rows(st.tuples(_DIRECTIONS, st.floats(0.0, 1.0))))
@example([(X_HAT, 0.3), (X_HAT, BETA_CLAMP)])
def test_boost_spec_on_a_beta_grid(rows):
    """One direction, row 0's, at each row's speed: ``chsh-scan``'s beta grid."""
    _constructed("speed", [[*rows[0][0], beta] for _, beta in rows])


@settings(max_examples=50)
@given(_rows(st.tuples(_DIRECTIONS, st.floats(-25.0, 25.0) | st.sampled_from([-0.0, -1e-300]))))
@example([(X_HAT, 0.5), (-_N, -3.0), (Z_HAT, -0.0), (_N, -1e-300)])
@example([(_N, alpha) for alpha in (0.5, -3.0, -0.0, -1e-300)])
def test_rapidity_rows(rows):
    """A negative rapidity flips its row; along a stack, then along one direction."""
    _constructed("rapidity", [[*e, alpha] for e, alpha in rows])


_SPEED_RANGE = r"^beta must lie in \[0, 1\), got "
_ROWS_6 = np.array([0.3] * 6 + [1.5, 2.0])  # row 6 and on failing
_OFF_E, _NAN_E = [1.0, 1e-5, 0.0], [math.nan, 0.0, 0.0]
_STATE_11 = bell_state(1, 1, _pair()).amps
_SCALED = {scale: np.array([_STATE_11, _STATE_11 * scale]) for scale in (math.nan, 1.0 + 1e-9)}

_CONSTRUCTOR_RAISES = (
    Raises("speed", BoostSpec, (X_HAT, _ROWS_6), (X_HAT, 1.5), _SPEED_RANGE + "1.5", 6),
    Raises("unit direction", ChshSettings,
           (np.array([X_HAT] * 6 + [2.0 * X_HAT, 3.0 * X_HAT]), X_HAT, X_HAT, X_HAT),
           (2.0 * X_HAT, X_HAT, X_HAT, X_HAT), r"^a must be a unit vector \(\|v\| = 2.0\)", 6),
    Raises("normalized amplitudes", TwoQubitState,
           (np.array([[1, 0, 0, 0]] * 6 + [[2, 0, 0, 0], [3, 0, 0, 0]]), 1.0, _pair()),
           ([2, 0, 0, 0], 1.0, _pair()), r"^spin sector not normalized: sum \|amps\|\^2 = 4.0", 6),
    Raises("kin_factor", TwoQubitState, ([1, 0, 0, 0], np.array([1.0] * 6 + [-1.0, 0.0]), _pair()),
           ([1, 0, 0, 0], -1.0, _pair()), "^kin_factor must be finite and positive, got -1.0", 6),
    *(Raises(f"beta{i}", BoostSpec, (X_HAT, beta), None if bad is None else (X_HAT, bad),
             message, row) for i, (beta, bad, message, row) in enumerate([
                 ([0.3, math.nan], math.nan, "^beta must be finite$", None),
                 ([0.3, 1.0], 1.0, _SPEED_RANGE + "1.0", 1),
                 ([0.3, -0.1], -0.1, _SPEED_RANGE + "-0.1", 1),
                 ([[0.3]], None, "^boost rows take a 1-D array", None),
                 ([0.5, math.nan], math.nan, "^beta must be finite$", None),
                 ([0.5, 1.0], 1.0, _SPEED_RANGE + "1.0", 1),
                 ([[0.5]], None, "^boost rows take a 1-D array", None)])),
    Raises("alpha0", BoostSpec.from_rapidity, (X_HAT, [0.3, math.nan]), (X_HAT, math.nan),
           "^beta must be finite$"),
    # flipped, then tanh = 1; and tanh = 1
    *(Raises(f"alpha{i}", BoostSpec.from_rapidity, (X_HAT, [0.3, alpha]), (X_HAT, alpha),
             _SPEED_RANGE + "1.0", 1) for i, alpha in ((1, -math.inf), (2, math.inf))),
    Raises("BoostSpec-e0", BoostSpec, ([X_HAT, _OFF_E], [0.3, 0.6]), (_OFF_E, 0.6),
           r"^boost direction must be a unit vector \(\|v\| = 1.00000000005\)", 1),
    Raises("BoostSpec-e1", BoostSpec, ([X_HAT, _NAN_E], [0.3, 0.6]), (_NAN_E, 0.6),
           "^boost direction must be finite$"),
    Raises("ChshSettings-e0", ChshSettings, (X_HAT, X_HAT, [X_HAT, _OFF_E], X_HAT),
           (X_HAT, X_HAT, _OFF_E, X_HAT), r"^b must be a unit vector \(\|v\| = 1.00000000005\)", 1),
    Raises("ChshSettings-e1", ChshSettings, (X_HAT, X_HAT, [X_HAT, _NAN_E], X_HAT),
           (X_HAT, X_HAT, _NAN_E, X_HAT), "^b must be finite$"),
    Raises("direction count", BoostSpec, ([X_HAT, Y_HAT], [0.1, 0.2, 0.3]), None,
           "^2 boost directions for 3 speeds$"),
    *(Raises(f"momentum-{energy}", FourMomentum,
             ([[0.0, 0.0, 3.0], [0.0, 0.0, 0.0]], [math.sqrt(10.0), energy]), ([0.0] * 3, energy),
             message, row) for energy, message, row in (
                 (math.nan, "^four-momentum components must be finite$", None),
                 (2.0, r"^off mass shell: E\^2 - \|p\|\^2 - m\^2 = 3.000e\+00 for E=2.0, m=1.0", 1),
                 (0.5, "^energy 0.5 below rest mass 1.0", 1))),
    Raises("spatial-nan", FourMomentum.from_spatial, ([[0.0, 0.0, 1.0], [math.nan, 0.0, 1.0]],),
           ([math.nan, 0.0, 1.0],), "^four-momentum components must be finite$"),
    Raises("amplitudes-nan", TwoQubitState, (_SCALED[math.nan], 1.0, _pair()),
           (_STATE_11 * math.nan, 1.0, _pair()), "^amplitudes must be finite$"),
    Raises("amplitudes-1.000000001", TwoQubitState, (_SCALED[1.0 + 1e-9], 1.0, _pair()),
           (_STATE_11 * (1.0 + 1e-9), 1.0, _pair()),
           r"^spin sector not normalized: sum \|amps\|\^2 = \S+", 1),
)


# -- FourMomentum's members --

def _members(rows, read, raises=None):
    """``read(q)`` on n momenta against each row's momentum built by the checked constructor."""
    p, m = (np.array(x) for x in zip(*rows))
    batch = FourMomentum.from_spatial(p, m)
    ones = [(FourMomentum(batch.p[k], batch.E[k], batch.m[k]),) for k in range(len(rows))]
    _match(read, ones, batch, raises=raises)


_MOMENTA = _rows(st.tuples(st.tuples(*[st.floats(-1e6, 1e6)] * 3), st.floats(1e-3, 1e3)))


@_covers("FourMomentum.row", "FourMomentum.p_mag")
@settings(max_examples=100)
@given(_MOMENTA)
@example([((0.0, 0.0, 0.0), 1.0), ((0.3, -1.2, 2.0), 1.0), ((1e-9, 0.0, 0.0), 2.0)])
def test_momentum_rows_and_p_mag(rows):
    _members(rows, lambda q: (q, q.p_mag))


@_covers("FourMomentum.rapidity")
@settings(max_examples=100)
@given(_MOMENTA)
@example([((0.0, 0.0, 0.0), 1.0), ((0.0, 0.5, 0.0), 1.0), ((0.0, 1.0, 0.0), 1.0),
          ((3.0, 4.0, 0.0), 2.0)])  # at rest, |p| below, at and above m
def test_momentum_rapidity(rows):
    _members(rows, lambda q: q.rapidity)


@_covers("FourMomentum.direction")
@settings(max_examples=100)
@given(_MOMENTA)
@example([((0.3, -1.2, 2.0), 1.0), ((0.0, -0.0, 0.0), 1.0)])  # a row at rest
def test_momentum_direction(rows):
    _members(rows, lambda q: q.direction(),
             (ValueError, "^direction undefined for a particle at rest$"))


# -- the pair kernel and what reads its rows --

def _boost_direction(kind, n, u):
    """A unit boost direction whose c = e.p_hat against the pair momentum ``n`` is of ``kind``.

    c = 0 holds exactly only for p_hat = +z and e in the xy-plane; ``u`` is
    any direction off ``n`` (or off the z-axis for c = 0).
    """
    if kind == "c=0":
        return _direction([u[0], u[1], 0.0])
    w = _direction(u - (u @ n) * n)  # a unit vector perpendicular to n
    return _direction({"c>0": n + w, "c<0": -n + w, "anti": -n + 1e-8 * w}[kind])


def _row_inputs(kind, n, u, log_r, beta, amps, vecs):
    """One row's pair, boost and settings, built by the public constructors.

    ``kind`` picks the boost: c = e.p_hat of the first particle > 0, = 0
    exactly (p_hat = +z), < 0, anti-collinear within 1e-8 rad or along ``u``
    ("any"), each at speed ``beta``; or the rest frame of the first or the
    second particle.
    """
    n = Z_HAT if kind == "c=0" else n
    r = math.exp(log_r)
    s = _state(amps, FourMomentum.from_spatial(math.sqrt((r - 1.0) * (r + 1.0)) * n))
    if kind.startswith("rest"):
        q = (s.p_label, s.p2_label)[kind == "rest2"]
        b = BoostSpec(-q.direction(), q.p_mag / q.E)
    else:
        b = BoostSpec(u if kind == "any" else _boost_direction(kind, n, np.asarray(u)), beta)
    return s, b, ChshSettings(*vecs)


def _usable_row(row):
    kind, n, u = row[:3]
    n = Z_HAT if kind == "c=0" else n
    return kind == "any" or math.hypot(*(u - (u @ n) * n)) > 1e-3


def _pipeline(s, b, c):
    out = boost_two_particle(s, b)
    value, best = chsh(out, c, b.beta, b.e), chsh_max(out)
    assert np.ndim(b.beta) or type(value) is type(best) is float  # one pair: Python floats
    return out, value, best, bell_decompose(out)


_PAIR_ROWS = _rows(st.tuples(
    st.sampled_from(["c>0", "c=0", "c<0", "anti", "any", "rest1", "rest2"]), _DIRECTIONS,
    _DIRECTIONS, st.floats(math.log1p(1e-10), math.log(1e6)), st.floats(0.0, BETA_CLAMP), _AMPS,
    st.tuples(*[_DIRECTIONS] * 4)).filter(_usable_row))
_PAPER_VECS = (CASE1_SETTINGS.a, CASE1_SETTINGS.a_prime, CASE1_SETTINGS.b, CASE1_SETTINGS.b_prime)
_XYZN = (X_HAT, Y_HAT, Z_HAT, _N)
# c < 0 rows on which Python's (e_i + p_i) ** 2 in 1 + c differs from numpy's square
_POW_ROWS = [("any", np.array([-0.24165706266731596, 0.2372312355240511, 0.9409161519257373]),
              np.array([0.7773948549046965, 0.15391586300019786, -0.6098910941181305]),
              2.8783710297090037, 0.7858949044038348),
             ("any", np.array([-0.5116759978187781, 0.79007475743206, 0.3375937661225831]),
              np.array([-0.8150163791462788, -0.5561696103817352, -0.1625535795087825]),
              0.9943390201882556, 0.5157558984978303)]


def _bell_11(rows):
    """The rows on the Bell 11 pair, at the paper's settings unless a row gives others."""
    return [row[:5] + (_BELL_11, row[5] if len(row) > 5 else _PAPER_VECS) for row in rows]


@_covers("TwoQubitState.row", "bell_state", "boost_two_particle", "chsh", "chsh_max",
         "bell_decompose", "BellCoefficients")
@settings(max_examples=200)
@given(_PAIR_ROWS)
@example(_bell_11([("c>0", _N, X_HAT, math.log(10.0), 0.6),
                   ("c<0", _N, X_HAT, math.log(1e3), 0.9),
                   ("anti", _N, X_HAT, math.log(1e6), BETA_CLAMP),
                   ("rest1", _N, X_HAT, math.log(1e6), 0.0),
                   ("rest2", _N, X_HAT, math.log(1e6), 0.0),
                   ("c=0", _N, X_HAT, math.log1p(1e-10), 0.0)]))
@example(_bell_11(_POW_ROWS + [("c>0", _N, X_HAT, math.log(10.0), 0.6)]))
def test_pairs(rows):
    """Each row its own pair, boost and settings; ``bell_state`` on the rows' momenta."""
    ones = [_row_inputs(*row) for row in rows]
    pairs, boosts, settings_ = zip(*ones)
    p = [s.p_label for s in pairs]
    s = TwoQubitState([s.amps for s in pairs], 1.0,
                      FourMomentum([q.p for q in p], [q.E for q in p]))
    c = ChshSettings(*(np.array([getattr(c, name) for c in settings_])
                       for name in ("a", "a_prime", "b", "b_prime")))
    _match(_pipeline, ones, s, BoostSpec([b.e for b in boosts], [b.beta for b in boosts]), c)
    _match(lambda q: bell_state(1, 1, q), [(q,) for q in p], s.p_label)


@settings(max_examples=200)
@given(_PAIR_ROWS)
@example(_bell_11([("c=0", Z_HAT, X_HAT, math.log(10.0), beta)  # the paper's geometry
                   for beta in (0.01, 0.6, BETA_CLAMP)]))
@example(_bell_11([("anti", _N, X_HAT, math.log(1e6), beta, _XYZN)  # near the rest frame
                   for beta in (_STOP_1E6, 0.5)]))
@example(_bell_11([("c>0", _N, X_HAT, math.log1p(1e-10), beta, _XYZN)  # E/m 1 + 1e-10
                   for beta in (1e-12, 0.3)]))
def test_pairs_on_a_beta_grid(rows):
    """Row 0's pair, boost direction and settings at each row's speed: ``chsh-scan``'s grid."""
    s0, b0, c0 = _row_inputs(*rows[0])
    betas = [_row_inputs(*row)[1].beta for row in rows]
    _match(_pipeline, [(s0, BoostSpec(b0.e, beta), c0) for beta in betas],
           s0, BoostSpec(b0.e, betas), c0)


def _chained(s, e, a1, a2):
    return boost_two_particle(boost_two_particle(s, BoostSpec.from_rapidity(e, a1)),
                              BoostSpec.from_rapidity(e, a2))


def _chained_example(rng):
    e = [unit(rng) for _ in range(8)]
    a1, a2 = rng.uniform(0.1, 1.5, size=(2, 8))
    z = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
    return [((*z[k].real, *z[k].imag), e[k], a1[k], a2[k]) for k in range(8)]


@settings(max_examples=20)
@given(_rows(st.tuples(_AMPS, _DIRECTIONS, st.floats(0.1, 1.5), st.floats(0.1, 1.5))))
@example(_chained_example(np.random.default_rng(5)))
def test_chained_rapidity_boosts(rows):
    """Rapidity rows (``from_rapidity``), then a second boost on the boosted rows, as in
    verify; one momentum for every row."""
    p = FourMomentum.along_z(2.0)
    ones = [(_state(amps, p), e, a1, a2) for amps, e, a1, a2 in rows]
    _match(_chained, ones, TwoQubitState([s.amps for s, *_ in ones], 1.0, p),
           *(np.array(x) for x in list(zip(*rows))[1:]))


_TWO = _two_pairs()
_B10 = TwoQubitState(np.tile(bell_state(1, 0, _pair()).amps, (2, 1)), 1.0, _pair())
_NAN_AMPS = np.full(4, complex(math.nan, 0.0))
_GB = BoostSpec([X_HAT, -_N], [0.3, 0.6]).__dict__
_NAN_GB = dict(_GB, gamma_beta=np.array([_GB["gamma_beta"][0], math.nan]))
_NAN_Q = np.array(_TWO.p_label.p)
_NAN_Q[1, 0] = math.nan
_NAN_P = _unchecked(TwoQubitState, amps=_TWO.amps, kin_factor=1.0, p2_label=_TWO.p2_label,
                    p_label=_unchecked(FourMomentum, p=_NAN_Q, E=_TWO.p_label.E, m=_TWO.p_label.m))


def _nan_setting(a):
    return _unchecked(ChshSettings, a=np.array(a), a_prime=X_HAT, b=Y_HAT, b_prime=Z_HAT)


_PAIR_RAISES = (
    Raises("nan amplitude", chsh,  # past the state's own finite check
           (_unchecked(TwoQubitState, amps=np.array([bell_state(1, 0, _pair()).amps, _NAN_AMPS])),
            CASE1_SETTINGS, np.array([0.3, 0.6]), X_HAT),
           (_unchecked(TwoQubitState, amps=_NAN_AMPS), CASE1_SETTINGS, 0.6, X_HAT),
           "^correlation tensor not real$", error=ArithmeticError),
    # as for one pair at beta NaN, before any observable is formed
    Raises("nan beta", chsh, (_B10, CASE1_SETTINGS, np.array([0.3, math.nan]), X_HAT),
           (_B10.row(1), CASE1_SETTINGS, math.nan, X_HAT),
           r"^beta must lie in \[0, 1\], got nan", 1),
    Raises("nan setting", chsh, (_B10, _nan_setting([X_HAT, _NAN_E]), np.array([0.3, 0.6]),
                                 np.array([X_HAT, Y_HAT])),
           (_B10.row(1), _nan_setting(_NAN_E), 0.6, Y_HAT),
           "^observable must square to the identity$"),
    Raises("nan rapidity", boost_two_particle, (_TWO, _unchecked(BoostSpec, **_NAN_GB)),
           (_TWO.row(1), _unchecked(BoostSpec, **{name: v[1] for name, v in _NAN_GB.items()})),
           "^su2 is not unitary$"),
    Raises("nan momentum", boost_two_particle, (_NAN_P, BoostSpec(X_HAT, [0.3, 0.6])),
           (_NAN_P.row(1), BoostSpec(X_HAT, 0.6)), "^su2 is not unitary$"),
    Raises("pair at rest", bell_state,
           (0, 0, FourMomentum([[0.0, 0.0, 3.0], [0.0, 0.0, 0.0]], [math.sqrt(10.0), 1.0])),
           (0, 0, FourMomentum.rest()), r"^momentum-conserved pair requires \|p\| > 0$"),
)


# -- wigner_angle --

def _angles(rows, forms, raises=None):
    """``wigner_angle`` on the rows in each of ``forms``: n of both ("rows", and as lists), n
    speeds with row 0's E/m ("speeds") or row 0's speed with n values ("values")."""
    betas, ratios = (list(x) for x in zip(*rows))
    n = len(rows)
    for form in forms:
        b, r = {"rows": (betas, ratios), "speeds": (betas, ratios[0]),
                "values": (betas[0], ratios)}[form]
        ones = list(zip(b if isinstance(b, list) else [b] * n,
                        r if isinstance(r, list) else [r] * n))
        _match(wigner_angle, ones, np.array(b), np.array(r), raises=raises)
    if "rows" in forms:  # lists are rows too
        _match(wigner_angle, rows, betas, ratios, raises=raises)


_ANGLE_ROWS = _rows(st.tuples(st.floats(0.0, 1.0), st.floats(1.0, 1e6)), 8)


@_covers("wigner_angle")
@settings(max_examples=200)
@given(_ANGLE_ROWS)
@example([(0.0, 1.0), (BETA_CLAMP, 1e6), (BETA_CLAMP, 1.0), (0.0, 1e6)])
@example([(1.0, 1.0), (1.0, 1e6), (0.5, 1e300)])
def test_wigner_angle(rows):
    _angles(rows, ["rows"])


@settings(max_examples=200)
@given(_ANGLE_ROWS)
@example([(0.0, 1.0), (BETA_CLAMP, 1.0)])
@example([(0.0, 1e6), (0.5, 1e6), (BETA_CLAMP, 1e6)])
@example([(1.0, 10.0), (BETA_CLAMP, 10.0), (1.0, 10.0)])
def test_wigner_angle_on_n_speeds(rows):
    _angles(rows, ["speeds"])


@settings(max_examples=200)
@given(_ANGLE_ROWS)
@example([(0.0, 1.0), (0.0, 1e6)])
@example([(BETA_CLAMP, 1.0), (BETA_CLAMP, 10.0), (BETA_CLAMP, 1e6)])
@example([(1.0, 1.0), (1.0, 10.0), (1.0, 1e300)])
def test_wigner_angle_on_n_values_of_e_over_m(rows):
    _angles(rows, ["values"])


# valid values and every way out of the domain: NaN, +-inf, beta < 0, beta > 1, E/m < 1
@settings(max_examples=300)
@given(_rows(st.tuples(
    st.floats(0.0, 1.0) | st.sampled_from([math.nan, math.inf, -math.inf, -1e-300, -0.5,
                                           1.0 + 2.0 ** -52, 1.5]),
    st.floats(1.0, 1e6) | st.sampled_from([math.nan, math.inf, -math.inf, 1.0 - 2.0 ** -53, 0.5]))))
@example([(0.5, 10.0), (1.0, 10.0)])
@example([(1.0, 10.0), (1.0 + 2.0 ** -52, 10.0)])
@example([(0.5, 10.0), (0.5, math.nan)])
@example([(-1e-300, 10.0)])
@example([(0.3, 1.0 - 2.0 ** -53), (0.3, 2.0)])
@example([(math.inf, 2.0)])
@example([(0.0, 1.0), (BETA_CLAMP, 1e6)])
def test_wigner_angle_out_of_its_domain(rows):
    _angles(rows, ["rows", "speeds", "values"], (ValueError, ""))


_ANGLE_RAISES = (
    Raises("closed-form beta", wigner_angle, (_ROWS_6, 10.0), (1.5, 10.0),
           r"^beta must lie in \[0, 1\], got 1.5", 6),
    Raises("finite E/m", wigner_angle, (0.5, np.array([10.0] * 6 + [math.inf, math.nan])),
           (0.5, math.inf), "^E/m must be finite, got inf", 6),
    Raises("E/m >= 1", wigner_angle, (0.5, np.array([10.0] * 6 + [0.5, 0.25])), (0.5, 0.5),
           "^E/m must be >= 1, got 0.5", 6),
    *(Raises(rid, wigner_angle, args, None, "^wigner_angle takes n speeds and/or n values")
      for rid, args in (("2-D speeds", (np.zeros((2, 2)), 2.0)),
                        ("2-D ratios", (0.5, np.ones((1, 2)))),
                        ("lengths", (np.zeros(2), np.ones(3))))),
)


# -- the closed forms of the paper's geometry --

def _table(state, vectors):
    return lambda beta, omega: chsh_closed(state, vectors, beta, omega)


#: each closed form, and the indices of its arguments in a (beta, omega, a, b) row
_CLOSED = {"chsh_case1_closed": (chsh_case1_closed, (0, 1)),
           "chsh_universal": (chsh_universal, (0,)),
           "expectation_case1_closed": (expectation_case1_closed, (2, 3, 0, 1)),
           "expectation_case2_closed": (expectation_case2_closed, (2, 3, 0))}
_UNDEFINED = (ValueError, "^observable undefined: direction perpendicular to the boost at beta = 1")


@_covers("chsh_closed", *_CLOSED)
@settings(max_examples=200)
@given(_rows(st.tuples(st.floats(0.0, 1.0) | st.sampled_from([0.0, BETA_CLAMP, 1.0]),
                       st.floats(-10.0, 10.0), _DIRECTIONS | st.sampled_from([Y_HAT, Z_HAT]),
                       _DIRECTIONS | st.sampled_from([X_HAT, Z_HAT])), 8),
       st.sampled_from(["00", "01", "10", "11"]), st.sampled_from(["case1", "case2"]))
@example([(0.0, 0.0, X_HAT, X_HAT), (BETA_CLAMP, 1.4, _N, Z_HAT), (1.0, 1.4, _N, X_HAT)],
         "11", "case1")
@example([(1.0, 0.3, Z_HAT, X_HAT), (0.5, 0.3, Z_HAT, X_HAT)], "01", "case2")
def test_closed_forms(rows, state, vectors):
    """The table's entry for ``state`` and ``vectors``, both curves and both expectations on the
    rows' (beta, omega, a, b), then with each argument row 0's for every row.  Rows with a
    direction perpendicular to x at beta = 1 raise in the expectations."""
    columns = [np.array(x) for x in zip(*rows)]
    for call, at in [(_table(state, vectors), (0, 1)), *_CLOSED.values()]:
        ones = [tuple(row[i] for i in at) for row in rows]
        args = tuple(columns[i] for i in at)
        _match(call, ones, *args, raises=_UNDEFINED)
        for i in range(len(at) if len(at) > 1 else 0):
            _shared(call, ones, args, i, raises=_UNDEFINED)


def _closed_raises(case, names, rows, one, message, row, passes=None):
    """``Raises`` for each closed form of ``names``, its arguments picked from (beta, omega, a,
    b) tuples; "chsh_closed" is the table's 11 / case1 entry."""
    calls = dict(_CLOSED, chsh_closed=(_table("11", "case1"), (0, 1)))

    def pick(args, at):
        return None if args is None else tuple(args[i] for i in at)
    return [Raises(f"{name}-{case}", calls[name][0], pick(rows, calls[name][1]),
                   pick(one, calls[name][1]), message, row, passes=pick(passes, calls[name][1]))
            for name in names]


# rows 6 and 7 out of the domain
_ROWS_NAN = np.array([0.3] * 6 + [math.nan, math.inf])
_CLOSED_RAISES = (
    *_closed_raises("beta", ["chsh_closed", *_CLOSED], (_ROWS_6, 0.3, X_HAT, X_HAT),
                    (1.5, 0.3, X_HAT, X_HAT), r"^beta must lie in \[0, 1\], got 1.5", 6),
    *_closed_raises("omega", ["chsh_closed", "chsh_case1_closed", "expectation_case1_closed"],
                    (0.5, _ROWS_NAN, X_HAT, Z_HAT), (0.5, math.nan, X_HAT, Z_HAT),
                    "^omega must be finite, got nan", 6),
    *_closed_raises("undefined", ["expectation_case1_closed", "expectation_case2_closed"],
                    (1.0, 0.3, np.array([X_HAT, _N, Z_HAT]), X_HAT), (1.0, 0.3, Z_HAT, X_HAT),
                    _UNDEFINED[1], 2, passes=(1.0, 0.3, np.array([X_HAT, _N]), X_HAT)),
    Raises("2-D speeds", chsh_universal, (np.zeros((2, 2)),), None,
           r"^the closed forms take n speeds and/or n angles, got shapes \(2, 2\) and \(\)"),
    Raises("state", chsh_closed, ("22", "case1", 0.5, 0.3), None,
           "^no closed form for state '22' with vectors 'case1'"),
)


# -- the brute-force routes: 4x4 matrices, spinor products, the 2x2 exponential --

def _oracle_row(kind, n, u, log_r, beta):
    """One row's boost and momentum, built by the public constructors.

    ``kind`` picks c = e.p_hat > 0, = 0 exactly (p_hat = +z), < 0 or
    anti-collinear within 1e-8 rad at speed ``beta``; a zero boost; a boost
    into the rest frame of the particle ("rest1") or of its back-to-back
    partner ("rest2") at E/m <= 100; or a particle at rest, the identity
    branch of L(p).
    """
    r = {"at rest": 1.0, "rest1": min(math.exp(log_r), 100.0),
         "rest2": min(math.exp(log_r), 100.0)}.get(kind, math.exp(log_r))
    n = Z_HAT if kind == "c=0" else n
    p = FourMomentum.from_spatial(math.sqrt((r - 1.0) * (r + 1.0)) * n)
    if kind.startswith("rest"):
        return BoostSpec(-n if kind == "rest1" else n, p.p_mag / p.E), p
    if kind in ("zero", "at rest"):
        return BoostSpec(u, 0.0 if kind == "zero" else beta), p
    return BoostSpec(_boost_direction(kind, n, u), beta), p


def _usable_oracle_row(row):
    kind, n, u = row[:3]
    n = Z_HAT if kind == "c=0" else n
    return kind not in ("c>0", "c=0", "c<0", "anti") or math.hypot(*(u - (u @ n) * n)) > 1e-3


def _stack(scalar):
    """n boosts and n momenta holding the scalar boosts and momenta row by row."""
    boosts, momenta = zip(*scalar)
    return (BoostSpec([b.e for b in boosts], [b.beta for b in boosts]),
            FourMomentum([p.p for p in momenta], [p.E for p in momenta]))


def _matrices(b, p):
    L = boost_matrix(b)
    return {"boost_matrix": L, "standard_boost": standard_boost(p),
            "minkowski_defect": minkowski_defect(L)}


def _spinor_routes(b, p):
    w4 = little_group_lorentz(b, p)
    return {"little_group_lorentz": w4, "rotation_angle": rotation_angle(w4),
            "little_group_oracle": little_group_oracle(b, p),
            "d_half_pure_boost": d_half_pure_boost(b), "d_half_standard": d_half_standard(p),
            "sigma_dot": sigma_dot(b.e), "d_half_exponential": d_half_exponential(b.e, b.alpha)}


#: the routes that read the boost alone, and those that read the momentum alone
_READS_ONE = ({"boost_matrix", "minkowski_defect", "d_half_pure_boost", "sigma_dot",
               "d_half_exponential"}, {"standard_boost", "d_half_standard"})


_ORACLE_ROWS = _rows(st.tuples(
    st.sampled_from(["c>0", "c=0", "c<0", "anti", "zero", "rest1", "rest2", "at rest"]),
    _DIRECTIONS, _DIRECTIONS, st.floats(math.log1p(1e-10), math.log(1e3)),
    st.floats(0.0, 0.999)).filter(_usable_oracle_row))
_C_LT_0 = ("c<0", _N, X_HAT, math.log(50.0), 0.9)


@_covers("boost_matrix", "standard_boost", "apply_boost")
@settings(max_examples=60)
@given(_ORACLE_ROWS)
@example([("at rest", _N, X_HAT, 0.0, 0.6), ("zero", _N, X_HAT, math.log(10.0), 0.0)])
# a boost into the particle's rest frame at E/m 90 gives E' below m in float64
@example([("c>0", _N, X_HAT, math.log(10.0), 0.6), ("rest1", _N, X_HAT, math.log(90.0), 0.5)])
def test_boost_matrices(rows):
    """n boosts and momenta; Lambda p on rows, which fall below the rest mass in float64 where
    one row does."""
    ones = [_oracle_row(*row) for row in rows]
    b, p = _stack(ones)
    _match(_matrices, ones, b, p)
    _match(lambda b, p: apply_boost(boost_matrix(b), p), ones, b, p,
           raises=(ValueError, "below rest mass|off mass shell"))


@_covers("little_group_lorentz", "rotation_angle", "little_group_oracle", "d_half_pure_boost",
         "d_half_standard", "sigma_dot", "d_half_exponential")
@settings(max_examples=100)
@given(_ORACLE_ROWS)
@example([("at rest", _N, X_HAT, 0.0, 0.6), ("zero", _N, X_HAT, math.log(10.0), 0.0),
          ("c>0", _N, X_HAT, math.log(10.0), 0.6)])
@example([("rest1", _N, X_HAT, math.log(100.0), 0.0), ("rest2", _N, X_HAT, math.log(100.0), 0.0),
          ("at rest", _N, X_HAT, 0.0, 0.0)])
def test_oracles(rows):
    ones = [_oracle_row(*row) for row in rows]
    _match(_spinor_routes, ones, *_stack(ones))


@settings(max_examples=100)
@given(_ORACLE_ROWS)
@example([_C_LT_0, ("at rest", _N, X_HAT, 0.0, 0.3)])  # one c < 0 boost for both momenta
@example([("at rest", _N, X_HAT, 0.0, 0.3), _C_LT_0])  # one momentum at rest for both boosts
def test_oracles_on_one_boost_or_momentum(rows):
    """One boost, then one momentum, row 0's, for every row; a route that reads it alone
    gives one value."""
    ones = [_oracle_row(*row) for row in rows]
    for i in (0, 1):
        _shared(lambda b, p: _matrices(b, p) | _spinor_routes(b, p), ones, _stack(ones), i,
                shared=_READS_ONE[i])


@_covers("little_group_closed", "WignerRotation")
@settings(max_examples=100)
@given(_ORACLE_ROWS, st.lists(_NUDGES, min_size=6, max_size=6))
@example([_C_LT_0, ("at rest", _N, X_HAT, 0.0, 0.3)], [0.0] * 6)
@example([("rest1", _N, X_HAT, math.log(100.0), 0.0), ("rest2", _N, X_HAT, math.log(100.0), 0.0),
          ("zero", _N, X_HAT, math.log(10.0), 0.0)], [0.0, 2e-12, 0.0, 0.0, 0.0, 0.0])
# n boosts along x on one momentum along z, and one boost on n momenta
@example([("c=0", _N, X_HAT, math.log(math.sqrt(10.0)), beta) for beta in (0.3, 0.6)], [0.0] * 6)
def test_little_group_closed(rows, nudges):
    """n boosts and momenta, then one boost, then one momentum, row 0's, for every row; and
    ``WignerRotation`` on the rows' quaternions, each scaled by 1 plus its nudge, which
    takes some across the unitarity tolerance."""
    ones = [_oracle_row(*row) for row in rows]
    args = _stack(ones)
    _match(little_group_closed, ones, *args)
    for i in (0, 1):
        _shared(little_group_closed, ones, args, i)
    quaternions = [(w.cos_half * (1.0 + d), w.sin_half_vec * (1.0 + d))
                   for w, d in zip((little_group_closed(*one) for one in ones), nudges)]
    _match(WignerRotation, quaternions, *(np.array(x) for x in zip(*quaternions)),
           raises=(ValueError, "^su2 is not unitary$"))


_P_ROWS = FourMomentum.from_spatial([[0.0, 0.0, 3.0], [1.0, -2.0, 0.5]])
_TWO_ORACLE_ROWS = [(BoostSpec(X_HAT, 0.3), _P_ROWS.row(0)), (BoostSpec(X_HAT, 0.6), _P_ROWS.row(1))]


@pytest.mark.parametrize("i", [1, 0], ids=["boosts", "momenta"])
def test_little_group_closed_on_one_shared_value(i):
    """n boosts along x on one momentum, then one boost on n momenta, row by row as their
    one-value calls."""
    _shared(little_group_closed, _TWO_ORACLE_ROWS, _stack(_TWO_ORACLE_ROWS), i)


_C_GT_0 = _oracle_row("c>0", _N, X_HAT, math.log(10.0), 0.6)
_B2, _P2 = _stack([_C_GT_0] * 2)
_L_OFF = np.array(boost_matrix(_B2))
_L_OFF[1, 3, 3] *= 1.01  # the second row's E' off the mass shell
_AT_1E5 = FourMomentum.from_spatial(math.sqrt((1e5 - 1.0) * (1e5 + 1.0)) * _N)
_LOST = [_C_GT_0, (BoostSpec(-_N, _AT_1E5.p_mag / _AT_1E5.E), _AT_1E5)]
_NAN_ALPHA = _unchecked(BoostSpec, e=_B2.e, beta=_B2.beta,
                        alpha=np.array([_B2.alpha[0], math.nan]), gamma=_B2.gamma)
_B_LT_0, _P_LT_0 = _stack([_oracle_row("c<0", _N, X_HAT, math.log(10.0), 0.6)] * 2)
_NAN_QQ = np.array(_P_LT_0.p)
_NAN_QQ[1, 2] = math.nan
_FINITE = "^four-momentum components must be finite$"

_ORACLE_RAISES = (
    Raises("off shell", apply_boost, (_L_OFF, _P2), (_L_OFF[1], _P2.row(1)),
           r"^off mass shell: E\^2 - \|p\|\^2 - m\^2 = \S+ for E=\S+, m=1.0", 1,
           passes=(_L_OFF[:1], FourMomentum(_P2.p[:1], _P2.E[:1]))),
    Raises("lost unitarity", little_group_oracle, _stack(_LOST), _LOST[1],
           "^little-group product lost unitarity; rapidities too large$", error=ArithmeticError,
           passes=_stack(_LOST[:1])),
    Raises("nan boost", little_group_oracle, (_NAN_ALPHA, _P2),
           (_unchecked(BoostSpec, e=_B2.e[1], beta=_B2.beta[1], alpha=math.nan,
                       gamma=_B2.gamma[1]), _P2.row(1)), _FINITE),
    Raises("nan sigma_dot", sigma_dot, (np.array([X_HAT, _NAN_E]),), (_NAN_E,),
           "^sigma_dot requires finite components$"),
    Raises("nan momentum", little_group_oracle,
           (_B_LT_0, _unchecked(FourMomentum, p=_NAN_QQ, E=_P_LT_0.E, m=_P_LT_0.m)),
           (BoostSpec(_B_LT_0.e[1], _B_LT_0.beta[1]),
            _unchecked(FourMomentum, p=_NAN_QQ[1], E=_P_LT_0.row(1).E, m=1.0)), _FINITE),
)


def _complex_matrix(parts):
    """The 2x2 complex matrix of four real parts, then four imaginary parts."""
    return np.reshape(parts[:4], (2, 2)) + 1j * np.reshape(parts[4:], (2, 2))


def _exp2_matrix(row):
    *parts, scale = row
    if scale == 0.0:
        return np.zeros((2, 2), dtype=complex)
    return _complex_matrix(parts) * scale


def _exp2_example(rng):
    """40 matrices; every third scaled to |mu| < 1e-6, the power series, and one zero."""
    m = rng.uniform(-2, 2, size=(40, 2, 2)), rng.uniform(-2, 2, size=(40, 2, 2))
    return [(*m[0][k].ravel(), *m[1][k].ravel(), 0.0 if k == 1 else 1e-8 if k % 3 == 0 else 1.0)
            for k in range(40)]


@_covers("exp2")
@settings(max_examples=50)
@given(_rows(st.tuples(*[st.floats(-2.0, 2.0)] * 8, st.sampled_from([1.0, 1e-8, 0.0]))))
@example(_exp2_example(np.random.default_rng(29)))
def test_exp2(rows):
    ones = [(_exp2_matrix(row),) for row in rows]
    _match(exp2, ones, np.array([m for m, in ones]))


@_covers("tensor")
@settings(max_examples=50)
@given(_rows(st.tuples(*[st.floats(-2.0, 2.0)] * 16)))
def test_tensor(rows):
    """n pairs of matrices, then one matrix beside n, on each side."""
    ones = [(_complex_matrix(row[:8]), _complex_matrix(row[8:])) for row in rows]
    args = tuple(np.array(x) for x in zip(*ones))
    _match(tensor, ones, *args)
    for i in (0, 1):
        _shared(tensor, ones, args, i)


# -- the matrix observable route --

def _observables(s, a, b, beta, e):
    A, B = (rel_spin_observable(v, beta, e) for v in (a, b))
    return A, B, joint_expectation(s, A, B)


@_covers("SpinObservable", "rel_spin_observable", "joint_expectation")
@settings(max_examples=50)
@given(_rows(st.tuples(_AMPS, _DIRECTIONS, _DIRECTIONS, st.floats(0.0, 1.0, exclude_max=True),
                       _DIRECTIONS)))
def test_matrix_observables(rows):
    """Each row its own pair, directions, speed and boost direction; then one boost direction."""
    p = _pair(2.0)
    ones = [(_state(amps, p), a, b, beta, e) for amps, a, b, beta, e in rows]
    args = (TwoQubitState([one[0].amps for one in ones], 1.0, p),
            *(np.array(x) for x in list(zip(*ones))[1:]))
    _match(_observables, ones, *args)
    _shared(_observables, ones, args, 4)


_RAISES = {"constructors": _CONSTRUCTOR_RAISES, "pairs": _PAIR_RAISES,
           "wigner_angle": _ANGLE_RAISES, "closed forms": _CLOSED_RAISES,
           "oracles": _ORACLE_RAISES}


@pytest.mark.parametrize("case", [case for cases in _RAISES.values() for case in cases],
                         ids=[f"{group}-{case.id}" for group, cases in _RAISES.items()
                              for case in cases])
def test_rows_raise_like_scalar_calls(case):
    named = "" if case.row is None else f" in row {case.row}$"
    with pytest.raises(case.error, match=case.message + named):
        case.build(*case.rows)
    if case.one is not None:
        with pytest.raises(case.error, match=case.message + ("" if case.row is None else "$")):
            case.build(*case.one)
    if case.passes is not None:
        case.build(*case.passes)


COVERED = {name for key, test in list(globals().items()) if key.startswith("test_")
           for name in getattr(test, "covers", ())}
