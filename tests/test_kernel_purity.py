"""The pair kernel uses only + - * / and sqrt: no transcendental function, no BLAS product.

Those are correctly rounded on floats and on numpy arrays alike, which is
why the kernel's rows equal its scalar calls bit for bit.  The tests make
every transcendental of ``math`` and numpy and every BLAS entry point raise
while the kernel runs, on floats and on rows (on floats numpy's ``sqrt`` and
``where`` too: one pair's arithmetic stays in ``math``), and read the kernel
functions' source for the matrix product operator, ``.dot(`` and ``einsum``.
``wigner_angle`` runs the same way, and on floats without numpy at all.
A last test bounds the Python calls that one scalar item of the public API
makes.
"""

import ast
import inspect
import math
import os
import sys
import textwrap

import numpy as np
import pytest

import relbell
from relbell import bell, kinematics, linalg, observables, wigner
from relbell.bell import TwoQubitState, bell_decompose, bell_state, boost_two_particle
from relbell.kinematics import BoostSpec, FourMomentum, X_HAT
from relbell.observables import CASE1_SETTINGS, ChshSettings, chsh, chsh_max

KERNEL = (
    linalg._components, linalg._sqrt_for, linalg._forms, linalg._stack, linalg._check,
    wigner._quaternion, wigner._boost_parts, wigner._check_unit_quaternion, wigner.wigner_angle,
    bell._pair_rotation, bell._sum_of_squares, bell._complex, bell.boost_two_particle,
    bell.bell_decompose,
    observables._observable_vectors, observables._correlation_tensor, observables._chsh_sum,
    observables.chsh, observables.chsh_max,
)

_FORBIDDEN = [(math, name) for name in ("cosh", "sinh", "exp", "atanh", "acosh", "asinh")] + [
    (np, name) for name in ("cosh", "sinh", "exp", "arctanh", "einsum", "dot", "matmul")]

#: one pair's arithmetic runs on floats through ``math``, never through numpy
_ROWS_ONLY = [(np, "sqrt"), (np, "where")]


@pytest.fixture
def forbidden(monkeypatch):
    def install(extra=()):
        for module, name in _FORBIDDEN + list(extra):
            def refuse(*args, _name=name, **kwargs):
                raise AssertionError(f"the pair kernel called {_name}")
            monkeypatch.setattr(module, name, refuse)
    return install


def _scalar_inputs():
    p = FourMomentum.from_spatial([0.3, -1.2, 2.0])
    anti = BoostSpec(-p.direction(), 0.9)  # the c < 0 form for the first particle
    return bell_state(1, 0, p), (BoostSpec(np.array([0.6, 0.0, 0.8]), 0.7), anti)


def _row_inputs():
    p = FourMomentum.from_spatial(np.array([[0.3, -1.2, 2.0], [0.0, 0.0, 3.0], [1.0, 1.0, -1.0]]))
    s = TwoQubitState(bell_state(0, 0, FourMomentum.along_z(2.0)).amps, 1.0, p)
    e = np.array([[0.6, 0.0, 0.8], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return s, BoostSpec(e, [0.7, 0.2, 0.99])


def test_floats_touch_no_transcendental_or_blas(forbidden):
    """Nor numpy's sqrt or where: a float that strays into numpy fails here."""
    s, boosts = _scalar_inputs()
    c = ChshSettings(*(np.array(v) / np.linalg.norm(v) for v in
                       ([1.0, 2.0, 3.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [2.0, -1.0, 0.0])))
    forbidden(_ROWS_ONLY)
    for b in boosts:
        out = boost_two_particle(boost_two_particle(s, b), b)
        assert abs(chsh(out, c, 0.4, X_HAT)) <= 2.0 * math.sqrt(2.0) + 1e-12
        assert abs(chsh_max(out) - 2.0 * math.sqrt(2.0)) <= 1e-12
        bell_decompose(out)


def test_rows_touch_no_transcendental_or_blas(forbidden):
    s, b = _row_inputs()
    forbidden()
    out = boost_two_particle(boost_two_particle(s, b), b)
    values = chsh(out, CASE1_SETTINGS, b.beta, b.e)
    assert values.shape == (3,) and (np.abs(values) <= 2.0 * math.sqrt(2.0) + 1e-12).all()
    assert (np.abs(chsh_max(out) - 2.0 * math.sqrt(2.0)) <= 1e-12).all()
    bell_decompose(out)
    assert wigner.wigner_angle([0.0, 0.6, 1.0], [10.0, 1.0, 1e300]).shape == (3,)


class _NdarrayOnly:
    """A stand-in for numpy that offers the ``ndarray`` type, which a kind test compares with."""

    ndarray = np.ndarray

    def __getattr__(self, name):
        raise AssertionError(f"wigner_angle on floats called numpy.{name}")


@pytest.mark.parametrize(("beta", "ratio"), [(0.6, 10.0), (0.0, 1.0), (1.0, 1e300)])
def test_wigner_angle_on_floats_touches_no_numpy(forbidden, monkeypatch, beta, ratio):
    """Its float path is ``math`` and arithmetic: no hyperbolic, and nothing of numpy."""
    want = wigner.wigner_angle(beta, ratio)
    forbidden()
    for module in (wigner, linalg, kinematics):
        monkeypatch.setattr(module, "np", _NdarrayOnly())
    got = wigner.wigner_angle(beta, ratio)
    assert type(got) is float and got == want


@pytest.mark.parametrize("function", KERNEL, ids=lambda f: f.__qualname__)
def test_source_has_no_matrix_product(function):
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    for node in ast.walk(tree):
        assert not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)), function
        assert not (isinstance(node, ast.Attribute) and node.attr in ("dot", "einsum", "vdot")), \
            function
        assert not (isinstance(node, ast.Name) and node.id in ("einsum", "_kron", "_rowdot")), \
            function


#: the most Python calls into relbell that one random_pairs-style item may make
ITEM_CALLS = 120


def _relbell_calls(run) -> int:
    """Calls of named relbell functions while ``run()`` runs.

    Comprehensions and lambdas (``<listcomp>``, ...) are left out: Python 3.12
    inlines comprehensions, so counting them would tie the number to a version.
    """
    root = os.path.dirname(relbell.__file__) + os.sep
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(root) and code.co_name[0] != "<":
            count += 1

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(outer)
    return count


def test_one_scalar_item_makes_few_calls():
    """The scalar public API's dispatch overhead is bounded: a new helper hop shows up here."""
    p = np.array([0.3, -1.2, 2.0])
    directions = [np.array(v) / np.linalg.norm(v) for v in
                  ([0.6, 0.0, 0.8], [-1.0, 2.0, 0.5], [1.0, 2.0, 3.0], [0.0, 1.0, 0.0],
                   [1.0, 0.0, 1.0], [2.0, -1.0, 0.0], [0.2, 0.3, -1.0])]

    def item():
        pair = bell_state(1, 0, FourMomentum.from_spatial(p))
        once = boost_two_particle(pair, BoostSpec(directions[0], 0.7))
        twice = boost_two_particle(once, BoostSpec(directions[1], 0.4))
        return chsh(twice, ChshSettings(*directions[2:6]), 0.5, directions[6])

    item()  # imports and first-call work stay out of the count
    assert _relbell_calls(item) <= ITEM_CALLS
