"""Symbolic proofs that the CHSH curves follow from the closed-form correlations.

Each closed form is written here in sympy as its docstring prints it, with
q = (1 - beta)(1 + beta) in (0, 1].  A numeric check ties every transcription
to the float function it stands for, and ``simplify`` then proves the curve
identity for all q and omega.
"""

import math

import numpy as np
import pytest
import sympy as sp

from relbell.observables import (
    CASE1_SETTINGS,
    CASE2_SETTINGS,
    chsh_case1_closed,
    chsh_universal,
    expectation_case1_closed,
    expectation_case2_closed,
)

Q, W = sp.symbols("q omega", positive=True)


def _exact(v):
    """A setting's float components as exact numbers (+-1/sqrt(2), 0 or +-1)."""
    return [sp.nsimplify(x, [sp.sqrt(2)]) for x in v.tolist()]


def _norm(ax):
    return sp.sqrt(ax * ax + Q * (1 - ax * ax))


def _case1(a, b):
    (ax, ay, az), (bx, by, bz) = a, b
    num = ((ax * bx + Q * az * bz) * sp.cos(2 * W) - Q * ay * by
           - sp.sqrt(Q) * (az * bx - bz * ax) * sp.sin(2 * W))
    return num / (_norm(ax) * _norm(bx))


def _case2(a, b):
    (ax, ay, az), (bx, by, bz) = a, b
    return (ax * bx + Q * (ay * by - az * bz)) / (_norm(ax) * _norm(bx))


def _chsh(expectation, settings):
    a, ap, b, bp = (_exact(v) for v in (settings.a, settings.a_prime, settings.b,
                                       settings.b_prime))
    return expectation(a, b) + expectation(a, bp) + expectation(ap, b) - expectation(ap, bp)


_CURVE1 = (2 / sp.sqrt(1 + Q)) * (sp.sqrt(Q) + sp.cos(2 * W))


@pytest.mark.parametrize("beta", [0.0, 0.3, 0.9, 1.0 - 1e-9, 1.0])
@pytest.mark.parametrize("omega", [0.0, 0.4, 1.3])
def test_transcriptions_match_the_code(beta, omega):
    rng = np.random.default_rng(int(100 * beta + 10 * omega))
    q = (1.0 - beta) * (1.0 + beta)
    at = {Q: q, W: omega}
    for _ in range(5):
        a, b = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 3)))
        a_s, b_s = [sp.Float(x) for x in a.tolist()], [sp.Float(x) for x in b.tolist()]
        assert float(_case1(a_s, b_s).subs(at)) == pytest.approx(
            expectation_case1_closed(a, b, beta, omega), abs=1e-14)
        assert float(_case2(a_s, b_s).subs(at)) == pytest.approx(
            expectation_case2_closed(a, b, beta), abs=1e-14)
    assert float(_CURVE1.subs(at)) == pytest.approx(chsh_case1_closed(beta, omega), abs=1e-14)
    assert float(_CURVE1.subs({Q: q, W: 0})) == pytest.approx(chsh_universal(beta), abs=1e-14)


def test_settings_round_the_exact_values():
    for settings in (CASE1_SETTINGS, CASE2_SETTINGS):
        for v in (settings.a, settings.a_prime, settings.b, settings.b_prime):
            for exact, x in zip(_exact(v), v.tolist()):
                assert abs(float(exact) - x) <= math.ulp(x)


def test_case1_curve_is_the_case1_chsh_sum():
    assert sp.simplify(_chsh(_case1, CASE1_SETTINGS) - _CURVE1) == 0


def test_case2_curve_is_the_universal_curve():
    assert sp.simplify(_chsh(_case2, CASE2_SETTINGS) - _CURVE1.subs(W, 0)) == 0


def test_universal_curve_endpoints():
    universal = _CURVE1.subs(W, 0)
    assert sp.simplify(universal.subs(Q, 1) - 2 * sp.sqrt(2)) == 0  # beta = 0
    assert universal.subs(Q, 0) == 2  # beta = 1
    assert math.isclose(chsh_universal(0.0), 2.0 * math.sqrt(2.0), rel_tol=1e-15)
