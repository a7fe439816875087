"""Pauli basis, Kronecker products and the closed-form 2x2 exponential."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from draw_reference import unit
from relbell.linalg import (
    IDENTITY2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _check,
    _forms,
    _holds,
    adjugate2,
    dagger,
    exp2,
    expm_oracle,
    max_abs_diff,
    sigma_dot,
    tensor,
)


class TestPauli:
    def test_standard_matrices(self):
        np.testing.assert_array_equal(SIGMA_X, [[0, 1], [1, 0]])
        np.testing.assert_array_equal(SIGMA_Y, [[0, -1j], [1j, 0]])
        np.testing.assert_array_equal(SIGMA_Z, [[1, 0], [0, -1]])

    def test_each_squares_to_identity(self):
        for m in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            np.testing.assert_array_equal(m @ m, np.eye(2))
            assert m[0, 0] + m[1, 1] == 0
            np.testing.assert_array_equal(m, dagger(m))


class TestSigmaDot:
    def test_zero_vector(self):
        np.testing.assert_array_equal(sigma_dot([0, 0, 0]), np.zeros((2, 2)))

    def test_basis_vectors(self):
        np.testing.assert_array_equal(sigma_dot([0, 0, 1]), SIGMA_Z)
        np.testing.assert_array_equal(sigma_dot([1, 0, 0]), SIGMA_X)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        u, v = rng.normal(size=3), rng.normal(size=3)
        np.testing.assert_allclose(
            sigma_dot(2.0 * u - v), 2.0 * sigma_dot(u) - sigma_dot(v), atol=1e-15
        )

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            sigma_dot([np.nan, 0, 0])
        with pytest.raises(ValueError, match="3-vector"):
            sigma_dot([1, 0])

    def test_nonfinite_complex_rejected(self):
        for bad in ([0, 1j * np.inf, 0], [0, 0, complex(1.0, np.nan)], [np.inf, 0, 0]):
            with pytest.raises(ValueError, match="^sigma_dot requires finite components$"):
                sigma_dot(bad)

    def test_shape_rejected(self):
        with pytest.raises(ValueError, match=r"^expected a 3-vector, got shape \(2, 3\)$"):
            sigma_dot(np.zeros((2, 3)))
        with pytest.raises(ValueError, match=r"^expected a 3-vector, got shape \(\)$"):
            sigma_dot(1.0)

    def test_equals_pauli_sum(self):
        # bit for bit, signed zeros included, for real, complex and sparse v
        rng = np.random.default_rng(17)
        sx, sy, sz = SIGMA_X, SIGMA_Y, SIGMA_Z
        sparse = [0.0, -0.0, 1.0, -1.0, 0.5]
        vectors = [unit(rng) for _ in range(50)]
        vectors += [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(50)]
        vectors += [rng.choice(sparse, size=3) + 1j * rng.choice(sparse, size=3)
                    for _ in range(50)]
        for v in vectors:
            v = np.asarray(v, dtype=complex)
            expected = v[0] * sx + v[1] * sy + v[2] * sz
            got = sigma_dot(v)
            np.testing.assert_array_equal(got, expected)
            assert got.tobytes() == expected.tobytes()

    @settings(max_examples=200)
    @given(st.lists(st.floats(-1, 1), min_size=3, max_size=3).filter(
        lambda v: sum(x * x for x in v) > 1e-6))
    def test_unit_vector_square_is_identity(self, v):
        v = np.asarray(v) / math.sqrt(sum(x * x for x in v))
        m = sigma_dot(v)
        assert max_abs_diff(m @ m, IDENTITY2) < 1e-14
        assert max_abs_diff(m, dagger(m)) < 1e-15
        assert abs(m[0, 0] + m[1, 1]) < 1e-15


class TestTensor:
    def test_identity_pair(self):
        np.testing.assert_array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_zz_is_diagonal(self):
        np.testing.assert_array_equal(
            tensor(SIGMA_Z, SIGMA_Z), np.diag([1.0, -1.0, -1.0, 1.0])
        )

    def test_xy_antidiagonal(self):
        # direct Kronecker expansion of sigma_x (x) sigma_y
        expected = np.array(
            [
                [0, 0, 0, -1j],
                [0, 0, 1j, 0],
                [0, -1j, 0, 0],
                [1j, 0, 0, 0],
            ]
        )
        np.testing.assert_array_equal(tensor(SIGMA_X, SIGMA_Y), expected)

    def test_bytes_equal_kron(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            a, b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
            assert tensor(a, b).tobytes() == np.kron(a, b).tobytes()
            r = rng.normal(size=(2, 2))
            assert tensor(r, b).tobytes() == np.kron(r.astype(complex), b).tobytes()
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            assert tensor(a, m).tobytes() == np.kron(a, m).tobytes()
        assert tensor(a, m).shape == (8, 8)

    def test_rejects_non_matrices(self):
        with pytest.raises(ValueError, match="two matrices"):
            tensor(np.ones(2), np.eye(2))
        with pytest.raises(ValueError, match="two matrices"):
            tensor(np.eye(2), np.ones((2, 2, 2)))

    def test_mixed_product_rule(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                          for _ in range(4))
            assert max_abs_diff(tensor(a, b) @ tensor(c, d), tensor(a @ c, b @ d)) < 1e-13


class TestComparisonHelpers:
    def test_match_numpy_wrappers(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2))
            assert dagger(a).tobytes() == np.conj(a).T.tobytes()
            assert max_abs_diff(a, b) == float(np.max(np.abs(a - b)))


_WITH_NAN = np.array([0.5, math.nan, 2.0])

#: boolean rows with and without a False, empty, 0-d, and comparisons over a NaN
_VERDICTS = {
    "all true": np.array([True, True, True]),
    "one false": np.array([True, False, True]),
    "all false": np.array([False, False]),
    "empty": np.array([], dtype=bool),
    "0-d true": np.array(True),
    "0-d false": np.array(False),
    "nan <=": _WITH_NAN <= 2.0,
    "nan !=": _WITH_NAN != 0.0,
    "nan only": np.array([math.nan]) >= 0.0,
}


class TestRowReductions:
    """``_holds``, ``_check`` and ``_forms`` reduce rows to ``.all()``'s and ``.any()``'s verdict."""

    @pytest.mark.parametrize("ok", _VERDICTS.values(), ids=_VERDICTS.keys())
    def test_holds(self, ok):
        assert _holds(ok) == ok.all()

    @pytest.mark.parametrize("ok", _VERDICTS.values(), ids=_VERDICTS.keys())
    def test_check(self, ok):
        calls = []

        def message():
            calls.append(1)
            return "failed"

        if ok.all():
            _check(ok, ArithmeticError, message)
            assert calls == []
        else:
            with pytest.raises(ArithmeticError, match="^failed$"):
                _check(ok, ArithmeticError, message)

    @pytest.mark.parametrize("ok", _VERDICTS.values(), ids=_VERDICTS.keys())
    def test_forms(self, ok):
        assert _forms(ok) == ((True, False) if ok.all() else (ok.any(), True))

    @pytest.mark.parametrize("ok", [True, False, 0.5 <= math.nan])
    def test_floats_keep_their_branch(self, ok):
        assert _holds(ok) is ok
        assert _forms(ok) == (ok, not ok)
        if ok:
            _check(ok, ValueError, "failed")
        else:
            with pytest.raises(ValueError, match="^failed$"):
                _check(ok, ValueError, "failed")


class TestExp2:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(exp2(np.zeros((2, 2))), np.eye(2))

    def test_boost_generator_closed_form(self):
        # exp((alpha/2) sigma_x) at alpha = 1
        got = exp2(0.5 * SIGMA_X)
        expected = math.cosh(0.5) * np.eye(2) + math.sinh(0.5) * SIGMA_X
        assert max_abs_diff(got, expected) < 1e-13

    def test_rotation_closed_form(self):
        # exp(i (theta/2) sigma_y) at theta = pi is i sigma_y
        got = exp2(1j * (math.pi / 2) * SIGMA_Y)
        assert max_abs_diff(got, 1j * SIGMA_Y) < 1e-13

    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            m = rng.uniform(-2, 2, size=(2, 2)) + 1j * rng.uniform(-2, 2, size=(2, 2))
            assert max_abs_diff(exp2(m), scipy.linalg.expm(m)) < 1e-13

    def test_nilpotent_and_near_zero_arguments(self):
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(exp2(n), np.eye(2) + n, atol=1e-15)
        tiny = 1e-9 * SIGMA_Z
        assert max_abs_diff(exp2(tiny), scipy.linalg.expm(tiny)) < 1e-15

    def test_inverse_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            m = rng.uniform(-2, 2, size=(2, 2)) + 1j * rng.uniform(-2, 2, size=(2, 2))
            assert max_abs_diff(exp2(m) @ exp2(-m), IDENTITY2) < 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            exp2(np.array([[np.inf, 0], [0, 0]]))


class TestExpmOracle:
    """``expm_oracle``, the exponential ``verify`` holds ``exp2`` to, against 40 digits."""

    @staticmethod
    def _matrices(seed, n, k=2, scale=2.0):
        x = np.random.default_rng(seed).uniform(-scale, scale, size=(n, 2, k, k))
        return x[:, 0] + 1j * x[:, 1]

    @staticmethod
    def _exact(m):
        """exp(m) to 40 digits, rounded to complex128."""
        with mp.workdps(40):
            e = mp.expm(mp.matrix(m.tolist()))
            return np.array([[complex(e[i, j]) for j in range(len(m))] for i in range(len(m))])

    @pytest.mark.parametrize("k, scale", [(2, 2.0), (2, 1e-9), (3, 4.0), (4, 1.0)])
    def test_against_mpmath(self, k, scale):
        ms = self._matrices(5, 20, k, scale)
        for m, got in zip(ms, expm_oracle(ms)):
            want = self._exact(m)
            # two ulps of the largest entry: the squarings round in long double first
            assert np.abs(got - want).max() <= 2.0 * np.spacing(np.abs(want).max()), m

    def test_closer_to_40_digits_than_scipy(self):
        ms = self._matrices(6, 50)
        errors = {"oracle": 0.0, "scipy": 0.0}
        for m, ours, theirs in zip(ms, expm_oracle(ms), scipy.linalg.expm(ms)):
            want = self._exact(m)
            errors["oracle"] = max(errors["oracle"], np.abs(ours - want).max())
            errors["scipy"] = max(errors["scipy"], np.abs(theirs - want).max())
        assert errors["oracle"] < errors["scipy"], errors

    def test_rows_equal_one_matrix_calls(self):
        ms = self._matrices(7, 30)
        rows = expm_oracle(ms)
        for m, row in zip(ms, rows):
            assert expm_oracle(m).tobytes() == row.tobytes()

    def test_zero_and_diagonal(self):
        assert (expm_oracle(np.zeros((2, 2))) == IDENTITY2).all()
        got = expm_oracle(np.diag([10.0, -3.0]))
        assert got[0, 0] == math.exp(10.0) and got[1, 1] == math.exp(-3.0)
        assert got[0, 1] == got[1, 0] == 0.0


class TestAdjugate:
    def test_inverse_for_unimodular(self):
        rng = np.random.default_rng(5)
        m = exp2(rng.normal(size=(2, 2)) * 0.3 + 0.2j * rng.normal(size=(2, 2)))
        m = m / np.sqrt(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        assert max_abs_diff(adjugate2(m) @ m, IDENTITY2) < 1e-13


def _wide(rng, n, low=-8.0, high=1.5):
    """n signed floats spread over the decades 10**low to 10**high."""
    return rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(low, high, size=n)


def _complex(rng, n):
    return _wide(rng, n) + 1j * _wide(rng, n)


# The oracles (boost_matrix, d_half_pure_boost, rotation_angle, exp2, ...) give
# n rows from the same numpy body as one, so their row parity rests on numpy's
# elementwise loops returning the same bits for an element whatever the
# array's length, offset or stride.  A platform where that fails fails here
# first.  exp2 also takes the complex sqrt, cosh, sinh and division.
_ELEMENTWISE = {
    "cosh": (np.cosh, lambda rng, n: (_wide(rng, n),)),
    "sinh": (np.sinh, lambda rng, n: (_wide(rng, n),)),
    "arctan2": (np.arctan2, lambda rng, n: (_wide(rng, n), _wide(rng, n))),
    "sqrt": (np.sqrt, lambda rng, n: (np.abs(_wide(rng, n, -300.0, 300.0)),)),
    "exp": (np.exp, lambda rng, n: (_wide(rng, n),)),
    "complex multiply": (np.multiply, lambda rng, n: (_complex(rng, n), _complex(rng, n))),
    "complex divide": (np.divide, lambda rng, n: (_complex(rng, n), _complex(rng, n))),
    "complex sqrt": (np.sqrt, lambda rng, n: (_complex(rng, n),)),
    "complex cosh": (np.cosh, lambda rng, n: (_complex(rng, n) / 10.0,)),
    "complex sinh": (np.sinh, lambda rng, n: (_complex(rng, n) / 10.0,)),
}


@pytest.mark.parametrize("name", sorted(_ELEMENTWISE))
def test_elementwise_loops_ignore_length_stride_and_scalars(name):
    # Python's * on two numpy complex scalars is numpy's scalar arithmetic, not
    # the ufunc loop, and rounds differently from it on many inputs; np.multiply
    # on the scalars is the loop.  No oracle multiplies two complex scalars:
    # exp2 keeps one matrix as a one-row stack.
    f, draw = _ELEMENTWISE[name]
    n = 10_000
    args = draw(np.random.default_rng(sorted(_ELEMENTWISE).index(name)), n)
    whole = f(*args)
    columns = f(*(np.repeat(a[:, None], 3, axis=1)[:, 1] for a in args))
    assert whole.tobytes() == columns.tobytes()
    for k in range(n):
        assert f(*(a[k:k + 1] for a in args)).tobytes() == whole[k:k + 1].tobytes(), k
        assert f(*(a[k] for a in args)).tobytes() == whole[k].tobytes(), k
