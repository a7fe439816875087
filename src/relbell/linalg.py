"""Fixed-size complex matrix algebra: Pauli basis, Kronecker products, 2x2 expm and its oracle.

Everything here works on plain numpy arrays (2x2 or 4x4, complex128) so the
rest of the package can stay allocation-light and side-effect free.  Each
oracle helper is one numpy body over leading axes, one row being one matrix;
the rows match because numpy's elementwise loops round an element the same
whatever the array's length or stride, as ``tests/test_linalg.py`` pins.
"""

from __future__ import annotations

import math

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)

for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY2):
    _m.setflags(write=False)

def sigma_dot(v) -> np.ndarray:
    """sigma . v = v_x sigma_x + v_y sigma_y + v_z sigma_z; an (n, 3) stack gives (n, 2, 2).

    ``v`` may be real or complex; the result is Hermitian exactly when ``v``
    is real.  Non-finite components in any row make the whole call raise.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim not in (1, 2) or v.shape[-1] != 3:
        raise ValueError(f"expected a 3-vector or an (n, 3) stack, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("sigma_dot requires finite components")
    x, y, z = (v[..., i, None, None] for i in range(3))
    return x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices, two-spin basis ordered (++, +-, -+, --).

    One broadcast complex multiply, the same one numpy's ``kron`` performs
    on 2-D operands, so the result equals it bit for bit.  Two (n, k, k)
    stacks, or one matrix beside a stack, give the n products.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim not in (2, 3) or b.ndim not in (2, 3):
        raise ValueError("tensor expects two matrices or (n, k, k) stacks, "
                         f"got shapes {a.shape} and {b.shape}")
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def _components(v: np.ndarray):
    """The components of one vector as floats, or of an (n, k) stack as k 1-D arrays.

    With the helpers below it lets the pair kernel and each value type's
    checks run one body on floats for one value and on 1-D arrays for n rows.
    The helpers test the kind, once per kernel call (``_sqrt_for`` picks the
    square root, ``_forms`` the branches), and the bodies never do;
    correctly rounded + - * / and sqrt then give every row the scalar call's
    bits and verdict.
    """
    return v.tolist() if v.ndim == 1 else v.T


def _sqrt_for(x):
    """The square root for ``x``'s kind: ``math.sqrt`` for a float, numpy's for rows.

    A kernel calls it once, on a value that is rows whenever any of its
    inputs is, and takes every square root with the result; both round
    correctly.
    """
    return np.sqrt if x.__class__ is np.ndarray else math.sqrt


def _each(f, x, *more):
    """The ``math`` function ``f`` of floats, or of each row of 1-D arrays of rows."""
    if x.__class__ is not np.ndarray:
        return f(x, *more)
    return np.array(list(map(f, x.tolist(), *(y.tolist() for y in more))))


def _floats_or_rows(x, y, what: str):
    """Two one-value arguments as floats, or both as n rows (a single value beside n rows
    repeated); any other shape raises ``ValueError`` naming ``what`` the function takes."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim > 1 or y.ndim > 1 or (x.ndim == y.ndim == 1 and x.shape != y.shape):
        raise ValueError(f"{what}, got shapes {x.shape} and {y.shape}")
    if not (x.ndim or y.ndim):
        return float(x), float(y)
    if x.shape != y.shape:  # one value beside n rows
        x, y = (np.full(y.shape, x), y) if x.ndim == 0 else (x, np.full(x.shape, y))
    return x, y


def _forms(cond):
    """Which of a kernel's two forms to evaluate: (some row takes the first, some the second).

    ``cond`` selects the first form.  A float's condition names exactly one
    form; n rows may need both, which the kernel then merges row by row
    with ``np.where``.  A form that nothing takes is not evaluated.
    """
    if cond.__class__ is not np.ndarray:
        return cond, not cond
    some = np.count_nonzero(cond)  # one count for both verdicts, as in _holds
    return (True, False) if some == cond.size else (some > 0, True)


def _stack(parts) -> np.ndarray:
    """k floats as a (k,) array, or k 1-D arrays of n rows as an (n, k) array; one copy.

    The rows come as the transpose of the one (k, n) copy, which ``_components``
    splits back into its k rows without another.
    """
    a = np.array(parts)
    return a if a.ndim == 1 else a.T


def _holds(ok) -> bool:
    """Whether ``ok`` holds on the float or on every row; NaN fails.

    Rows are reduced by counting: ``np.count_nonzero(ok) == ok.size`` is
    ``ok.all()``'s verdict (an empty array holds) at a fraction of its cost.
    """
    return np.count_nonzero(ok) == ok.size if ok.__class__ is np.ndarray else ok


def _check(ok, error: type, message) -> None:
    """Raise ``error(message)`` unless ``ok`` holds; a callable ``message`` is called only then."""
    # _holds, inline on the kernel path
    if not (np.count_nonzero(ok) == ok.size if ok.__class__ is np.ndarray else ok):
        raise error(message() if callable(message) else message)


def _check_values(ok, error: type, message: str, **values) -> None:
    """Raise ``error(message.format(**values))`` unless ``ok`` holds; rows name one row.

    On n rows each value is taken at the first row where ``ok`` fails (a
    value shared by every row broadcasts) and " in row k" ends the message,
    so that it names that row, not the whole array.
    """
    if _holds(ok):
        return
    where = ""
    if ok.__class__ is np.ndarray:
        k = int(np.argmin(ok))
        values = {name: np.broadcast_to(v, ok.shape)[k].item() for name, v in values.items()}
        where = f" in row {k}"
    raise error(message.format(**values) + where)


def _rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u.dot(v) row by row over (n, k) stacks, in their dtype (long double too).

    Either side may be one k-vector for every row; two give a 0-d array.
    """
    u, v = np.ascontiguousarray(u), np.ascontiguousarray(v)  # one matmul path for 1 row or n
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def dagger(m) -> np.ndarray:
    """Conjugate transpose; of each matrix of an (n, k, k) stack."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def adjugate2(m) -> np.ndarray:
    """Adjugate of a 2x2 matrix or of each of an (n, 2, 2) stack; the inverse when det(m) = 1."""
    m = np.asarray(m, dtype=complex)
    adj = np.empty(m.shape, dtype=complex)
    adj[..., 0, 0], adj[..., 1, 1] = m[..., 1, 1], m[..., 0, 0]
    adj[..., 0, 1], adj[..., 1, 0] = -m[..., 0, 1], -m[..., 1, 0]
    return adj


def _col(x) -> np.ndarray:
    """A float, or a 1-D array of n row values, as a factor of a 2x2 matrix or (n, 2, 2) stack."""
    return np.asarray(x)[..., None, None]


def exp2(m) -> np.ndarray:
    """Matrix exponential of a 2x2 complex matrix, in closed form.

    Writes m = a*I + B with B traceless; then B^2 = -det(B)*I, so
    exp(m) = e^a (cosh(mu) I + sinh(mu)/mu B) with mu = sqrt(-det(B)).
    sinh(mu)/mu is even in mu, which makes the square-root branch
    irrelevant; a short power series covers mu near 0.  An (n, 2, 2) stack
    gives the n exponentials.  One matrix is run as a one-row stack: numpy's
    scalar complex multiply rounds differently from its array loop.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (2, 2) or m.ndim > 3:
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("exp2 requires finite entries")
    rows = m.reshape(-1, 2, 2)
    a = 0.5 * (rows[:, 0, 0] + rows[:, 1, 1])
    b = rows - _col(a) * IDENTITY2
    mu = np.sqrt(-(b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]))
    small = np.abs(mu) < 1e-6
    mu2 = mu * mu
    mu4 = mu2 * mu2
    big = np.where(small, 1.0, mu)  # keeps sinh(mu)/mu off 0/0 on the series rows
    sinhc = np.where(small, 1.0 + mu2 / 6.0 + mu4 / 120.0, np.sinh(big) / big)
    cosh = np.where(small, 1.0 + mu2 / 2.0 + mu4 / 24.0, np.cosh(mu))
    return (_col(np.exp(a)) * (_col(cosh) * IDENTITY2 + _col(sinhc) * b)).reshape(m.shape)


#: Taylor terms of ``expm_oracle``: 0.5^19 / 19! is below the long double's epsilon
_TAYLOR_TERMS = 18


def expm_oracle(m) -> np.ndarray:
    """Matrix exponential of a square matrix, or of each of an (n, k, k) stack, by brute force.

    The oracle ``exp2`` is held to.  Scaling and squaring in ``clongdouble``:
    each matrix is divided by 2^s, with s its own so that the infinity norm
    drops to 1/2 or less, its Taylor series is summed by Horner's rule, and
    the sum is squared s times before the cast back to complex128.  s is
    each matrix's own, so a matrix of the stack gets its one-matrix call's
    bits.
    """
    m = np.asarray(m, dtype=complex)
    s = np.maximum(np.frexp(np.abs(m).sum(axis=-1).max(axis=-1))[1] + 1, 0)
    t = m.astype(np.clongdouble) / np.ldexp(1.0, s)[..., None, None]
    eye = np.eye(m.shape[-1], dtype=np.clongdouble)
    e = eye
    for j in range(_TAYLOR_TERMS, 0, -1):
        e = eye + (t @ e) / j
    for i in range(int(s.max())):
        e = np.where((i < s)[..., None, None], e @ e, e)
    return e.astype(complex)


def max_abs_diff(a, b) -> float:
    """Max elementwise absolute difference, the comparison used throughout."""
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())
