"""Differentiation engine and dense linear algebra over dual scalars.

Geometric fields are plain closures over chart coordinates: a scalar field
maps a coordinate array to a scalar, a vector field to a length-``dim``
array, an endomorphism field to a ``dim x dim`` matrix.  The engine turns
closures into derivatives either with nested dual numbers (``mode="ad"``,
exact to rounding, supports second-order nesting) or with central finite
differences (``mode="fd"``, an independent cross-check path).

A :class:`Section` is a closure that also knows its 1-jet, the pair (value,
Jacobian) at a float point, assembled from per-point tables that are already
cached.  The jet rule lives in :meth:`DiffEngine.deriv` and
:meth:`DiffEngine.jacobian` alone: in ``ad`` mode, at a float point, a field
with a ``jet`` is differentiated by reading it, so no dual pass re-runs the
pipeline behind the field.  Every other case runs the closure, and ``fd``
mode never reads a jet, so it keeps differentiating closures.

The linear algebra helpers (:func:`solve`, :func:`inv`, :func:`dot`,
:func:`outer`) take float or dual-valued arrays, so the same geometric
pipelines run unchanged inside a differentiation pass.  Float arrays, and
object arrays that hold only floats, go straight to ``numpy.linalg.solve`` /
``np.dot``.  Dual-valued arrays are differentiated with the forward-mode
matrix rules, one perturbation level at a time: the value and the tangent
are each solved or multiplied as whole arrays, so no elimination runs over
dual scalars.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .ad import Dual, pop_level, push_level

Point = np.ndarray
ScalarField = Callable[[np.ndarray], object]
VectorField = Callable[[np.ndarray], np.ndarray]
OneForm = Callable[[np.ndarray], np.ndarray]
EndoField = Callable[[np.ndarray], np.ndarray]


def is_float_point(q) -> bool:
    return isinstance(q, np.ndarray) and q.dtype != np.dtype(object)


def as_float_array(a: np.ndarray) -> np.ndarray:
    """Demote an object array of plain floats; leave dual-bearing arrays alone."""
    if a.dtype != np.dtype(object):
        return a
    try:
        return a.astype(float)
    except (TypeError, ValueError):
        return a


def max_residual(*values) -> float:
    """The largest of ``values``, or NaN if any of them is NaN.

    Python's ``max`` keeps its first operand when a comparison with NaN is
    false, so ``max(0.0, nan)`` is 0.0 and a NaN residual would pass.
    """
    vals = [float(v) for v in values]
    if any(math.isnan(v) for v in vals):
        return math.nan
    return max(vals)


def _seed(p, v, lvl) -> np.ndarray:
    xs = np.empty(len(p), dtype=object)
    for i in range(len(p)):
        xs[i] = Dual(lvl, p[i], v[i])
    return xs


def _extract(y, lvl, grad_shape=()):
    """Pull the level-``lvl`` derivative slot out of a closure result."""
    if isinstance(y, np.ndarray):
        if y.dtype != np.dtype(object):
            return np.zeros(y.shape + grad_shape)
        if not grad_shape:
            out = np.empty(y.shape, dtype=object)
            for idx in np.ndindex(*y.shape):
                e = y[idx]
                out[idx] = e.du if isinstance(e, Dual) and e.lvl == lvl else 0.0
            return as_float_array(out)
        # Gradient slots are vectors; stack them along a trailing axis.
        grads = {}
        all_float = True
        for idx in np.ndindex(*y.shape):
            e = y[idx]
            if isinstance(e, Dual) and e.lvl == lvl:
                g = e.du
                if not isinstance(g, np.ndarray):
                    raise TypeError("scalar derivative slot in a vector-mode pass")
                if g.dtype == np.dtype(object):
                    all_float = False
            else:
                g = np.zeros(grad_shape)
            grads[idx] = g
        out = np.empty(y.shape + grad_shape,
                       dtype=float if all_float else object)
        for idx, g in grads.items():
            out[idx] = g
        return out
    if isinstance(y, Dual) and y.lvl == lvl:
        return y.du
    return np.zeros(grad_shape) if grad_shape else 0.0


class Section:
    """A field closure together with its 1-jet.

    ``jet(p)`` returns (value, Jacobian) at a float point, the Jacobian with
    one trailing axis of length dim like :meth:`DiffEngine.jacobian`.
    Calling the section runs the bare closure ``fn``.
    """

    __slots__ = ("fn", "jet")

    def __init__(self, fn: Callable, jet: Callable):
        self.fn = fn
        self.jet = jet

    def __call__(self, q):
        return self.fn(q)


class DiffEngine:
    """Directional derivatives of chart-coordinate closures.

    mode : ``"ad"`` for nested forward-mode duals, ``"fd"`` for central
        finite differences with step ``step``.
    """

    def __init__(self, mode: str = "ad", step: float = 1e-4):
        if mode not in ("ad", "fd"):
            raise ValueError("mode must be 'ad' or 'fd', got %r" % (mode,))
        if not step > 0:
            raise ValueError("finite-difference step must be positive")
        self.mode = mode
        self.step = float(step)

    # -- core passes -----------------------------------------------------

    def _reads_jet(self, f, p) -> bool:
        return self.mode == "ad" and is_float_point(p) and hasattr(f, "jet")

    def deriv(self, f, p, v):
        """Directional derivative of a scalar/vector/matrix closure at p along v."""
        if self._reads_jet(f, p):
            return np.dot(f.jet(p)[1], v)
        if self.mode == "ad":
            lvl = push_level()
            try:
                y = f(_seed(p, v, lvl))
            finally:
                pop_level()
            return _extract(y, lvl)
        h = self.step
        vp = np.asarray(v, dtype=float)
        hi = f(p + h * vp)
        lo = f(p - h * vp)
        return (hi - lo) * (0.5 / h)

    def jacobian(self, f, p):
        """Full coordinate Jacobian; result has one trailing axis of length dim.

        ``jacobian(f, p)[..., l]`` is the partial derivative of ``f`` along
        chart coordinate ``l``.
        """
        if self._reads_jet(f, p):
            return f.jet(p)[1]
        d = len(p)
        if self.mode == "ad":
            eye = np.eye(d)
            lvl = push_level()
            try:
                xs = np.empty(d, dtype=object)
                for i in range(d):
                    xs[i] = Dual(lvl, p[i], eye[i])
                y = f(xs)
            finally:
                pop_level()
            return _extract(y, lvl, grad_shape=(d,))
        cols = [self.deriv(f, p, e) for e in np.eye(d)]
        out = np.stack([np.asarray(c, dtype=float) for c in cols], axis=-1)
        return out

    # -- named operations ------------------------------------------------

    def directional_derivative(self, f: ScalarField, p, v):
        """Scalar directional derivative; rejects non-finite results."""
        out = self.deriv(f, p, v)
        if is_float_point(p) and not np.all(np.isfinite(np.asarray(out, dtype=float))):
            raise ValueError("non-finite derivative: field evaluated outside its domain")
        return out

    def lie_bracket(self, X: VectorField, Y: VectorField, p):
        """[X, Y] = DY(X) - DX(Y) evaluated at p."""
        return self.deriv(Y, p, X(p)) - self.deriv(X, p, Y(p))

    def exterior_derivative(self, alpha: OneForm, p):
        """d(alpha) as the exactly antisymmetric matrix of a two-form.

        Entry [i, j] equals (d alpha)(e_i, e_j) = d_i alpha_j - d_j alpha_i,
        in the convention without a 1/2 factor, so that
        d(alpha)(X, Y) = X[alpha(Y)] - Y[alpha(X)] - alpha([X, Y]).
        """
        jac = self.jacobian(alpha, p)            # jac[i, l] = d_l alpha_i
        return jac.T - jac

    def lie_derivative_endo(self, X: VectorField, A: EndoField, p):
        """Lie derivative of a (1,1)-tensor: (L_X A)(Y) = [X, AY] - A[X, Y]."""
        dX = self.jacobian(X, p)
        Ap = A(p)
        dA_X = self.deriv(A, p, X(p))
        return dA_X - np.dot(dX, Ap) + np.dot(Ap, dX)


# -- dense linear algebra over float or dual scalars ----------------------
#
# Forward-mode matrix rules (Giles 2008): X = A^-1 B has tangent
# A^-1 (dB - dA X), and C = A B has tangent dA B + A dB.  They are applied one
# perturbation level at a time: the top level of a dual array is split into a
# value array and a tangent array (tangent axes trailing), both are handled
# recursively with the tangent axes folded into extra columns, and the
# recursion ends in numpy.linalg.solve / np.dot on float arrays.


def _level(*arrays: np.ndarray) -> int:
    """Top perturbation level among the entries (0 when none is a dual)."""
    return max([e.lvl for a in arrays if a.dtype == np.dtype(object)
                for e in a.ravel().tolist() if isinstance(e, Dual)], default=0)


def _array(items: list) -> np.ndarray:
    """``items`` as a float array, or as an object array if any is a dual."""
    out = np.array(items)
    return out if out.dtype == np.dtype(object) else out.astype(float, copy=False)


def _split(a: np.ndarray, lvl: int):
    """Value array and tangent array (None if constant) of ``a`` at ``lvl``."""
    if a.dtype != np.dtype(object):
        return a, None
    items = a.ravel().tolist()
    on = [isinstance(e, Dual) and e.lvl == lvl for e in items]
    re = _array([e.re if o else e for e, o in zip(items, on)]).reshape(a.shape)
    ids = [i for i, o in enumerate(on) if o]
    if not ids:
        return re, None
    slots = _array([items[i].du for i in ids])
    du = np.full((a.size,) + slots.shape[1:], 0.0, dtype=slots.dtype)
    du[ids] = slots
    return re, du.reshape(a.shape + slots.shape[1:])


def _join(lvl: int, re: np.ndarray, du):
    """Inverse of :func:`_split`; entries whose tangent is zero stay as they are."""
    if du is None:
        return re
    tangents = du.reshape((re.size,) + du.shape[re.ndim:])
    live = np.flatnonzero(np.any(_fold(tangents != 0.0, 1), axis=1))
    if not len(live):
        return re
    out = re.astype(object).ravel()
    if du.ndim == re.ndim:
        tangents = tangents.tolist()
    values = out.tolist()
    out[live] = [Dual(lvl, values[i], tangents[i]) for i in live.tolist()]
    return out.reshape(re.shape)


def _fold(t: np.ndarray, lead: int) -> np.ndarray:
    """Fold every axis of ``t`` after the first ``lead`` into one column axis."""
    return t.reshape(t.shape[:lead] + (-1,))


def _dot_tangent(A1: np.ndarray, X: np.ndarray) -> np.ndarray:
    """dA X for a tangent array ``A1`` of shape (p, q) + t; result X-shaped + t."""
    p, q = A1.shape[:2]
    rows = _fold(A1, 2).swapaxes(1, 2).reshape(-1, q)
    Y = _dot(rows, X).reshape((p, -1) + X.shape[1:])
    if X.ndim == 2:
        Y = Y.swapaxes(1, 2)
    return Y.reshape((p,) + X.shape[1:] + A1.shape[2:])


def _dot(A: np.ndarray, B: np.ndarray, C=None) -> np.ndarray:
    """A B, plus C when given (C shaped like the product)."""
    lvl = _level(A, B) if C is None else _level(A, B, C)
    if lvl == 0:
        AB = np.dot(as_float_array(A), as_float_array(B))
        return AB if C is None else AB + as_float_array(C)
    A0, A1 = _split(A, lvl)
    B0, B1 = _split(B, lvl)
    C0, C1 = (None, None) if C is None else _split(C, lvl)
    AB0 = _dot(A0, B0, C0)
    if A1 is not None:
        AB1 = _dot_tangent(A1, B0)
        C1 = AB1 if C1 is None else C1 + AB1
    if B1 is not None:
        AdB = _dot(A0, _fold(B1, 1)).reshape(AB0.shape + B1.shape[B.ndim:])
        C1 = AdB if C1 is None else C1 + AdB
    return _join(lvl, AB0, C1)


def _solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    lvl = _level(A, B)
    if lvl == 0:
        return np.linalg.solve(as_float_array(A), as_float_array(B))
    A0, A1 = _split(A, lvl)
    B0, B1 = _split(B, lvl)
    X0 = _solve(A0, B0)
    R = B1
    if A1 is not None:
        AX = _dot_tangent(A1, X0)
        R = -AX if R is None else R - AX
    X1 = _solve(A0, _fold(R, 1)).reshape(R.shape)
    return _join(lvl, X0, X1)


def solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A x = B; works for float and dual-valued systems."""
    return _solve(np.asarray(A), np.asarray(B))


def inv(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A)
    return _solve(A, np.eye(A.shape[0]))


def dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``np.dot(A, B)`` for a matrix or vector A; works for dual-valued arrays."""
    A, B = np.asarray(A), np.asarray(B)
    if A.ndim == 1:
        return _dot(A[None, :], B)[0]
    return _dot(A, B)


def outer(a: np.ndarray, b: np.ndarray, c=None) -> np.ndarray:
    """The outer product a b^T, plus c when given; dual-aware like dot."""
    return _dot(a[:, None], b[None, :], c)
