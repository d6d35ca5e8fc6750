"""Differentiation engine and dense linear algebra over array duals.

Geometric fields are plain closures over chart coordinates: a scalar field
maps a coordinate array to a scalar, a vector field to a length-``dim``
array, an endomorphism field to a ``dim x dim`` matrix.  The engine turns
closures into derivatives either with nested array duals (``mode="ad"``,
exact to rounding, supports second-order nesting) or with central finite
differences (``mode="fd"``, an independent cross-check path).  An ``ad``
pass seeds the whole chart point as one :class:`~triadlab.ad.Dual`: one
direction for :meth:`DiffEngine.deriv`, the identity block for
:meth:`DiffEngine.jacobian`, whose tangent then holds every partial
derivative at once.

A :class:`Section` is a closure that also knows its 1-jet, the pair (value,
Jacobian) at a float point, assembled from per-point tables that are already
cached.  The jet rule lives in :meth:`DiffEngine.deriv` and
:meth:`DiffEngine.jacobian` alone: in ``ad`` mode, at a float point, a field
with a ``jet`` is differentiated by reading it, so no dual pass re-runs the
pipeline behind the field.  Every other case runs the closure, and ``fd``
mode never reads a jet, so it keeps differentiating closures.

The linear algebra helpers (:func:`solve`, :func:`inv`, :func:`dot`,
:func:`outer`) take float arrays or duals, so the same geometric pipelines
run unchanged inside a differentiation pass.  Float arrays go straight to
``numpy.linalg.solve`` / ``np.dot``.  Duals are differentiated with the
forward-mode matrix rules, one perturbation level at a time, on the value
and tangent arrays themselves: no elimination runs over dual scalars.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .ad import (Dual, matmul, ndim, parts, pop_level, push_level, reshape,
                 shape, top_level, transpose)

Point = np.ndarray
ScalarField = Callable[[np.ndarray], object]
VectorField = Callable[[np.ndarray], np.ndarray]
OneForm = Callable[[np.ndarray], np.ndarray]
EndoField = Callable[[np.ndarray], np.ndarray]


def is_float_point(q) -> bool:
    return isinstance(q, np.ndarray)


def max_residual(*values) -> float:
    """The largest of ``values``, or NaN if any of them is NaN.

    Python's ``max`` keeps its first operand when a comparison with NaN is
    false, so ``max(0.0, nan)`` is 0.0 and a NaN residual would pass.
    """
    vals = [float(v) for v in values]
    if any(math.isnan(v) for v in vals):
        return math.nan
    return max(vals)


def _tangent(y, lvl):
    """The level-``lvl`` tangent of a closure result (zero if it is constant)."""
    if isinstance(y, Dual) and y.lvl == lvl:
        return y.du
    return np.zeros(shape(y)) if shape(y) else 0.0


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
            if not isinstance(v, Dual):
                v = np.asarray(v, dtype=float)
            lvl = push_level()
            try:
                y = f(Dual(lvl, p, v))
            finally:
                pop_level()
            return _tangent(y, lvl)
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
            lvl = push_level()
            try:
                y = f(Dual(lvl, p, np.eye(d)))
            finally:
                pop_level()
            if not (isinstance(y, Dual) and y.lvl == lvl):
                return np.zeros(shape(y) + (d,))
            # The seeded directions lead the tangent; move them last.
            n = ndim(y.du)
            return transpose(y.du, tuple(range(1, n)) + (0,))
        # Central differences along every e_l in one loop: the arithmetic of
        # ``deriv`` along each axis, without its per-call overhead.
        h = self.step
        cols = [np.asarray(f(p + s) - f(p - s), dtype=float)
                for s in h * np.eye(d)]
        return np.stack(cols, axis=-1) * (0.5 / h)

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
        return dA_X - dot(dX, Ap) + dot(Ap, dX)


# -- dense linear algebra over float arrays or duals -----------------------
#
# Forward-mode matrix rules (Giles 2008): X = A^-1 B has tangent
# A^-1 (dB - dA X), and C = A B has tangent dA B + A dB.  They are applied one
# perturbation level at a time to a dual's value and tangent arrays (the
# tangent axes lead, so matmul batches over them), and the recursion ends in
# numpy.linalg.solve / np.matmul on float arrays.


def _floats(a) -> np.ndarray:
    return np.asarray(a, dtype=float)


_FLOAT = np.dtype(float)


def _is_floats(a) -> bool:
    """True for a float64 ndarray, which goes straight to numpy."""
    return type(a) is np.ndarray and a.dtype is _FLOAT


def _solve_columns(A, R, nk: int):
    """Solve A X = R for every tangent slice of R in one solve.

    The nk leading tangent axes of R are folded into extra columns.
    """
    if not nk:
        return _solve(A, R)
    s = shape(R)
    n, m = len(s), len(s) - nk
    cols = transpose(R, tuple(range(nk, n)) + tuple(range(nk)))
    X = _solve(A, reshape(cols, (s[nk], -1)))
    X = reshape(X, s[nk:] + s[:nk])
    return transpose(X, tuple(range(m, n)) + tuple(range(m)))


def _solve(A, B):
    lvl = top_level(A, B)
    if not lvl:
        return np.linalg.solve(_floats(A), _floats(B))
    A0, A1 = parts(A, lvl)
    B0, B1 = parts(B, lvl)
    X0 = _solve(A0, B0)
    R = B1
    if A1 is not None:
        AX = matmul(A1, X0)
        R = -AX if R is None else R - AX
    return Dual(lvl, X0, _solve_columns(A0, R, ndim(R) - ndim(X0)))


def solve(A, B):
    """Solve A x = B; works for float and dual-valued systems."""
    if _is_floats(A) and _is_floats(B):
        return np.linalg.solve(A, B)
    return _solve(A, B)


def inv(A):
    return _solve(A, np.eye(shape(A)[0]))


def dot(A, B):
    """``np.dot(A, B)`` for a matrix or vector A; works for duals."""
    if _is_floats(A) and _is_floats(B):
        return np.dot(A, B)
    if isinstance(A, Dual) or isinstance(B, Dual):
        return matmul(A, B)
    return np.dot(_floats(A), _floats(B))


def outer(a, b, c=None):
    """The outer product a b^T, plus c when given; dual-aware like dot."""
    if _is_floats(a) and _is_floats(b):
        ab = np.dot(a[:, None], b[None, :])
    elif isinstance(a, Dual) or isinstance(b, Dual):
        ab = a[:, None] * b[None, :]
    else:
        ab = np.dot(_floats(a)[:, None], _floats(b)[None, :])
    return ab if c is None else ab + c
