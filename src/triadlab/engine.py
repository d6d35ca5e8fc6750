"""Differentiation engine and dense linear algebra over array duals.

Geometric fields are plain closures over chart coordinates: a scalar field
maps a coordinate array to a scalar, a vector field to a length-``dim``
array, an endomorphism field to a ``dim x dim`` matrix.  The engine turns
closures into derivatives either with nested array duals (``mode="ad"``,
exact to rounding, supports second-order nesting) or with central finite
differences (``mode="fd"``, an independent cross-check path).

:meth:`DiffEngine.deriv` takes the derivative of a closure at p along one
direction ``v``: shape ``(dim,)``, shared by every point of a batch, or
``(*batch, dim)``, one per point.  :meth:`DiffEngine.jacobian` reads the
identity seed the engine holds for each point shape, ``(dim, *batch,
dim)``, one identity broadcast over the batch axes: in ``ad`` mode one
:class:`~triadlab.ad.Dual` whose tangent is that seed, every direction and
every point of a batch at once; in ``fd`` mode one call of the closure on
the stacked ``(2, dim, *batch, dim)`` identity stencil ``[p + h e_l, p - h
e_l]``.  At a float point or batch, ``deriv`` along any v is that Jacobian
contracted with v, in both modes.  Only at a dual point does it run its own
dual pass along v, broadcast over the point's batch axes.

So every closure the engine differentiates takes a point with leading batch
axes, shape ``(..., dim)``, and returns its value at every point of the
batch, with the same leading axes; it indexes coordinates as ``q[..., i]``.
Each entry of a float batch gets the arithmetic of a single point, so an
``fd`` result at a batch is bitwise the per-point one; an ``ad`` result
matches it to rounding.  A point that is itself a stencil or a dual batch
gets a stencil or a seed over that batch: the nested d lam is taken so.
Every derivative at a float point or batch reads the point's one identity
seed, the one the triad's Jacobian tables are built on, and the triad's
store keeps what the pipelines compute on it (the ``ad`` seed's dual
tables, the ``fd`` stencil's values) for as long as the triad lives, so
they run once for every field and direction.

Batch axes look like matrix axes to ``np.dot``, so products of fields go
through the helpers here, and a single point is a batch without batch
axes: :func:`dot` is :func:`~triadlab.ad.matmul`, :func:`matvec` applies a
matrix field to a vector field passed as ``x[..., None]``, :func:`inner`
pairs two vector fields as a row times a column, and :func:`outer` is one
broadcast product; :func:`lead` and :func:`tail` contract a rank-3 table's
first or last slot with a matrix.  Every product is a stacked ``np.matmul``
with the batch axes, and a c sweep's axis, in front: it and the stacked
``np.linalg.solve`` give each point the bits of that point alone.

The linear algebra helpers (:func:`solve`, :func:`inv`, :func:`dot`,
:func:`outer`) take float arrays or duals, so the same geometric pipelines
run unchanged inside a differentiation pass.  Float arrays go straight to
``numpy.linalg.solve`` / ``np.matmul``; any other operand that is not a
dual is read as a float array first.  Duals are differentiated with the
forward-mode matrix rules, one perturbation level at a time, on the value
and tangent arrays themselves: no elimination runs over dual scalars.
"""

from __future__ import annotations

from functools import reduce
from numbers import Real
from typing import Callable

import numpy as np

from .ad import (Dual, broadcast_to, matmul, ndim, parts, pop_level,
                 push_level, reshape, shape, top_level, transpose)

FD_STEP = 1e-4     # the default fd step, of an engine and of a run


def is_float_point(q) -> bool:
    return isinstance(q, np.ndarray)


def max_residual(*values):
    """The largest of ``values`` per point, or NaN where any of them is NaN.

    Python's ``max`` keeps its first operand when a comparison with NaN is
    false, so ``max(0.0, nan)`` is 0.0 and a NaN residual would pass.
    """
    return reduce(np.maximum, values)


class DiffEngine:
    """Directional derivatives of chart-coordinate closures.

    mode : ``"ad"`` for nested forward-mode duals, ``"fd"`` for central
        finite differences with step ``step``.
    """

    def __init__(self, mode: str = "ad", step: float = FD_STEP):
        if mode not in ("ad", "fd"):
            raise ValueError("mode must be 'ad' or 'fd', got %r" % (mode,))
        if isinstance(step, bool) or not (isinstance(step, Real)
                                          and 0 < step < np.inf):
            raise ValueError("fd step must be a positive finite real, got %r"
                             % (step,))
        self.mode = mode
        self.step = float(step)
        self._sides = np.array([self.step, -self.step])  # fd stencil sides
        self._eyes: dict = {}           # point shape -> its identity seed

    # -- the differentiation pass -------------------------------------------

    def _pass(self, f, p, V):
        """One dual pass of ``f`` at p along the k rows of V, shape ``(k,
        ...)``; the result's leading axis indexes the rows."""
        lvl = push_level()
        try:
            y = f(Dual(lvl, p, V))
        finally:
            pop_level()
        if not (isinstance(y, Dual) and y.lvl == lvl):
            return np.zeros(shape(V)[:1] + shape(y))
        return y.du

    def _eye(self, s: tuple):
        """The identity seed for points of shape s, ``(dim, *s)``: one
        identity broadcast over s's batch axes, held once per shape."""
        E = self._eyes.get(s)
        if E is None:
            E = self._eyes[s] = np.moveaxis(
                np.broadcast_to(np.eye(s[-1]), s + s[-1:]), -2, 0)
        return E

    def stencil(self, p):
        """The ``fd`` identity stencil ``[p + h e_l, p - h e_l]`` at a float
        point or batch, shape ``(2, dim, *batch, dim)``."""
        # p + (-h e_l) has the bits of p - h e_l
        return p + np.multiply.outer(self._sides, self._eye(shape(p)))

    def deriv(self, f, p, v):
        """Directional derivative of a scalar/vector/matrix closure at p along
        v, one direction shared by a batch or one per point.

        At a float point or batch, in either mode, it is the
        :meth:`jacobian` contracted with v; at a dual point one dual pass
        along v, which may be a dual, seeds every point.
        """
        if not isinstance(v, Dual):
            v = np.asarray(v, dtype=float)
        if not is_float_point(p):
            # one row, and a direction shared by a batch broadcast over it
            v = reshape(v, (1,) * (p.ndim - ndim(v) + 1) + shape(v))
            return self._pass(f, p, broadcast_to(v, (1,) + p.shape))[0]
        jac = self.jacobian(f, p)
        # v meets the Jacobian's last axis at every point and entry
        v = v.reshape(v.shape[:-1] + (1,) * (jac.ndim - p.ndim) + v.shape[-1:])
        return np.einsum('...l,...l->...', jac, v)

    def jacobian(self, f, p):
        """Full coordinate Jacobian; result has one trailing axis of length dim.

        ``jacobian(f, p)[..., l]`` is the partial derivative of ``f`` along
        chart coordinate ``l``.  Both modes read the identity seed the
        engine holds for p's shape, its rows behind p's batch axes.  In
        ``ad`` mode it is one dual pass along that seed, with the direction
        axis moved last; in ``fd`` mode one call on the stencil
        ``[p + h e_l, p - h e_l]``, its central differences in a C-ordered
        copy.
        """
        if self.mode == "ad":
            D = self._pass(f, p, self._eye(shape(p)))
            return transpose(D, tuple(range(1, ndim(D))) + (0,))
        pts = self.stencil(p)
        y = f(pts)
        if shape(y)[:p.ndim + 1] != pts.shape[:-1]:
            raise ValueError(
                "fd closure returned shape %s on a stencil of shape %s: it "
                "must take leading batch axes and keep them"
                % (shape(y), pts.shape))
        D = (y[0] - y[1]) * (0.5 / self.step)
        return np.ascontiguousarray(np.moveaxis(D, 0, -1))

    # -- named operations ------------------------------------------------

    def exterior_derivative(self, alpha: Callable, p):
        """d(alpha) as the exactly antisymmetric matrix of a two-form.

        Entry [i, j] equals (d alpha)(e_i, e_j) = d_i alpha_j - d_j alpha_i,
        in the convention without a 1/2 factor, so that
        d(alpha)(X, Y) = X[alpha(Y)] - Y[alpha(X)] - alpha([X, Y]).
        """
        jac = self.jacobian(alpha, p)            # jac[..., i, l] = d_l alpha_i
        return jac.mT - jac


# -- dense linear algebra over float arrays or duals -----------------------
#
# Forward-mode matrix rules (Giles 2008): X = A^-1 B has tangent
# A^-1 (dB - dA X), and C = A B has tangent dA B + A dB.  They are applied one
# perturbation level at a time to a dual's value and tangent arrays (the
# direction axis leads, so matmul batches over it), and the recursion ends in
# numpy.linalg.solve / np.matmul on float arrays.


def _floats(a) -> np.ndarray:
    return np.asarray(a, dtype=float)


def _solve_columns(A, R):
    """Solve A X = R for every direction of the tangent R in one solve.

    R's leading direction axis is folded into extra columns, behind the
    batch axes, which stay.
    """
    s = shape(R)
    keep = s[1:-1] or s[1:]         # a vector's one axis, or a matrix's rows
    cols = transpose(R, tuple(range(1, len(s))) + (0,))
    X = _solve(A, reshape(cols, keep + (-1,)))
    value = shape(X)[:-1] + s[1 + len(keep):]
    m = len(value)
    X = reshape(X, value + s[:1])
    return transpose(X, (m,) + tuple(range(m)))


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
    return Dual(lvl, X0, _solve_columns(A0, R))


def solve(A, B):
    """Solve A x = B; works for float and dual-valued systems."""
    return _solve(A, B)


def inv(A):
    return _solve(A, np.eye(shape(A)[-1]))


def dot(A, B):
    """``A @ B`` for matrices and vectors, either one batched; works for
    duals.  Any other operand is read as a float array first."""
    if isinstance(A, Dual) or isinstance(B, Dual):
        return matmul(A, B)
    return np.matmul(_floats(A), _floats(B))


def matvec(A, x):
    """A x for a matrix field A and a vector field x, either one batched."""
    return dot(A, x[..., None])[..., 0]


def lead(M, T):
    """(M T)[k, i, j] = M[k, a] T[a, i, j] for a table T[..., a, i, j]."""
    R = np.matmul(M, T.reshape(T.shape[:-2] + (-1,)))
    return R.reshape(R.shape[:-1] + T.shape[-2:])


def tail(T, M):
    """(T M)[a, i, j] = T[a, i, l] M[l, j] for a table T[..., a, i, l]."""
    R = np.matmul(T.reshape(T.shape[:-3] + (-1, T.shape[-1])), M)
    return R.reshape(R.shape[:-2] + T.shape[-3:-1] + M.shape[-1:])


def columns(x):
    """The m columns of x, shape ``(*batch, d, m)``, as m vectors stacked in
    front, ``(m, *batch, d)``, C-ordered, so that a contraction over their
    last axis keeps the bits of each column alone."""
    return np.ascontiguousarray(np.moveaxis(x, -1, 0))


def colmul(A, X):
    """A X for a matrix field A and a field of columns X, ``(*batch, d, m)``:
    one stacked matvec per column, so each column has the bits of
    ``matvec(A, x)`` on that column alone."""
    return matvec(A[..., None, :, :], X.mT).mT


def lie_endo(x, dx, A, dA):
    """(L_X A)(Y) = [X, AY] - A[X, Y] = (dA x) - dx A + A dx at a point, from
    the values x, A and Jacobians dx, dA (dA[..., a, b, l] = d_l A[a, b]);
    stacked vectors x carry their stack axes in front."""
    return np.einsum('...abl,...l->...ab', dA, x) - dot(dx, A) + dot(A, dx)


def inner(x, y):
    """x . y for two vector fields, either one batched."""
    return dot(x[..., None, :], y[..., :, None])[..., 0, 0]


def outer(a, b, c=None):
    """The outer product a b^T, plus c when given; dual-aware like dot."""
    if not (isinstance(a, Dual) or isinstance(b, Dual)):
        a, b = _floats(a), _floats(b)
    ab = a[..., :, None] * b[..., None, :]
    return ab if c is None else ab + c
