"""Nested forward-mode dual numbers over whole numpy arrays.

A :class:`Dual` holds a value array ``re`` and a tangent array ``du`` whose
*leading* axis indexes a block of k >= 1 perturbation directions:
``du.shape == (k,) + re.shape``, k = 1 for one direction, k = dim for a
whole Jacobian in one pass (vector forward mode).  Either slot may hold a
``Dual`` of a *lower* perturbation level, which is what makes second-order
nesting (derivatives of quantities that are themselves computed by
differentiation) work without perturbation confusion.  A scalar is a dual
with a 0-d value.

This holds for every dual, the engine's identity seed too: its tangent is
a read-only broadcast view, so no operation writes into a tangent, and
adding a float shift returns the seed's tangent array itself.  Because the
direction axis leads, numpy broadcasting and ``matmul`` batching apply the
product rule to whole arrays.  There is one rank rule, :func:`_lift`: each
operand's tangent is lifted to the value rank of the result, by singleton
value axes inserted behind its direction axis.

Numpy never treats a dual as an array: ``__array_ufunc__ = None`` and a
raising ``__array__`` make a ufunc, ``np.dot`` or ``np.array`` on a dual fail
with ``TypeError`` instead of building an object array.  Code that can see a
dual point uses the operators (``@`` included), the functions below, and
:mod:`triadlab.engine`'s ``dot``, ``solve``, ``inv`` and ``outer``.

Levels are allocated by :func:`push_level` / :func:`pop_level`; an inner
differentiation always runs at a strictly higher level than the variables it
closes over, so mixed-level arithmetic can tell the two perturbations apart.
"""

from __future__ import annotations

import math

import numpy as np

_LEVEL = 0


def push_level() -> int:
    global _LEVEL
    _LEVEL += 1
    return _LEVEL


def pop_level() -> None:
    global _LEVEL
    _LEVEL -= 1


def shape(x) -> tuple:
    """Value shape of an array, a float or a dual."""
    return getattr(x, "shape", ())


def ndim(x) -> int:
    """Value rank of an array, a float or a dual."""
    return getattr(x, "ndim", 0)


def reshape(x, s):
    """Reshape the value of an array or a dual."""
    return x.reshape(s) if isinstance(x, Dual) else np.reshape(x, s)


def transpose(x, axes):
    """Permute the value axes of an array or a dual."""
    return x.transpose(axes) if isinstance(x, Dual) else np.transpose(x, axes)


def _lift(t, r: int):
    """The tangent t with singleton value axes inserted after its direction
    axis, up to value rank r; t itself if its value rank is r or more."""
    n = r + 1 - ndim(t)
    if n <= 0:
        return t
    s = shape(t)
    return reshape(t, s[:1] + (1,) * n + s[1:])


def broadcast_to(t, s):
    """Broadcast the array or dual t to the value shape s."""
    if shape(t) == s:
        return t
    if isinstance(t, Dual):
        return Dual(t.lvl, broadcast_to(t.re, s),
                    broadcast_to(_lift(t.du, len(s)), shape(t.du)[:1] + s))
    return np.broadcast_to(t, s)


def parts(x, lvl):
    """(value, tangent) of x at level lvl; the tangent is None if constant."""
    if isinstance(x, Dual) and x.lvl == lvl:
        return x.re, x.du
    return x, None


def top_level(x, y) -> int:
    """The higher perturbation level of x and y (0 when neither is a dual)."""
    return max(x.lvl if isinstance(x, Dual) else 0,
               y.lvl if isinstance(y, Dual) else 0)


class Dual:
    __slots__ = ("lvl", "re", "du")
    __array_ufunc__ = None

    def __init__(self, lvl, re, du):
        self.lvl = lvl
        self.re = re
        self.du = du

    def __repr__(self):
        return "Dual<%d>(%r, %r)" % (self.lvl, self.re, self.du)

    def __array__(self, *args, **kwargs):
        raise TypeError("a Dual is not a numpy array; use triadlab.engine's "
                        "dot/solve/inv/outer or the @ operator")

    # -- shape and value-axis operations ---------------------------------

    @property
    def shape(self) -> tuple:
        return shape(self.re)

    @property
    def ndim(self) -> int:
        return ndim(self.re)

    # The benchmark tracer's ``_solve_kind`` tells a dual solve from a float
    # one by ``A.dtype`` and ``A.flat``: a dual shows as one opaque element.
    dtype = np.dtype(object)

    @property
    def flat(self):
        return iter((self,))

    def __getitem__(self, idx):
        if not isinstance(idx, tuple):
            idx = (idx,)
        return Dual(self.lvl, self.re[idx], self.du[(slice(None),) + idx])

    def take(self, indices, axis: int = -1):
        """Entries ``indices`` along the last value axis, like
        ``ndarray.take``; the direction axis leads, so it is du's last axis
        too."""
        if axis != -1:
            raise ValueError("Dual.take supports axis=-1 only")
        return Dual(self.lvl, self.re.take(indices, axis=-1),
                    self.du.take(indices, axis=-1))

    def reshape(self, s: tuple):
        return Dual(self.lvl, reshape(self.re, s),
                    reshape(self.du, shape(self.du)[:1] + tuple(s)))

    def transpose(self, axes: tuple):
        return Dual(self.lvl, transpose(self.re, axes),
                    transpose(self.du, (0,) + tuple(1 + a for a in axes)))

    @property
    def mT(self):
        """The last two value axes swapped, like ``ndarray.mT``."""
        n = self.ndim
        return self.transpose(tuple(range(n - 2)) + (n - 1, n - 2))

    # -- arithmetic ------------------------------------------------------

    def __neg__(self):
        return Dual(self.lvl, -self.re, -self.du)

    def __add__(self, o):
        lvl = top_level(self, o)
        x0, x1 = parts(self, lvl)
        y0, y1 = parts(o, lvl)
        re = x0 + y0
        return Dual(lvl, re, _sum_tangent(re, x1, y1, False))

    __radd__ = __add__

    def __sub__(self, o):
        lvl = top_level(self, o)
        x0, x1 = parts(self, lvl)
        y0, y1 = parts(o, lvl)
        re = x0 - y0
        return Dual(lvl, re, _sum_tangent(re, x1, y1, True))

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        lvl = top_level(self, o)
        x0, x1 = parts(self, lvl)
        y0, y1 = parts(o, lvl)
        re = x0 * y0
        r = ndim(re)
        du = None
        if x1 is not None:
            du = _lift(x1, r) * y0
        if y1 is not None:
            t = x0 * _lift(y1, r)
            du = t if du is None else du + t
        return Dual(lvl, re, du)

    __rmul__ = __mul__

    def __truediv__(self, o):
        return _div(self, o)

    def __rtruediv__(self, o):
        return _div(o, self)

    def __matmul__(self, o):
        return matmul(self, o)

    def __rmatmul__(self, o):
        return matmul(o, self)


def _sum_tangent(re, x1, y1, minus: bool):
    """Tangent of x0 + y0 (or x0 - y0), broadcast to (k,) + shape(re)."""
    r = ndim(re)
    if x1 is not None and y1 is not None:
        a, b = _lift(x1, r), _lift(y1, r)
        return a - b if minus else a + b
    t = _lift(x1 if y1 is None else y1, r)
    t = broadcast_to(t, shape(t)[:1] + shape(re))
    return -t if minus and y1 is not None else t


def _div(x, y):
    lvl = top_level(x, y)
    x0, x1 = parts(x, lvl)
    y0, y1 = parts(y, lvl)
    q = x0 / y0
    r = ndim(q)
    if y1 is None:
        du = _lift(x1, r)
    else:
        qdy = q * _lift(y1, r)
        du = -qdy if x1 is None else _lift(x1, r) - qdy
    return Dual(lvl, q, du / y0)


def matmul(x, y):
    """``x @ y`` with numpy's matmul semantics; either operand may be a dual.

    The tangent is dx @ y + x @ dy; a vector operand is promoted to a matrix
    the way matmul itself does it, so the rule only meets operands of rank
    two or more, whose batch axes broadcast behind the direction axis.
    """
    lvl = top_level(x, y)
    if not lvl:
        return np.matmul(x, y)
    row, col = ndim(x) == 1, ndim(y) == 1
    if row:
        x = x[None, :]
    if col:
        y = y[:, None]
    x0, x1 = parts(x, lvl)
    y0, y1 = parts(y, lvl)
    re = x0 @ y0
    r = ndim(re)
    du = None
    if x1 is not None:
        du = _lift(x1, r) @ y0
    if y1 is not None:
        t = x0 @ _lift(y1, r)
        du = t if du is None else du + t
    out = Dual(lvl, re, du)
    if col:
        out = out[..., 0]
    if row:
        out = out[..., 0] if col else out[..., 0, :]
    return out


def stack(items):
    """Stack items along a new last axis; any item may be a dual.

    Float items broadcast against each other, so a batch of entries can
    stand next to constants.  The value is the stack of the items' values.
    The tangent is the stack of the items' tangents at the top level, each
    lifted to the value's batch rank, so that it broadcasts over the batch,
    and a constant item's being one zero of shape (k,) + the value's batch
    shape, with k the directions of the first item of that level; a tangent
    that is itself a dual is stacked by the same rule, one level down.
    """
    lvl = 0
    for x in items:
        if isinstance(x, Dual) and x.lvl > lvl:
            lvl = x.lvl
    if not lvl:
        shapes = {shape(x) for x in items}
        if shapes == {()}:
            return np.array(items, dtype=float)
        if len(shapes) > 1:
            s = np.broadcast_shapes(*shapes)
            items = [np.broadcast_to(x, s) for x in items]
        return np.stack(items, axis=-1)
    live = [isinstance(x, Dual) and x.lvl == lvl for x in items]
    re = stack([x.re if on else x for x, on in zip(items, live)])
    first = items[live.index(True)]
    zero = np.zeros(shape(first.du)[:1] + shape(re)[:-1])
    r = ndim(re) - 1
    return Dual(lvl, re, stack([_lift(x.du, r) if on else zero
                                for x, on in zip(items, live)]))


def array(rows):
    """``np.array(rows, dtype=float)`` for a vector or a matrix given as
    (nested) lists of entries: scalars, duals, or float batches of scalars,
    whose batch axes then lead the result.  A matrix is the :func:`stack` of
    its entries, reshaped."""
    if isinstance(rows[0], (list, tuple)):
        s = stack([x for row in rows for x in row])
        return reshape(s, shape(s)[:-1] + (len(rows), len(rows[0])))
    return stack(list(rows))


# -- elementary functions ---------------------------------------------------
#
# A float evaluation gives the same bits whether or not a dual pass is
# running, and whether a point comes alone or in a batch.  Scalars go
# through ``math``, and so does every entry of a float array for the
# transcendental functions: numpy's vectorised ``exp`` differs from
# ``math.exp`` in the last bit on some inputs.  ``sqrt`` is correctly
# rounded in both.


def _each(fn, x):
    """``fn`` applied to every entry of a float array through ``math``."""
    return np.array([fn(t) for t in x.flat]).reshape(x.shape)


def sin(x):
    if isinstance(x, Dual):
        return Dual(x.lvl, sin(x.re), cos(x.re) * x.du)
    return _each(math.sin, x) if ndim(x) else math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(x.lvl, cos(x.re), -sin(x.re) * x.du)
    return _each(math.cos, x) if ndim(x) else math.cos(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.re)
        return Dual(x.lvl, e, e * x.du)
    return _each(math.exp, x) if ndim(x) else math.exp(x)


def sqrt(x):
    if isinstance(x, Dual):
        r = sqrt(x.re)
        return Dual(x.lvl, r, x.du / (2.0 * r))
    return np.sqrt(x) if ndim(x) else math.sqrt(x)
