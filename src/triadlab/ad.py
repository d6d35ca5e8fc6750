"""Nested forward-mode dual numbers over whole numpy arrays.

A :class:`Dual` holds a value array ``re`` and a tangent array ``du`` whose
*leading* axes K index the perturbation directions: ``du.shape == K +
re.shape``, with K = () for one direction or (k,) for a seeded block of k
directions (a whole Jacobian in one pass).  Either slot may hold a ``Dual``
of a *lower* perturbation level, which is what makes second-order nesting
(derivatives of quantities that are themselves computed by differentiation)
work without perturbation confusion.  A scalar is a dual with a 0-d value.

This holds for every dual, the engine's identity seed too: its tangent is
a read-only broadcast view, so no operation writes into a tangent, and
adding a float shift returns the seed's tangent array itself.  Because the
tangent axes lead, numpy broadcasting and ``matmul`` batching apply the
product rule to whole arrays; singleton value axes are inserted after K
only where two operands' value ranks differ.

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


def _pad(t, nk: int, n: int):
    """Insert n singleton axes after the nk leading tangent axes of t."""
    if n <= 0:
        return t
    s = shape(t)
    return reshape(t, s[:nk] + (1,) * n + s[nk:])


def broadcast_to(t, s):
    """Broadcast the array or dual t to the value shape s."""
    if shape(t) == s:
        return t
    if isinstance(t, Dual):
        k = shape(t.du)[:t.nk]
        return Dual(t.lvl, broadcast_to(t.re, s), broadcast_to(t.du, k + s))
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

    @property
    def nk(self) -> int:
        """Number of leading tangent axes of ``du``."""
        return ndim(self.du) - ndim(self.re)

    # Array-kind probes (``A.dtype``, ``A.flat``) see one opaque element.
    dtype = np.dtype(object)

    @property
    def flat(self):
        return iter((self,))

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, idx):
        if not isinstance(idx, tuple):
            idx = (idx,)
        return Dual(self.lvl, self.re[idx],
                    self.du[(slice(None),) * self.nk + idx])

    def take(self, indices, axis: int = -1):
        """Entries ``indices`` along the last value axis, like
        ``ndarray.take``; the tangent axes lead, so it is du's last axis too."""
        if axis != -1:
            raise ValueError("Dual.take supports axis=-1 only")
        return Dual(self.lvl, self.re.take(indices, axis=-1),
                    self.du.take(indices, axis=-1))

    def reshape(self, s: tuple):
        nk = self.nk
        return Dual(self.lvl, reshape(self.re, s),
                    reshape(self.du, shape(self.du)[:nk] + tuple(s)))

    def transpose(self, axes: tuple | None = None):
        if axes is None:
            axes = tuple(range(self.ndim))[::-1]
        nk = self.nk
        return Dual(self.lvl, transpose(self.re, axes),
                    transpose(self.du, tuple(range(nk))
                               + tuple(nk + a for a in axes)))

    @property
    def T(self):
        return self.transpose()

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
        return Dual(lvl, re, _sum_tangent(re, x0, x1, y0, y1, False))

    __radd__ = __add__

    def __sub__(self, o):
        lvl = top_level(self, o)
        x0, x1 = parts(self, lvl)
        y0, y1 = parts(o, lvl)
        re = x0 - y0
        return Dual(lvl, re, _sum_tangent(re, x0, x1, y0, y1, True))

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        lvl = top_level(self, o)
        x0, x1 = parts(self, lvl)
        y0, y1 = parts(o, lvl)
        rx, ry = ndim(x0), ndim(y0)
        du = None
        if x1 is not None:
            du = _pad(x1, ndim(x1) - rx, ry - rx) * y0
        if y1 is not None:
            t = x0 * _pad(y1, ndim(y1) - ry, rx - ry)
            du = t if du is None else du + t
        return Dual(lvl, x0 * y0, du)

    __rmul__ = __mul__

    def __truediv__(self, o):
        return _div(self, o)

    def __rtruediv__(self, o):
        return _div(o, self)

    def __matmul__(self, o):
        return matmul(self, o)

    def __rmatmul__(self, o):
        return matmul(o, self)


def _sum_tangent(re, x0, x1, y0, y1, minus: bool):
    """Tangent of x0 + y0 (or x0 - y0), broadcast to K + shape(re)."""
    rx, ry = ndim(x0), ndim(y0)
    if x1 is not None and y1 is not None:
        a = _pad(x1, ndim(x1) - rx, ry - rx)
        b = _pad(y1, ndim(y1) - ry, rx - ry)
        return a - b if minus else a + b
    t, r = (x1, rx) if y1 is None else (y1, ry)
    nk = ndim(t) - r
    t = broadcast_to(_pad(t, nk, ndim(re) - r), shape(t)[:nk] + shape(re))
    return -t if minus and y1 is not None else t


def _div(x, y):
    lvl = top_level(x, y)
    x0, x1 = parts(x, lvl)
    y0, y1 = parts(y, lvl)
    q = x0 / y0
    rx, ry = ndim(x0), ndim(y0)
    if y1 is None:
        return Dual(lvl, q, _pad(x1, ndim(x1) - rx, ry - rx) / y0)
    qdy = q * _pad(y1, ndim(y1) - ry, rx - ry)
    if x1 is None:
        return Dual(lvl, q, -qdy / y0)
    return Dual(lvl, q, (_pad(x1, ndim(x1) - rx, ry - rx) - qdy) / y0)


def matmul(x, y):
    """``x @ y`` with numpy's matmul semantics; either operand may be a dual.

    The tangent is dx @ y + x @ dy; a vector operand is promoted to a matrix
    the way matmul itself does it, so the rule only meets operands of rank
    two or more, whose batch axes broadcast behind the tangent axes.
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
    rx, ry = ndim(x0), ndim(y0)
    du = None
    if x1 is not None:
        du = _pad(x1, ndim(x1) - rx, ry - rx) @ y0
    if y1 is not None:
        t = x0 @ _pad(y1, ndim(y1) - ry, rx - ry)
        du = t if du is None else du + t
    out = Dual(lvl, x0 @ y0, du)
    if col:
        out = out[..., 0]
    if row:
        out = out[..., 0] if col else out[..., 0, :]
    return out


def stack(items):
    """Stack items along a new last axis; any item may be a dual.

    Float items broadcast against each other, so a batch of entries can
    stand next to constants.  The value is the stack of the items' values.
    The tangent is the stack of the items' tangents at the top level, a
    constant item's being one zero of shape K + the value's batch shape,
    with K the tangent axes of the first item of that level, and a live
    item of lower rank than the batch padded after its own K axes, so that
    it broadcasts over the batch; a tangent that is itself a dual is
    stacked by the same rule, one level down.
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
    zero = np.zeros(shape(first.du)[:first.nk] + shape(re)[:-1])
    return Dual(lvl, re, stack([_pad(x.du, x.nk, ndim(re) - 1 - x.ndim)
                                if on else zero
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
