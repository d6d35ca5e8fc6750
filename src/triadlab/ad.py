"""Nested forward-mode dual numbers.

A :class:`Dual` carries a value ``re`` and a single derivative slot ``du``.
Either slot may hold a plain float or another ``Dual`` of a *lower*
perturbation level, which is what makes second-order nesting (derivatives of
quantities that are themselves computed by differentiation) work without
perturbation confusion.  The derivative slot may also hold a numpy float
vector: seeding a full identity block this way yields a whole gradient in
one evaluation pass.

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


class Dual:
    __slots__ = ("lvl", "re", "du")

    def __init__(self, lvl, re, du):
        self.lvl = lvl
        self.re = re
        self.du = du

    def __repr__(self):
        return "Dual<%d>(%r, %r)" % (self.lvl, self.re, self.du)

    # Binary ops refuse ndarrays so numpy falls back to elementwise
    # broadcasting, which is the behaviour we want for vector slots.

    def __add__(self, o):
        if isinstance(o, np.ndarray):
            return NotImplemented
        if isinstance(o, Dual):
            if o.lvl == self.lvl:
                return Dual(self.lvl, self.re + o.re, self.du + o.du)
            if o.lvl < self.lvl:
                return Dual(self.lvl, self.re + o, self.du)
            return Dual(o.lvl, self + o.re, o.du)
        return Dual(self.lvl, self.re + o, self.du)

    __radd__ = __add__

    def __neg__(self):
        return Dual(self.lvl, -self.re, -self.du)

    def __sub__(self, o):
        if isinstance(o, np.ndarray):
            return NotImplemented
        return self + (-o)

    def __rsub__(self, o):
        if isinstance(o, np.ndarray):
            return NotImplemented
        return (-self) + o

    def __mul__(self, o):
        if isinstance(o, np.ndarray):
            return NotImplemented
        if isinstance(o, Dual):
            if o.lvl == self.lvl:
                return Dual(self.lvl, self.re * o.re,
                            self.re * o.du + self.du * o.re)
            if o.lvl < self.lvl:
                return Dual(self.lvl, self.re * o, self.du * o)
            return Dual(o.lvl, self * o.re, self * o.du)
        return Dual(self.lvl, self.re * o, self.du * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, np.ndarray):
            return NotImplemented
        if isinstance(o, Dual):
            if o.lvl == self.lvl:
                q = self.re / o.re
                return Dual(self.lvl, q,
                            (self.du - q * o.du) / o.re)
            if o.lvl < self.lvl:
                return Dual(self.lvl, self.re / o, self.du / o)
            q = self / o.re
            return Dual(o.lvl, q, -(q * o.du) / o.re)
        return Dual(self.lvl, self.re / o, self.du / o)

    def __rtruediv__(self, o):
        if isinstance(o, np.ndarray):
            return NotImplemented
        q = o / self.re
        return Dual(self.lvl, q, -(q * self.du) / self.re)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise TypeError("Dual.__pow__ supports non-negative ints only")
        out = 1.0
        for _ in range(n):
            out = out * self
        return out


def value(x) -> float:
    """Strip every dual layer and return the underlying float."""
    while isinstance(x, Dual):
        x = x.re
    return float(x)


def sin(x):
    if isinstance(x, Dual):
        return Dual(x.lvl, sin(x.re), cos(x.re) * x.du)
    return math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(x.lvl, cos(x.re), (-sin(x.re)) * x.du)
    return math.cos(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.re)
        return Dual(x.lvl, e, e * x.du)
    return math.exp(x)


def sqrt(x):
    if isinstance(x, Dual):
        r = sqrt(x.re)
        return Dual(x.lvl, r, x.du / (2.0 * r))
    return math.sqrt(x)

