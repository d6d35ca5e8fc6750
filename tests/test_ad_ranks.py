"""A seeded property test of ``ad``'s rank rule.

Random expressions built from ``+ - * / @``, ``stack``, ``array``, ``sin``,
``cos``, ``exp`` and ``sqrt`` run over operands of value rank 0 to 3, each a
float or a dual, on either side of each operation.  Every leaf is affine in
the direction variables, so one dual evaluation gives the expression's
derivatives along them, and central differences of float evaluations check
each first derivative and, with two nesting levels, each mixed second
derivative.

A dual's tangent holds a block of k directions in front of its value axes.
Here k is 1 or 5 and no value axis has length 5, so a tangent whose
direction axis lands among its value axes fails to broadcast, or breaks the
shape invariant checked at every node, rather than passing by accident.

Only public names of :mod:`triadlab.ad` are used, and the duals are built
directly at levels 1 and 2, as the engine's nested passes build them.
"""

import random

import numpy as np
import pytest

from triadlab import ad
from triadlab.ad import Dual

LENGTHS = (1, 2, 2, 3, 3, 4)    # value axis lengths, never 5
EXPRESSIONS = 20                 # per direction layout
LIVE = 0.5                       # the chance that a leaf varies at a level


def _shape(rng, rank):
    return tuple(rng.choice(LENGTHS) for _ in range(rank))


def _reduced(rng, s):
    """A shape that broadcasts to s: as often as not of lower rank, the
    trailing axes of s, with some set to 1."""
    if s and rng.random() < 0.5:
        s = s[rng.randint(1, len(s)):]
    return tuple(1 if rng.random() < 0.3 else n for n in s)


def _coeff(rng, s):
    x = np.array([rng.uniform(-1.0, 1.0) for _ in range(int(np.prod(s)))])
    return float(x[0]) if s == () else x.reshape(s)


def _leaf(rng, s, ks):
    """A leaf of value shape s: a + t.B + u.C + t.D.u in the directions t
    of the outer pass, ks[0] of them, and u of the inner one, ks[1], with
    each part present or not at random; an absent part reads as zero."""
    parts = [_coeff(rng, s),
             _coeff(rng, (ks[0],) + s) if rng.random() < LIVE else None]
    if len(ks) == 2 and rng.random() < LIVE:
        parts.append(_coeff(rng, (ks[1],) + s))
        parts.append(_coeff(rng, ks + s) if rng.random() < 0.5 else None)
    return ("leaf", tuple(parts))


def _matmul_shapes(rng, s):
    """Two operand shapes whose matmul has shape s, vectors included."""
    n = rng.choice(LENGTHS)
    if len(s) == 0:
        return (n,), (n,)
    if len(s) == 1:
        return rng.choice([(s + (n,), (n,)), ((n,), (n,) + s)])
    b, (m, p) = s[:-2], s[-2:]
    options = [(b + (m, n), (n, p)), ((m, n), b + (n, p))]
    if b:
        options.append((b + (m, n), _reduced(rng, b) + (n, p)))
    else:       # a vector against a stack of matrices, or the reverse
        options += [((n,), (m, n, p)), (s + (n,), (n,))]
    return rng.choice(options)


def _make(rng, s, depth, ks):
    """A random expression tree whose value has shape s."""
    if depth == 0 or rng.random() < 0.2:
        return _leaf(rng, s, ks)
    ops = ["+", "-", "*", "/", "@", "sin", "cos", "exp", "sqrt"]
    if s:
        ops += ["stack", "array"]
    op = rng.choice(ops)
    sub = lambda t: _make(rng, t, depth - 1, ks)
    if op in ("+", "-", "*", "/"):
        args = [sub(s), sub(_reduced(rng, s))]
        rng.shuffle(args)
        return (op, *args)
    if op == "@":
        a, b = _matmul_shapes(rng, s)
        return (op, sub(a), sub(b))
    if op == "stack":
        items = [sub(_reduced(rng, s[:-1])) for _ in range(s[-1])]
        items[rng.randrange(s[-1])] = sub(s[:-1])
        return (op, *items)
    if op == "array":       # a matrix of entries, or a vector
        rows, cols = s[-2:] if len(s) >= 2 and rng.random() < 0.5 else (
            s[-1], None)
        batch = s[:-2] if cols else s[:-1]
        items = [sub(_reduced(rng, batch)) for _ in range(rows * (cols or 1))]
        items[rng.randrange(len(items))] = sub(batch)
        return (op, rows, cols, items)
    return (op, sub(s))


def _apply(op, args):
    if op == "+":
        return args[0] + args[1]
    if op == "-":
        return args[0] - args[1]
    if op == "*":
        return args[0] * args[1]
    if op == "/":
        return args[0] / (1.5 + args[1] * args[1])
    if op == "@":
        return args[0] @ args[1]
    if op == "stack":
        return ad.stack(list(args))
    if op == "exp":
        return ad.exp(0.5 * args[0])
    if op == "sqrt":
        return ad.sqrt(1.5 + args[0] * args[0])
    return getattr(ad, op)(args[0])


def _evaluate(node, leaf, check=None):
    """The value of an expression tree, with ``leaf`` giving each leaf's
    value; ``check`` sees the value of every node."""
    op = node[0]
    if op == "leaf":
        out = leaf(node[1])
    elif op == "array":
        _, rows, cols, items = node
        vals = [_evaluate(x, leaf, check) for x in items]
        out = ad.array([vals[i * cols:(i + 1) * cols] for i in range(rows)]
                       if cols else vals)
    else:
        out = _apply(op, [_evaluate(x, leaf, check) for x in node[1:]])
    if check is not None:
        check(out)
    return out


def _dual_leaf(parts):
    """The leaf as nested duals: level 1 for the outer directions t, level
    2, with a level-1 tangent when D is present, for the inner ones u."""
    a, B, *inner = parts
    x = a if B is None else Dual(1, a, B)
    if not inner:
        return x
    C, D = inner
    return x if C is None else Dual(2, x, C if D is None else Dual(1, C, D))


def _float_leaf(parts, t, u):
    a, B, *inner = parts
    x = a
    if B is not None:
        x = x + np.tensordot(t, B, 1)
    if inner and inner[0] is not None:
        C, D = inner
        x = x + np.tensordot(u, C, 1)
        if D is not None:
            x = x + np.tensordot(t, np.tensordot(u, D, ([0], [1])), 1)
    return x


def _invariant(ks):
    """Every dual at level l has ``du.shape == (ks[l - 1],) + re.shape``,
    and so do the duals in its slots."""
    def check(x):
        if isinstance(x, Dual):
            assert ad.shape(x.du) == (ks[x.lvl - 1],) + x.shape
            check(x.re)
            check(x.du)
    return check


def _split(x, lvl, k, s):
    """(value, tangent) of x at level lvl, a zero tangent if x is constant
    there."""
    if isinstance(x, Dual) and x.lvl == lvl:
        return x.re, x.du
    return x, np.zeros((k,) + s)


def _floats(x, s):
    x = np.asarray(x, dtype=float)      # a leftover dual raises TypeError
    assert x.shape == s
    return x


def _close(got, want, tol):
    assert np.max(np.abs(got - want), initial=0.0) <= tol * (
        1.0 + np.max(np.abs(want), initial=0.0))


def _unit(n, i, h):
    e = np.zeros(n)
    e[i] = h
    return e


@pytest.mark.parametrize("ks", [(1,), (5,), (1, 5), (5, 1), (5, 5)],
                         ids=lambda ks: "k" + "x".join(map(str, ks)))
def test_random_expressions_match_central_differences(ks):
    rng = random.Random(51 + 7 * sum(ks) + len(ks))
    h1, h2 = 1e-6, 1e-4
    for _ in range(EXPRESSIONS):
        s = _shape(rng, rng.randint(0, 3))
        tree = _make(rng, s, 3, ks)
        R = _evaluate(tree, _dual_leaf, _invariant(ks))
        t0, u0 = np.zeros(ks[0]), np.zeros(ks[-1])

        def F(t, u):
            return np.asarray(_evaluate(
                tree, lambda parts: _float_leaf(parts, t, u)), dtype=float)

        if len(ks) == 1:
            V, Gt = _split(R, 1, ks[0], s)
        else:
            R0, R1 = _split(R, 2, ks[1], s)
            V, Gt = _split(R0, 1, ks[0], s)
            Gu, H = _split(R1, 1, ks[0], (ks[1],) + s)
            for m in range(ks[1]):
                e = _unit(ks[1], m, h1)
                _close(_floats(Gu, (ks[1],) + s)[m],
                       (F(t0, e) - F(t0, -e)) / (2 * h1), 1e-6)
                for j in range(ks[0]):
                    d, e = _unit(ks[0], j, h2), _unit(ks[1], m, h2)
                    fd = (F(d, e) - F(d, -e) - F(-d, e) + F(-d, -e)) / (
                        4 * h2 * h2)
                    _close(_floats(H, ks + s)[j, m], fd, 1e-5)
        _close(_floats(V, s), F(t0, u0), 1e-13)
        for j in range(ks[0]):
            d = _unit(ks[0], j, h1)
            _close(_floats(Gt, (ks[0],) + s)[j],
                   (F(d, u0) - F(-d, u0)) / (2 * h1), 1e-6)
