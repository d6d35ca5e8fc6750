"""Built-in example triads and the strict chart symmetries they carry.

All closures are written to stay evaluable when the chart point is an
array dual or a float batch of points, shape ``(..., dim)``: they index
coordinates as ``q[..., i]`` and use whole-array arithmetic, ``ad``'s
elementary functions and ``ad.array`` for arrays assembled from scalar
entries, which is what lets every downstream quantity be differentiated
without special cases, and an ``fd`` stencil be evaluated in one call.
Frames hand J to the triad through its action matrix on a stated
distribution frame, so compatibility holds by construction (trace-free
action, square -identity, explicit positivity) rather than by numerical
accident.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import ad
from .checks import StrictContactMap
from .contact import ContactTriad
from .engine import DiffEngine

BOX = 1.5


# -- contact forms ---------------------------------------------------------


def _r2n1_lam(n: int) -> Callable:
    """lam = dz - sum_i y_i dx_i on coordinates (x1, y1, ..., xn, yn, z)."""
    # take puts y_i in both slots of pair i; sign keeps -y_i in the x_i slot.
    d = 2 * n + 1
    take = np.array([2 * (i // 2) + 1 for i in range(2 * n)] + [d - 1])
    sign = np.array([-1.0, 0.0] * n + [0.0])
    dz = np.eye(d)[d - 1]

    def lam(q):
        return dz + sign * q.take(take, axis=-1)
    return lam


def _t3_lam(q):
    """lam = cos z dx + sin z dy, one periodic chart of the three-torus."""
    return ad.array([ad.cos(q[..., 2]), ad.sin(q[..., 2]), 0.0])


# -- distribution frames and J actions -------------------------------------


def _first_columns(dim: int, count: int) -> Callable:
    F = np.eye(dim)[:, :count]
    return lambda q: F


def _rotation_blocks(n: int) -> np.ndarray:
    """Standard action J f_{2k} = f_{2k+1}, J f_{2k+1} = -f_{2k}."""
    C = np.zeros((2 * n, 2 * n))
    for k in range(n):
        C[2 * k + 1, 2 * k] = 1.0
        C[2 * k, 2 * k + 1] = -1.0
    return C


def _perturbed_frame_j(n: int, eps: float, z_index: int) -> Callable:
    """First block sheared by a z-dependent SL(2) action, rest standard.

    With a = eps sin z, b = sqrt(1 + a^2) exp(eps cos z), ct = -(1 + a^2)/b
    the block [[a, ct], [b, -a]] squares to -(a^2 + 1 - a^2) id = -id, and
    b > 0, -ct > 0 keep the pairing with the two-form positive.  The
    z-dependence makes the structure genuinely non-invariant along the Reeb
    direction, which is what the perturbed examples exist to exercise.
    """
    def frame_j(q):
        z = q[..., z_index]
        a = eps * ad.sin(z)
        b = ad.sqrt(1.0 + a * a) * ad.exp(eps * ad.cos(z))
        ct = -(1.0 + a * a) / b
        rows = _rotation_blocks(n).tolist()
        rows[0][0], rows[0][1] = a, ct
        rows[1][0], rows[1][1] = b, -a
        return ad.array(rows)
    return frame_j


def _t3_xi_frame(q):
    s, c = ad.sin(q[..., 2]), ad.cos(q[..., 2])
    return ad.array([[0.0, -s], [0.0, c], [1.0, 0.0]])


# -- triad builders --------------------------------------------------------


def _r2n1_triad(n: int, frame_j: Callable, name: str,
                engine: DiffEngine | None) -> ContactTriad:
    """The triad of ``_r2n1_lam(n)`` on a box, with J acting on the first
    2n coordinate columns by ``frame_j``."""
    d = 2 * n + 1
    dom = (-BOX * np.ones(d), BOX * np.ones(d))
    return ContactTriad.from_frame_action(
        d, _r2n1_lam(n), _first_columns(d, 2 * n), frame_j, dom,
        engine=engine, label="r%d-%s" % (d, name))


def standard_triad(n: int, engine: DiffEngine | None = None) -> ContactTriad:
    return _r2n1_triad(n, lambda q: _rotation_blocks(n), "standard", engine)


def perturbed_triad(n: int, eps: float,
                    engine: DiffEngine | None = None) -> ContactTriad:
    return _r2n1_triad(n, _perturbed_frame_j(n, eps, 2 * n),
                       "perturbed-J(%g)" % eps, engine)


def t3_triad(engine: DiffEngine | None = None) -> ContactTriad:
    dom = (np.zeros(3), 2.0 * np.pi * np.ones(3))
    return ContactTriad.from_frame_action(
        3, _t3_lam, _t3_xi_frame, lambda q: _rotation_blocks(1), dom,
        engine=engine, label="t3-tight")


# -- strict chart symmetries ----------------------------------------------


def _constant_map(label: str, M: np.ndarray, move: Callable,
                  amount: float) -> StrictContactMap:
    """The map q -> move(q, amount), with inverse q -> move(q, -amount),
    whose differential is the constant matrix M."""
    return StrictContactMap(label=label,
                            forward=lambda q: move(q, amount),
                            inverse=lambda q: move(q, -amount),
                            differential=lambda q: np.broadcast_to(
                                M, ad.shape(q)[:-1] + M.shape))


def _axis_shift(dim: int, axis: int, amount: float,
                label: str) -> StrictContactMap:
    """The translation by ``amount`` along chart coordinate ``axis``."""
    e = np.eye(dim)[axis]
    return _constant_map(label, np.eye(dim), lambda q, s: q + s * e, amount)


def _shear(dim: int, b: float) -> StrictContactMap:
    """(x1, y1, ..., z) -> (x1, y1 + b, ..., z + b x1), preserving lam."""
    M = np.eye(dim)
    M[dim - 1, 0] = b
    e1, ez = np.eye(dim)[1], np.eye(dim)[dim - 1]
    return _constant_map("shear+%g" % b, M,
                         lambda q, s: q + s * (e1 + q[..., :1] * ez), b)


def _t3_reeb_flow(t: float) -> StrictContactMap:
    """Time-t flow of the Reeb field (cos z, sin z, 0), in closed form."""
    def flow(q, s):
        return q + s * ad.array([ad.cos(q[..., 2]), ad.sin(q[..., 2]), 0.0])

    def differential(q):
        s, c = ad.sin(q[..., 2]), ad.cos(q[..., 2])
        return ad.array([[1.0, 0.0, -t * s], [0.0, 1.0, t * c],
                         [0.0, 0.0, 1.0]])

    return StrictContactMap(label="reeb-flow+%g" % t,
                            forward=lambda q: flow(q, t),
                            inverse=lambda q: flow(q, -t),
                            differential=differential)


# -- the catalog -----------------------------------------------------------


@dataclass(frozen=True)
class ExampleSpec:
    """One catalog entry: an id, a triad builder, and its strict symmetries.

    ``build(engine=None)`` makes the entry's triad on ``engine``, a fresh
    ``ad`` engine when none is given.
    """

    id: str
    dim: int
    description: str
    build: Callable
    maps: tuple = ()


# Built once per process; the closures they hold keep no state.
_ENTRIES = (
    ExampleSpec(
        id="r3-standard", dim=3,
        description="lam = dz - y dx on a box in R^3, standard rotation J",
        build=lambda engine=None: standard_triad(1, engine),
        maps=(_axis_shift(3, 0, 0.7, "x-shift+0.7"),
              _axis_shift(3, 2, 0.3, "vertical-shift+0.3"),
              _shear(3, 0.4))),
    ExampleSpec(
        id="r5-standard", dim=5,
        description="lam = dz - y1 dx1 - y2 dx2 on a box in R^5, "
                    "blockwise rotation J",
        build=lambda engine=None: standard_triad(2, engine),
        maps=(_axis_shift(5, 0, 0.5, "x1-shift+0.5"),
              _axis_shift(5, 4, 0.3, "vertical-shift+0.3"),
              _shear(5, 0.4))),
    ExampleSpec(
        id="r7-standard", dim=7,
        description="standard contact form on a box in R^7, "
                    "blockwise rotation J",
        build=lambda engine=None: standard_triad(3, engine),
        maps=(_axis_shift(7, 6, 0.3, "vertical-shift+0.3"),)),
    ExampleSpec(
        id="r9-standard", dim=9,
        description="standard contact form on a box in R^9, "
                    "blockwise rotation J",
        build=lambda engine=None: standard_triad(4, engine),
        maps=(_axis_shift(9, 8, 0.3, "vertical-shift+0.3"),)),
    ExampleSpec(
        id="t3-tight", dim=3,
        description="lam = cos z dx + sin z dy on one periodic chart "
                    "[0, 2pi)^3 of the three-torus",
        build=t3_triad,
        maps=(_axis_shift(3, 0, 0.7, "x-shift+0.7"),
              _axis_shift(3, 1, 0.5, "y-shift+0.5"),
              _t3_reeb_flow(0.4))),
    ExampleSpec(
        id="r3-perturbed-J", dim=3,
        description="lam = dz - y dx with a z-dependent sheared J "
                    "(eps = 0.1); the structure drifts along Reeb orbits",
        build=lambda engine=None: perturbed_triad(1, 0.1, engine),
        maps=(_axis_shift(3, 0, 0.7, "x-shift+0.7"),
              _axis_shift(3, 2, 0.3, "vertical-shift+0.3"))),
    ExampleSpec(
        id="r5-perturbed-J", dim=5,
        description="standard contact form on R^5 with the z-dependent "
                    "sheared J on the first block (eps = 0.1)",
        build=lambda engine=None: perturbed_triad(2, 0.1, engine),
        maps=(_axis_shift(5, 0, 0.5, "x1-shift+0.5"),
              _axis_shift(5, 4, 0.3, "vertical-shift+0.3"))),
)


def catalog() -> dict:
    """All built-in examples, keyed by id, in stable order: a fresh dict on
    each call, of entries built once."""
    return {e.id: e for e in _ENTRIES}
