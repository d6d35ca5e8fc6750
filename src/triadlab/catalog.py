"""Built-in example triads and the strict chart symmetries they carry.

Every map is a ``StrictContactMap`` made by ``_strict_map`` from a move
q -> move(q, s), run by +amount forward and by -amount back.

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
from .contact import ContactTriad
from .engine import DiffEngine, matvec

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


@dataclass(frozen=True)
class StrictContactMap:
    """A chart diffeomorphism preserving the contact form, in closed form.

    ``differential(q)`` must stay evaluable when q carries derivative
    payloads, since pulled-back structures get differentiated through it,
    and keep q's batch axes, shape ``(*batch, dim, dim)``, even if constant.
    """

    label: str
    forward: Callable
    inverse: Callable
    differential: Callable

    def strictness_residual(self, triad: ContactTriad, pts) -> float:
        """Largest |phi^* lam - lam| over a point or a batch of points,
        evaluated in one call."""
        q = np.asarray(pts, dtype=float)
        dphi = np.asarray(self.differential(q), dtype=float)
        pulled = matvec(dphi.mT, triad.lam_any(self.forward(q)))
        return float(np.max(np.abs(pulled - triad.lam_any(q))))


def _strict_map(label: str, move: Callable, amount: float,
                differential: Callable) -> StrictContactMap:
    """The map q -> move(q, amount), with inverse q -> move(q, -amount)."""
    return StrictContactMap(label, lambda q: move(q, amount),
                            lambda q: move(q, -amount), differential)


def _constant(M: np.ndarray) -> Callable:
    """The differential q -> M, broadcast over q's batch axes."""
    return lambda q: np.broadcast_to(M, ad.shape(q)[:-1] + M.shape)


def _axis_shift(dim: int, axis: int, amount: float,
                name: str) -> StrictContactMap:
    """The translation ``<name>-shift+<amount>`` along coordinate ``axis``."""
    e = np.eye(dim)[axis]
    return _strict_map("%s-shift+%g" % (name, amount), lambda q, s: q + s * e,
                       amount, _constant(np.eye(dim)))


def _shear(dim: int, b: float) -> StrictContactMap:
    """(x1, y1, ..., z) -> (x1, y1 + b, ..., z + b x1), preserving lam."""
    M = np.eye(dim)
    M[dim - 1, 0] = b
    e1, ez = np.eye(dim)[1], np.eye(dim)[dim - 1]
    return _strict_map("shear+%g" % b,
                       lambda q, s: q + s * (e1 + q[..., :1] * ez), b,
                       _constant(M))


def _t3_reeb_flow(t: float) -> StrictContactMap:
    """Time-t flow of the Reeb field (cos z, sin z, 0), in closed form."""
    def flow(q, s):
        return q + s * ad.array([ad.cos(q[..., 2]), ad.sin(q[..., 2]), 0.0])

    def differential(q):
        s, c = ad.sin(q[..., 2]), ad.cos(q[..., 2])
        return ad.array([[1.0, 0.0, -t * s], [0.0, 1.0, t * c],
                         [0.0, 0.0, 1.0]])

    return _strict_map("reeb-flow+%g" % t, flow, t, differential)


# -- the catalog -----------------------------------------------------------


@dataclass(frozen=True)
class ExampleSpec:
    """One catalog entry: an id, a triad builder, and its strict symmetries.

    ``build(engine=None)`` makes the entry's triad on ``engine``, a fresh
    ``ad`` engine when none is given.  ``_r2n1`` makes the r2n+1 entries.
    """

    id: str
    dim: int
    description: str
    build: Callable
    maps: tuple = ()


def _r2n1(n: int, eps: float | None, description: str, shifts: tuple,
          shear: float | None = None) -> ExampleSpec:
    """The entry of ``standard_triad(n)``, or of ``perturbed_triad(n, eps)``
    if eps is given, with one ``_axis_shift(2n + 1, *s)`` per s of
    ``shifts`` (axis -1 is z), then the shear by ``shear``, if any."""
    d = 2 * n + 1
    if eps is None:
        kind, build = "standard", lambda engine=None: standard_triad(n, engine)
    else:
        kind, build = ("perturbed-J",
                       lambda engine=None: perturbed_triad(n, eps, engine))
    maps = tuple(_axis_shift(d, *s) for s in shifts)
    if shear is not None:
        maps += (_shear(d, shear),)
    return ExampleSpec("r%d-%s" % (d, kind), d, description, build, maps)


# Built once per process; the closures they hold keep no state.
_ENTRIES = (
    _r2n1(1, None, "lam = dz - y dx on a box in R^3, standard rotation J",
          ((0, 0.7, "x"), (-1, 0.3, "vertical")), shear=0.4),
    _r2n1(2, None, "lam = dz - y1 dx1 - y2 dx2 on a box in R^5, "
                   "blockwise rotation J",
          ((0, 0.5, "x1"), (-1, 0.3, "vertical")), shear=0.4),
    _r2n1(3, None, "standard contact form on a box in R^7, "
                   "blockwise rotation J", ((-1, 0.3, "vertical"),)),
    _r2n1(4, None, "standard contact form on a box in R^9, "
                   "blockwise rotation J", ((-1, 0.3, "vertical"),)),
    ExampleSpec(
        id="t3-tight", dim=3,
        description="lam = cos z dx + sin z dy on one periodic chart "
                    "[0, 2pi)^3 of the three-torus",
        build=t3_triad,
        maps=(_axis_shift(3, 0, 0.7, "x"), _axis_shift(3, 1, 0.5, "y"),
              _t3_reeb_flow(0.4))),
    _r2n1(1, 0.1, "lam = dz - y dx with a z-dependent sheared J "
                  "(eps = 0.1); the structure drifts along Reeb orbits",
          ((0, 0.7, "x"), (-1, 0.3, "vertical"))),
    _r2n1(2, 0.1, "standard contact form on R^5 with the z-dependent "
                  "sheared J on the first block (eps = 0.1)",
          ((0, 0.5, "x1"), (-1, 0.3, "vertical"))),
)


def catalog() -> dict:
    """All built-in examples, keyed by id, in stable order: a fresh dict on
    each call, of entries built once."""
    return {e.id: e for e in _ENTRIES}
