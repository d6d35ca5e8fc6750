"""Contact triads in explicit charts.

A triad bundles a contact form ``lam`` on a (2n+1)-chart with a compatible
almost complex structure ``J`` on the contact distribution xi = ker(lam).
From these it derives, at any chart point (float or dual-valued):

* the Reeb field, as the unique solution of the bordered linear system
  ``(d lam + lam lam^T) X = lam`` (equivalent to lam(X) = 1, X -| d lam = 0),
* the projection ``Pi = I - X lam^T`` onto xi along the Reeb direction,
* ``J`` extended to the whole tangent space by ``J X = 0`` (so J^2 = -Pi),
* the triad metric  g(u, v) = lam(u) lam(v) + d lam(Pi u, J Pi v),
* Christoffel symbols of g (float points only; they seed the connections).

The pipelines ``*_any`` and the float-point tables ``*_at`` also take a
batch of points, shape ``(..., dim)``, which is how an ``fd`` identity
stencil, an ``ad`` dual batch, or a run's sample points, are evaluated in
one call: one d lam pass, one stacked Reeb solve and one stacked J solve
serve the whole batch, each float entry with the bits of its single-point
evaluation.

Float-point evaluations live in one store per triad, kept as long as the
triad, that is, for one request.  An entry is a point or a batch, keyed by
its (shape, bytes), and holds its {tag: value} tables, the Gamma tables of
:mod:`triadlab.connections` among them.  A triad (lam, J') made by
:meth:`ContactTriad.with_j`, a pulled triad say, keeps the tables that
depend on lam and the engine only (lam, d lam, the Reeb field, Pi and their
Jacobians) in its parent's store, through the parent's ``_cached``.  The
engine's identity seed at a float point or batch (the dual whose tangent is
the array :meth:`~triadlab.engine.DiffEngine.jacobian` holds for that
shape) keeps its tables in the point's own entry, under (tag, level): lam,
d lam, the Reeb solve, Pi, J, g and a frame run once there for every
Jacobian table and every field differentiated at the point.  A translate of
the seed keeps the seed's tangent, so it is the seed at the moved points
and reads their tables.  Any other dual point is evaluated and not
memoised, so the store holds float points and seeds only.
:meth:`split_batch` moves a batch's tables, its stencil's and seed's too,
to each of its pieces.

The fields the checks differentiate are plain closures:
:func:`xi_section` turns a ``(*batch, d, m)`` matrix W of each point's
draws into the m sections q -> Pi(q) W, one closure for a point and a batch
alike, each column its own stacked matvec, so it has the bits of the
one-vector field.  Its Jacobian formula, (d Pi) w = -lam(w) dX - X (w^T d
lam), and its one-vector form live only in the test suite's oracles
(``tests/oracles.py``), as references.
"""

from __future__ import annotations

import math
import random
from numbers import Integral
from typing import Callable

import numpy as np

from .ad import Dual
from .engine import (DiffEngine, colmul, dot, inner, is_float_point, lead,
                     lie_endo, matvec, outer, solve, tail)

REEB_RESIDUAL_TOL = 1e-10


def seed_int(seed) -> int:
    """``seed`` as an int; ValueError unless it is an integer >= 0 other
    than a bool, the rule ``RunConfig.validate`` applies."""
    if not isinstance(seed, Integral) or isinstance(seed, bool) or seed < 0:
        raise ValueError("seed must be an integer >= 0, not %r" % (seed,))
    return int(seed)


class ContactTriad:
    """Chart data of a contact triad plus cached derived quantities."""

    def __init__(self, dim: int, lam: Callable, j_full: Callable | None,
                 domain: tuple, engine: DiffEngine | None = None,
                 label: str = ""):
        if dim < 3 or dim % 2 != 1:
            raise ValueError("triad dimension must be odd and >= 3")
        self.dim = dim
        self.n = (dim - 1) // 2
        self.lam = lam
        self._j_closure = j_full
        lo, hi = domain
        self.domain = (np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        self.engine = engine if engine is not None else DiffEngine()
        self.label = label
        self._eye = np.eye(dim)
        self._cache: dict = {}
        self._lam_owner = None    # the triad whose store holds lam's tables

    @classmethod
    def from_frame_action(cls, dim, lam, xi_frame, frame_j, domain,
                          engine=None, label=""):
        """Build a triad from J's action on a stated xi-frame.

        ``xi_frame(q)`` returns a (dim, 2n) matrix of frame columns (they are
        Pi-projected before use, so they only need to span a complement of
        the Reeb line), ``frame_j(q)`` the (2n, 2n) action matrix C with
        C^2 = -I; column a of C holds the frame coefficients of J f_a.
        """
        triad = cls(dim, lam, None, domain, engine=engine, label=label)
        triad._frame = (xi_frame, frame_j)
        return triad

    def _frame_j(self, q):
        """J from its action on the stated xi-frame; a method, so that no
        closure ties the triad into a reference cycle that outlives it."""
        xi_frame, frame_j = self._frame
        # J B = JB for the frame matrix B = [Pi F | X]; solve B^T J^T = JB^T.
        # B = (Pi F) S + X e_d^T and JB = (Pi F C) S, with S = [I | 0] the
        # (2n, dim) selection that pads a 2n-column block with a zero column.
        S, e_d = self._eye[:-1], self._eye[-1]
        PF = dot(self.pi_any(q), xi_frame(q))
        B = outer(self.reeb_any(q), e_d, dot(PF, S))
        JB = dot(dot(PF, frame_j(q)), S)
        Jt = solve(B.mT, JB.mT)
        return np.ascontiguousarray(Jt.mT) if is_float_point(q) else Jt.mT

    # -- caching ---------------------------------------------------------

    def _cached(self, tag, q, fn):
        """``fn(q)``, memoised under ``tag`` in the tables held for point q.

        ``_cache`` maps a float point's or batch's (shape, bytes) to its
        {tag: value} tables.  The engine's identity seed at a float point
        or batch is held there too, under (tag, level): a seed made in a
        running pass has a higher level, and a translate q + s of a seed
        keeps its tangent, so it is the seed at q + s.  At any other dual
        point ``fn(q)`` is evaluated, not held.
        """
        x = q
        if (isinstance(q, Dual) and is_float_point(q.re)
                and q.du is self.engine._eyes.get(q.shape)):
            x, tag = q.re, (tag, q.lvl)
        if not is_float_point(x):
            return fn(q)
        tables = self._cache.setdefault((x.shape, x.tobytes()), {})
        hit = tables.get(tag)
        if hit is None:
            hit = tables[tag] = fn(q)
        return hit

    def split_batch(self, U, count: int) -> None:
        """Move the tables held for the batch U, shape ``(N, dim)``, and in
        ``fd`` for its stencil, to the entries of U's ``count`` equal
        consecutive pieces, each cut along the batch axis and keyed as if
        built alone (the seed's tables too); an existing entry is kept."""
        n = len(U) // count
        held = [(U, 0)] + ([(self.engine.stencil(U), 2)]
                           if self.engine.mode == "fd" else [])
        for x, axis in held:
            tables = self._cache.pop((x.shape, x.tobytes()), {})
            for i in range(0, len(U), n):
                s = (slice(None),) * axis + (slice(i, i + n),)
                piece = np.ascontiguousarray(x[s])
                self._cache.setdefault((piece.shape, piece.tobytes()), {
                    tag: v[s] for tag, v in tables.items()})

    def _lam_cached(self, tag, q, fn):
        return (self._lam_owner or self)._cached(tag, q, fn)

    # -- pointwise pipelines (valid at float or dual points) -------------

    def lam_any(self, q):
        return self._lam_cached("lam", q, self.lam)

    def dlam_any(self, q):
        return self._lam_cached("dlam", q, lambda x: self.engine.exterior_derivative(self.lam, x))

    def _reeb_impl(self, q):
        lam = self.lam_any(q)
        A = self.dlam_any(q)
        M = outer(lam, lam, A)
        # numpy reads a 2-D right-hand side as a matrix, so a vector, or a
        # batch of them, goes in as a column
        X = solve(M, lam[..., None])[..., 0]
        if is_float_point(q):
            worst = np.maximum(np.abs(inner(lam, X) - 1.0),
                               np.max(np.abs(matvec(A, X)), axis=-1)).ravel()
            ok = worst <= REEB_RESIDUAL_TOL       # a NaN residual fails too
            if not ok.all():
                i = int(np.argmin(ok))
                raise ValueError(
                    "Reeb residual %.3e exceeds %.1e at %s; contact condition "
                    "violated?" % (worst[i], REEB_RESIDUAL_TOL,
                                   q.reshape(-1, self.dim)[i]))
        return X

    def reeb_any(self, q):
        return self._lam_cached("reeb", q, self._reeb_impl)

    def pi_any(self, q):
        def impl(x):
            return outer(-self.reeb_any(x), self.lam_any(x), self._eye)
        return self._lam_cached("pi", q, impl)

    def j_any(self, q):
        return self._cached("j", q, self._j_closure or self._frame_j)

    def metric_any(self, q):
        def impl(x):
            lam = self.lam_any(x)
            A = self.dlam_any(x)
            P = self.pi_any(x)
            J = self.j_any(x)
            return outer(lam, lam, dot(P.mT, dot(A, dot(J, P))))
        return self._cached("metric", q, impl)

    # -- float-point tables ----------------------------------------------

    def metric_inv_at(self, p):
        return self._cached("metric_inv", p, lambda x: np.linalg.inv(self.metric_any(x)))

    def jac_lam_at(self, p):
        return self._lam_cached("jac_lam", p, lambda x: self.engine.jacobian(self.lam_any, x))

    def jac_reeb_at(self, p):
        return self._lam_cached("jac_reeb", p, lambda x: self.engine.jacobian(self.reeb_any, x))

    def jac_j_at(self, p):
        return self._cached("jac_j", p, lambda x: self.engine.jacobian(self.j_any, x))

    def dmetric_at(self, p):
        return self._cached("dmetric", p, lambda x: self.engine.jacobian(self.metric_any, x))

    def christoffel_at(self, p):
        """Christoffel symbols of the triad metric, Gamma[k, i, j] = Gamma^k_ij."""
        def impl(x):
            dG = self.dmetric_at(x)            # dG[i,j,l] = d_l g_ij
            # s[l,i,j] = d_i g_jl + d_j g_il - d_l g_ij
            s = (np.moveaxis(dG, -3, -1) + dG.swapaxes(-3, -2)
                 - np.moveaxis(dG, -1, -3))
            return 0.5 * lead(self.metric_inv_at(x), s)
        return self._cached("christoffel", p, impl)

    def lie_reeb_j_at(self, p):
        """(L_X J) for X the Reeb field, from cached coordinate Jacobians."""
        def impl(x):
            return lie_endo(self.reeb_any(x), self.jac_reeb_at(x),
                            self.j_any(x), self.jac_j_at(x))
        return self._cached("lie_reeb_j", p, impl)

    def nabla_j_at(self, p):
        """nj[a, b, l] = (nabla^LC_{e_l} J)[a, b]: the Levi-Civita case of
        :func:`triadlab.connections.nabla_j`."""
        from .connections import nabla_j    # connections imports this module
        return self._cached("nabla_j", p,
                            lambda x: nabla_j(self, self.christoffel_at(x), x))

    def nijenhuis_at(self, p):
        """N[k, i, j] = N_J(e_i, e_j)^k, the Nijenhuis tensor
        [JY, JZ] - [Y, Z] - J[Y, JZ] - J[JY, Z] on the constant fields."""
        def impl(x):
            J, dJ = self.j_any(x), self.jac_j_at(x)
            t1 = tail(dJ, J).swapaxes(-1, -2)   # (d_{J e_i} J)[k, j]
            t2 = lead(J, dJ).swapaxes(-1, -2)   # (J d_i J)[k, j]
            return (t1 - t1.swapaxes(-1, -2)) - (t2 - t2.swapaxes(-1, -2))
        return self._cached("nijenhuis", p, impl)

    # -- geometric operations --------------------------------------------

    def scaled(self, a: float) -> "ContactTriad":
        """The triad (a * lam, J) on the same chart; J is unchanged on xi."""
        if not 0 < a < math.inf:
            raise ValueError("scale factor must be positive and finite")
        base_lam = self.lam
        return ContactTriad(self.dim, lambda q: a * base_lam(q),
                            self.j_any,
                            self.domain, engine=self.engine,
                            label=self.label + "*scaled(%g)" % a)

    def with_j(self, j_full: Callable, label: str) -> "ContactTriad":
        """The triad (lam, J') on the same chart and engine; it reads and
        writes lam's own tables in this triad's store (``_lam_owner``)."""
        triad = ContactTriad(self.dim, self.lam, j_full, self.domain,
                             engine=self.engine, label=label)
        triad._lam_owner = self._lam_owner or self
        return triad

    def sample_points(self, count: int, seed: int) -> np.ndarray:
        """``count`` points of the chart's box, ``(count, dim)``: lo +
        (hi - lo) u, u read row by row from ``random.Random(seed).random()``;
        ``seed`` must be an integer >= 0 (``seed_int``)."""
        lo, hi = self.domain
        rng = random.Random(seed_int(seed))
        u = [rng.random() for _ in range(count * self.dim)]
        return lo + (hi - lo) * np.reshape(u, (count, self.dim))


# -- sections ----------------------------------------------------------------


def xi_section(triad: ContactTriad, W):
    """The distribution sections q -> Pi(q) W, one per column of W: a (d, m)
    matrix shared by every point, or a ``(*batch, d, m)`` stack of each
    point's own draws."""
    W = np.asarray(W, dtype=float)
    return lambda q: colmul(triad.pi_any(q), W)

