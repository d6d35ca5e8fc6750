"""Moving frames adapted to a contact triad and frame-level verifications.

A unitary frame is (X, E_1..E_n, JE_1..JE_n): the Reeb field followed by a
g-orthonormal basis of the contact distribution closed under J.  It is built
by deterministic Gram-Schmidt over the "complex" spans: chart coordinate
fields are projected through Pi, orthonormalised against the pairs already
accepted, and each accepted vector immediately contributes its J-image.
Degenerate candidates (projection collapses) are skipped.  The skip
decisions are made once, at the base point or at every point of a batch at
once, and frozen into the frame's chart columns, so the frame stays smooth
and differentiable there.  A candidate that collapses at only some points
of a batch raises :class:`FrameRankError`; the run then builds the frame on
each one-point batch, where each point may pick its own columns.

Every function here takes a float point or a batch of them, shape
``(*batch, dim)``, and a residual holds one value per point, as in
:mod:`triadlab.checks`.

A :class:`MovingFrame` keeps no cache of its own: its frame (at p, the
Gram-Schmidt run of :func:`build_unitary_frame`), coframe, Jacobian tables
and the one-forms of each connection on the triad live in the triad's
store under its chart columns (and the connection's ``table_tag``), so
each is built once per point.  Its Jacobian tables are the engine's
Jacobians of ``matrix_any`` and ``coframe_any`` at the point's ``fd``
stencil or ``ad`` seed; the coframe's formula -theta dE theta is a test
oracle.

Index convention throughout: 0 is the Reeb slot, 1..n the E_i, n+1..2n the
JE_i.  Connection coefficients are stored as gamma[i, k, j], the e_i
component of nabla_{e_k} e_j, so the one-forms are
Omega^i_j = sum_k gamma[i, k, j] theta^k.
"""

from __future__ import annotations

import numpy as np

from . import ad
from .checks import _torsion_table, _worst
from .contact import ContactTriad
from .connections import LocalConnection, TriadConnection
from .engine import dot, inner, inv, lead, matvec, max_residual, tail


class FrameRankError(RuntimeError):
    """Raised when Gram-Schmidt cannot extract n pairs from the seed order,
    or a candidate collapses at only some points of a batch."""


_SKIP_REL = 1e-10


def _gram_schmidt(triad: ContactTriad, q, indices, pairs=None):
    """Unitary Gram-Schmidt over the Pi-projected chart columns ``indices``
    at a chart point (or a float batch of them).

    Returns the frame (X, E_1..E_n, JE_1..JE_n) and the columns it used.
    With ``pairs`` given, q is a float point or batch and ``indices`` an
    order of candidates: a candidate whose projection collapses at every
    point is skipped, one that collapses at only some points raises
    :class:`FrameRankError`, and the run stops once ``pairs`` columns are
    accepted.
    """
    P = triad.pi_any(q)
    G = triad.metric_any(q)
    J = triad.j_any(q)

    def g(a, b):    # with an axis to scale vectors by
        return inner(a, matvec(G, b))[..., None]

    es, fs, used = [], [], []
    for idx in indices:
        if len(used) == pairs:
            break
        v = P[..., idx]
        scale = None if pairs is None else np.maximum(1.0, g(v, v))
        for e, f in zip(es, fs):
            v = v - g(v, e) * e - g(v, f) * f
        n2 = g(v, v)
        if scale is not None:
            skip = n2 <= _SKIP_REL * scale
            if skip.all():
                continue
            if skip.any():
                raise FrameRankError("chart column %d collapses at only some "
                                     "of %s" % (idx, q))
        e = v / ad.sqrt(n2)
        es.append(e)
        fs.append(matvec(J, e))
        used.append(idx)
    return ad.stack([triad.reeb_any(q)] + es + fs), used


class MovingFrame:
    """A unitary frame field over the Pi-projected chart columns ``indices``,
    its tables held in the triad's store."""

    def __init__(self, triad: ContactTriad, indices):
        self.triad = triad
        self.indices = tuple(indices)

    def matrix_any(self, q):
        """Frame matrix at q; columns are (X, E_1..E_n, JE_1..JE_n)."""
        return self.triad._cached(("frame", self.indices), q, lambda x:
                                  _gram_schmidt(self.triad, x, self.indices)[0])

    def coframe_any(self, q):
        """Dual coframe matrix; row i is theta^i (row 0 recovers lam)."""
        return self.triad._cached(("coframe", self.indices), q,
                                  lambda x: inv(self.matrix_any(x)))

    def jac_frame_at(self, p):
        return self.triad._cached(("jac_frame", self.indices), p, lambda x:
                                  self.triad.engine.jacobian(self.matrix_any, x))

    def jac_coframe_at(self, p):
        return self.triad._cached(("jac_coframe", self.indices), p, lambda x:
                                  self.triad.engine.jacobian(
                                      self.coframe_any, x))

    def gram_residual(self, p):
        E = self.matrix_any(p)
        G = self.triad.metric_any(p)
        return _worst(dot(E.mT, dot(G, E)) - np.eye(self.triad.dim), 2)


def build_unitary_frame(triad: ContactTriad, p, seed: int = 0) -> MovingFrame:
    """Deterministic unitary frame at p, a point or a batch whose points all
    pick the same columns, its matrix at p put in the store; same inputs
    give bitwise-same output."""
    d, n = triad.dim, triad.n
    p = np.asarray(p, dtype=float)
    E, indices = _gram_schmidt(triad, p, [(seed + t) % d for t in range(d)], n)
    if len(indices) < n:
        raise FrameRankError("seed order %d yields only %d of %d frame pairs "
                             "at %s" % (seed, len(indices), n, p))
    triad._cached(("frame", tuple(indices)), p, lambda x: E)
    return MovingFrame(triad, indices)


def connection_one_forms(conn: LocalConnection, frame: MovingFrame, p) -> np.ndarray:
    """Frame connection coefficients gamma[i, k, j] = <nabla_{e_k} e_j, e_i>,
    in the store under the frame's columns and the connection's table tag."""
    def impl(x):
        E = frame.matrix_any(x)
        flat = tail(frame.jac_frame_at(x), E).swapaxes(-1, -2)
        bil = dot(E.mT[..., None, :, :], tail(conn.gamma_tensor(x), E))
        return lead(dot(E.mT, frame.triad.metric_any(x)), flat + bil)
    p = np.asarray(p, dtype=float)
    tag = ("one-forms", frame.indices, conn.table_tag)
    return (frame.triad._cached(tag, p, impl) if conn.triad is frame.triad
            else impl(p))


def structure_gap(theta, jac_coframe, one_forms, torsion_forms):
    """Max residual of d theta^i + Omega^i_k ^ theta^k - torsion_forms^i on
    chart bivectors, from the coframe, its Jacobian table and the frame
    coefficients gamma[i, k, j]."""
    dtheta = jac_coframe.swapaxes(-1, -2) - jac_coframe
    # omega_b[i, j, a] = gamma[i, k, j] theta[k, a]; the wedge, likewise
    theta_k = theta[..., None, :, :]
    omega_b = dot(one_forms.mT, theta_k)
    wedge = dot(omega_b.mT, theta_k)
    wedge = wedge - wedge.swapaxes(-1, -2)
    return _worst(dtheta + wedge - torsion_forms, 3)


def structure_equation_residual(conn: LocalConnection, frame: MovingFrame, p):
    """Max residual of d theta^i + Omega^i_k ^ theta^k - T^i on chart
    bivectors, T^i the torsion two-forms theta^i(T) of ``conn``."""
    p = np.asarray(p, dtype=float)
    theta = frame.coframe_any(p)
    return structure_gap(theta, frame.jac_coframe_at(p),
                         connection_one_forms(conn, frame, p),
                         lead(theta, _torsion_table(conn.gamma_tensor(p))))


def gamma_from_axioms(triad: ContactTriad, c, frame: MovingFrame, p):
    """Re-derive every frame coefficient the axioms pin down in closed form.

    Returns (gamma, mask): coefficients with any index in the Reeb slot are
    derived (mask True there); the block internal to the contact distribution
    is not re-derived and stays masked out.  The mask, shape (dim, dim, dim),
    holds for every point of a batch.  A sequence of c values gives gamma
    with the sweep's axis in front of the batch's.
    """
    p = np.asarray(p, dtype=float)
    c = np.asarray(c, dtype=float)
    d, n = triad.dim, triad.n
    E = frame.matrix_any(p)
    GE = dot(triad.metric_any(p), E)
    X = triad.reeb_any(p)
    gamma = np.zeros(c.shape + E.shape[:-2] + (d, d, d))
    mask = np.zeros((d, d, d), dtype=bool)
    mask[:, :, 0] = mask[:, 0, :] = mask[0, :, :] = True

    # argument = Reeb slot: nabla_{e_k} X from Qt[k, a] = <(L_X J) e_a, e_k>;
    # the column of e_j reads J e_j, the column of J e_j reads -e_j
    Qt = dot(GE.mT, dot(triad.lie_reeb_j_at(p), E))[..., 1:, 1:]
    rot = np.concatenate([Qt[..., n:], -Qt[..., :n]], axis=-1)
    gamma[..., 1:, 1:, 0] = 0.5 * rot + 0.5 * c.reshape(
        c.shape + (1,) * E.ndim) * np.kron([[0.0, 1.0], [-1.0, 0.0]],
                                           np.eye(n))

    # direction = Reeb slot: nabla_X e_j via the bracket relations, with
    # column j of br the bracket [e_j, X]
    br = (dot(triad.jac_reeb_at(p), E)
          - np.einsum('...ajl,...l->...aj', frame.jac_frame_at(p), X))
    gamma[..., 1:, 0, 1:] = gamma[..., 1:, 1:, 0] - dot(GE.mT, br)[..., 1:, 1:]

    # lam-component on xi arguments, from metric pairing with X
    gamma[..., 0, 1:, 1:] = -gamma[..., 1:, 1:, 0].swapaxes(-1, -2)
    return gamma, mask


def cross_check_gamma(triad: ContactTriad, c, frame: MovingFrame, p):
    """Max |axiom-derived gamma - directly computed gamma| over derived
    entries; for a sequence of c values, one per c, on the stacked table."""
    direct = connection_one_forms(TriadConnection(triad, c), frame, p)
    ax, mask = gamma_from_axioms(triad, c, frame, p)
    return _worst(np.where(mask, ax - direct, 0.0), 3)


def skew_hermitian_check(conn: LocalConnection, frame: MovingFrame, p):
    """Residual of Omega_C + Omega_C^* = 0 for the complexified xi-block.

    Omega_C^i_j = (Omega^i_j + i Omega^{n+i}_j) restricted to xi arguments;
    the J-linearity identities that justify the complexification are part of
    the residual.  Metric connections that do not preserve J fail loudly.
    """
    n = frame.triad.n
    g = connection_one_forms(conn, frame, p)
    E, F, K = slice(1, n + 1), slice(n + 1, 2 * n + 1), slice(1, 2 * n + 1)
    gee, gff = g[..., E, K, E], g[..., F, K, F]
    gef, gfe = g[..., E, K, F], g[..., F, K, E]
    # [i, k, j] entries; swapping the first and last axes swaps i and j
    return max_residual(*(_worst(r, 3) for r in (
        gff - gee, gef + gfe, gee + gee.swapaxes(-3, -1),
        gfe - gfe.swapaxes(-3, -1))))
