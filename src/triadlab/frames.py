"""Moving frames adapted to a contact triad and frame-level verifications.

A unitary frame is (X, E_1..E_n, JE_1..JE_n): the Reeb field followed by a
g-orthonormal basis of the contact distribution closed under J.  It is built
by deterministic Gram-Schmidt over the "complex" spans: chart coordinate
fields are projected through Pi, orthonormalised against the pairs already
accepted, and each accepted vector immediately contributes its J-image.
Degenerate candidates (projection collapses) are skipped; the skip decisions
are made once at the base point and frozen into the frame closure so the
frame stays smooth and differentiable near that point.

A :class:`MovingFrame` keeps no cache of its own: its frame, coframe and
Jacobian tables live in the triad's per-point store under tags keyed by its
chart columns, so frames over the same columns share them, and an ``fd``
stencil's frame joins the store entry the pipelines already hold there.

Index convention throughout: 0 is the Reeb slot, 1..n the E_i, n+1..2n the
JE_i.  Connection coefficients are stored as gamma[i, k, j], the e_i
component of nabla_{e_k} e_j, so the one-forms are
Omega^i_j = sum_k gamma[i, k, j] theta^k.
"""

from __future__ import annotations

import numpy as np

from . import ad
from .contact import ContactTriad
from .connections import LocalConnection, triad_connection
from .engine import Section, inner, inv, matvec, max_residual


class FrameRankError(RuntimeError):
    """Raised when Gram-Schmidt cannot extract n pairs from the seed order."""


_SKIP_REL = 1e-10


def _per_point(s):
    """A scalar, or a batch of scalars given an axis to scale vectors by."""
    return s if ad.ndim(s) == 0 else s[..., None]


def _gram_schmidt(triad: ContactTriad, q, indices, pairs=None):
    """Unitary Gram-Schmidt over the Pi-projected chart columns ``indices``
    at a chart point (or a float batch of them).

    Returns the frame (X, E_1..E_n, JE_1..JE_n) and the columns it used.
    With ``pairs`` given, q is one float point and ``indices`` an order of
    candidates: a candidate whose projection collapses is skipped, and the
    run stops once ``pairs`` columns are accepted.
    """
    P = triad.pi_any(q)
    G = triad.metric_any(q)
    J = triad.j_any(q)

    def g(a, b):
        return _per_point(inner(a, matvec(G, b)))

    es, fs, used = [], [], []
    for idx in indices:
        if len(used) == pairs:
            break
        v = P[..., idx]
        scale = None if pairs is None else max(1.0, float(g(v, v)))
        for e, f in zip(es, fs):
            v = v - g(v, e) * e - g(v, f) * f
        n2 = g(v, v)
        if scale is not None and n2 <= _SKIP_REL * scale:
            continue
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

    def coframe_section(self) -> Section:
        """The coframe field; its jet is (theta, -theta dE theta) at a float
        point, the derivative of the inverse read from the frame Jacobian."""
        def jet(p):
            theta = self.coframe_any(p)
            return theta, -np.einsum('ia,ajl,jb->ibl', theta,
                                     self.jac_frame_at(p), theta)
        return Section(self.coframe_any, jet)

    def jac_coframe_at(self, p):
        return self.triad._cached(("jac_coframe", self.indices), p, lambda x:
                                  self.triad.engine.jacobian(
                                      self.coframe_section(), x))

    def gram_residual(self, p) -> float:
        E = self.matrix_any(p)
        G = self.triad.metric_any(p)
        return float(np.max(np.abs(np.dot(E.T, np.dot(G, E)) - np.eye(self.triad.dim))))


def build_unitary_frame(triad: ContactTriad, p, seed: int = 0) -> MovingFrame:
    """Deterministic unitary frame at p; same inputs give bitwise-same output."""
    d, n = triad.dim, triad.n
    order = [(seed + t) % d for t in range(d)]
    indices = _gram_schmidt(triad, np.asarray(p, dtype=float), order, n)[1]
    if len(indices) < n:
        raise FrameRankError("seed order %d yields only %d of %d frame pairs "
                             "at %s" % (seed, len(indices), n, p))
    return MovingFrame(triad, indices)


def connection_one_forms(conn: LocalConnection, frame: MovingFrame, p) -> np.ndarray:
    """Frame connection coefficients gamma[i, k, j] = <nabla_{e_k} e_j, e_i>."""
    p = np.asarray(p, dtype=float)
    E = frame.matrix_any(p)
    jacE = frame.jac_frame_at(p)
    G = frame.triad.metric_any(p)
    gt = conn.gamma_tensor(p)
    flat = np.einsum('ajl,lk->akj', jacE, E)
    bil = np.einsum('aim,ik,mj->akj', gt, E, E)
    nab = flat + bil
    return np.einsum('ai,ab,bkj->ikj', E, G, nab)


def structure_equation_residual(conn: LocalConnection, frame: MovingFrame, p,
                                include_torsion: bool = True) -> float:
    """Max residual of d theta^i + Omega^i_k ^ theta^k - T^i on chart bivectors.

    Passing ``include_torsion=False`` deliberately drops the torsion forms;
    for the triad connection this must expose a residual of order |d lam|,
    which is the negative control for this identity.
    """
    p = np.asarray(p, dtype=float)
    theta = frame.coframe_any(p)
    jacT = frame.jac_coframe_at(p)
    dtheta = np.transpose(jacT, (0, 2, 1)) - jacT
    gamma = connection_one_forms(conn, frame, p)
    omega_b = np.einsum('ikj,ka->ija', gamma, theta)
    wedge = np.einsum('ika,kb->iab', omega_b, theta)
    wedge = wedge - np.transpose(wedge, (0, 2, 1))
    res = dtheta + wedge
    if include_torsion:
        gt = conn.gamma_tensor(p)
        tvec = gt - np.transpose(gt, (0, 2, 1))
        res = res - np.einsum('im,mab->iab', theta, tvec)
    return float(np.max(np.abs(res)))


def gamma_from_axioms(triad: ContactTriad, c: float, frame: MovingFrame, p):
    """Re-derive every frame coefficient the axioms pin down in closed form.

    Returns (gamma, mask): coefficients with any index in the Reeb slot are
    derived (mask True there); the block internal to the contact distribution
    is not re-derived and stays masked out.
    """
    p = np.asarray(p, dtype=float)
    d, n = triad.dim, triad.n
    E = frame.matrix_any(p)
    G = triad.metric_any(p)
    L = triad.lie_reeb_j_at(p)
    X = triad.reeb_any(p)
    jacX = triad.jac_reeb_at(p)
    jacE = frame.jac_frame_at(p)

    def ip(a, b):
        return float(np.dot(a, np.dot(G, b)))

    gamma = np.zeros((d, d, d))
    mask = np.zeros((d, d, d), dtype=bool)

    # argument = Reeb slot: nabla_{e_k} X
    mask[:, :, 0] = True
    for j in range(1, n + 1):
        Ej = E[:, j]
        JEj = E[:, n + j]
        L_JEj = np.dot(L, JEj)
        L_Ej = np.dot(L, Ej)
        for k in range(1, n + 1):
            Ek = E[:, k]
            JEk = E[:, n + k]
            delta = 1.0 if j == k else 0.0
            gamma[k, j, 0] = 0.5 * ip(L_JEj, Ek)
            gamma[n + k, j, 0] = -0.5 * c * delta + 0.5 * ip(L_JEj, JEk)
            gamma[k, n + j, 0] = 0.5 * c * delta - 0.5 * ip(L_Ej, Ek)
            gamma[n + k, n + j, 0] = -0.5 * ip(L_Ej, JEk)

    # direction = Reeb slot: nabla_X e_j via the bracket relations
    mask[:, 0, :] = True
    for j in range(1, d):
        ej = E[:, j]
        br = np.dot(jacX, ej) - np.dot(jacE[:, j, :], X)   # [e_j, X]
        for i in range(1, d):
            gamma[i, 0, j] = gamma[i, j, 0] - ip(br, E[:, i])

    # lam-component on xi arguments, from metric pairing with X
    mask[0, :, :] = True
    for k in range(1, d):
        for j in range(1, d):
            gamma[0, k, j] = -gamma[j, k, 0]

    return gamma, mask


def cross_check_gamma(triad: ContactTriad, c: float, frame: MovingFrame, p) -> float:
    """Max |axiom-derived gamma - directly computed gamma| over derived entries."""
    direct = connection_one_forms(triad_connection(triad, c), frame, p)
    ax, mask = gamma_from_axioms(triad, c, frame, p)
    return float(np.max(np.abs(ax - direct)[mask]))


def skew_hermitian_check(conn: LocalConnection, frame: MovingFrame, p) -> float:
    """Residual of Omega_C + Omega_C^* = 0 for the complexified xi-block.

    Omega_C^i_j = (Omega^i_j + i Omega^{n+i}_j) restricted to xi arguments;
    the J-linearity identities that justify the complexification are part of
    the residual.  Metric connections that do not preserve J fail loudly.
    """
    n = frame.triad.n
    g = connection_one_forms(conn, frame, p)
    E, F, K = slice(1, n + 1), slice(n + 1, 2 * n + 1), slice(1, 2 * n + 1)
    gee, gff, gef, gfe = g[E, K, E], g[F, K, F], g[E, K, F], g[F, K, E]
    # [i, k, j] entries; transposing (2, 1, 0) swaps i and j
    return max_residual(*(np.max(np.abs(r)) for r in (
        gff - gee, gef + gfe, gee + gee.transpose(2, 1, 0),
        gfe - gfe.transpose(2, 1, 0))))
