"""Affine connections attached to a contact triad.

The Levi-Civita connection of the triad metric is realised through its
Christoffel table.  The canonical family is then built compositionally,

    nabla^c  =  nabla^LC  +  B1  +  B2(c),

with the two correction tensors given by their closed forms:

    B1(Z1, Z2)   = -1/2 J ((nabla^LC_{Pi Z1} J) Pi Z2)
    B2(c)(Z1,Z2) = (1+c)/2 (-g(Z2,X) J Z1 - g(Z1,X) J Z2 + g(J Z1, Z2) X)

where X is the Reeb field.  The table Gamma = Christoffel + B1 + B2(c)
depends only on the triad, c and the point, so it lives in the triad's
per-point store under ("gamma", c), and ``gamma_apply`` reads it.  c
enters only through the weight (1+c)/2 of B2, so the table is assembled as
(Christoffel + B1) + weight * B2(unit weight) from two c-independent
tables, each built once per point with stacked matmuls over the store's
tables and held there under "gamma-base" and "b2-unit".  :func:`b1_table`
builds B1, here and for the flipped-B1 control.  A connection over a sweep
of c values holds one table stacked over the sweep, shape ``(C, *batch,
d, d, d)``, under ("gamma", (c_1, .., c_C)); each slice has the bits of
the one-c table, and every tensor or covariant derivative read from it
carries the sweep's axis in front of the batch's.  nabla^LC J, the
Levi-Civita case of ``nabla_j``, is one of the store's tables
(``ContactTriad.nabla_j_at``); B1 and ``_lc_nabla_j`` read it.  The
pull-back phi^* nabla through a strict contact map is one more table, in
the pulled triad's store (:class:`PullbackConnection`), named by the map's
label and the base connection's ``table_tag``.
``tensor_B1`` / ``tensor_B2`` evaluate the corrections on single vectors.
``field_jet`` differentiates a field of columns and its J-image in one
Jacobian pass on the point's identity seed; ``j_brackets`` contracts each
column's Jacobian with its partner's value.  ``nijenhuis`` takes N_J so
from the brackets of fields, apart from the store's table
``ContactTriad.nijenhuis_at``.

``nabla_j``, ``nabla_metric`` and ``nabla_lam`` are the covariant
derivatives of J, g and lam as whole tables, each one formula over a Gamma
table and the triad's cached Jacobians; the sampled-field identities of the
checks are exact contractions of them.  ``gamma_apply(p, u, v)`` is the
bilinear part (the value on fields with vanishing coordinate Jacobian at
p), which tensorial quantities such as torsion contract, and
``conn.apply_vec(u, Yf, p)`` the covariant derivative of a field Yf along
u, its flat part one :meth:`~triadlab.engine.DiffEngine.deriv` call.
Tables, tensors and covariant derivatives take a float point or a batch of
them, with vectors shared by the batch or one per point; each entry keeps
the bits of its single-point evaluation.  A stack of vectors, such as the
columns of a drawn field, carries its stack axis in front, ``(m, *batch,
d)``: ``torsion_tensor``, ``tensor_P`` and ``_lc_nabla_j`` read it by
broadcasting, and the brackets and the Nijenhuis tensor come stacked so.
"""

from __future__ import annotations

import numpy as np

from .ad import stack
from .contact import ContactTriad
from .engine import (colmul, columns, dot, is_float_point, lead, matvec, solve,
                     tail)


class LocalConnection:
    """Connection given by a bilinear pointwise part plus the flat derivative.

    A subclass builds its table with ``gamma_table`` and names it by
    ``table_tag``, the key it is held under in the triad's per-point store.
    """

    def __init__(self, triad: ContactTriad):
        self.triad = triad
        self.engine = triad.engine

    def apply_vec(self, u, Yf, p):
        """nabla_u Y at p: the flat derivative of Yf along u plus gamma(u, Y).
        No check calls it; a tracer seam (triadbench's LAYERS names it)."""
        return self.engine.deriv(Yf, p, u) + self.gamma_apply(p, u, Yf(p))

    def gamma_tensor(self, p):
        """Full bilinear table gamma[k, i, j] = gamma(e_i, e_j)^k at a float point."""
        return self.triad._cached(self.table_tag, p, self.gamma_table)


class LeviCivitaConnection(LocalConnection):
    table_tag = "christoffel"

    def gamma_apply(self, p, u, v):
        return _bilinear(self.triad.christoffel_at(p), u, v)

    def gamma_tensor(self, p):
        return self.triad.christoffel_at(p)


def _lc_nabla_j(triad: ContactTriad, u, p):
    """(nabla^LC_u J) as a matrix at a float point, from the cached table."""
    return np.einsum('...abl,...l->...ab', triad.nabla_j_at(p), u)


def tensor_P(triad: ContactTriad, u, w, p):
    """The obstruction tensor 4P(X,Y) = (n_JY J)X + J((n_Y J)X) + 2J((n_X J)Y)."""
    J = triad.j_any(p)
    n_jw, n_w, n_u = (_lc_nabla_j(triad, v, p) for v in (matvec(J, w), w, u))
    return 0.25 * (matvec(n_jw, u) + matvec(J, matvec(n_w, u))
                   + 2.0 * matvec(J, matvec(n_u, w)))


def tensor_B1(triad: ContactTriad, z1, z2, p):
    """First correction tensor -1/2 J((nabla^LC_{Pi z1} J) Pi z2)."""
    P, J = triad.pi_any(p), triad.j_any(p)
    nj = _lc_nabla_j(triad, np.dot(P, z1), p)
    return -0.5 * np.dot(J, np.dot(nj, np.dot(P, z2)))


def tensor_B2(triad: ContactTriad, c: float, z1, z2, p):
    """Second correction tensor, with the (1+c)/2 weight of the family."""
    G, X, J = triad.metric_any(p), triad.reeb_any(p), triad.j_any(p)
    gx = np.dot(G, X)
    return 0.5 * (1.0 + c) * (-np.dot(z2, gx) * np.dot(J, z1)
                              - np.dot(z1, gx) * np.dot(J, z2)
                              + np.dot(np.dot(J, z1), np.dot(G, z2)) * X)


def _bilinear(G, u, v):
    """G[k, i, j] u^i v^j for a Gamma table G."""
    return matvec(matvec(G, v[..., None, :]), u)


def b1_table(triad: ContactTriad, p):
    """B1[k, i, j] = -1/2 J[k, a] nj[a, b, l] P[l, i] P[b, j], the first
    correction, from the triad's nabla^LC J table."""
    J, P = triad.j_any(p), triad.pi_any(p)
    njp = tail(triad.nabla_j_at(p), P).swapaxes(-1, -2)
    return -0.5 * lead(J, tail(njp, P))


class TriadConnection(LocalConnection):
    """Member of the canonical family, assembled as LC + B1 + B2(c); given a
    sequence of c values, the members over that sweep, one per leading entry
    of its tables."""

    def __init__(self, triad: ContactTriad, c):
        super().__init__(triad)
        self.c = np.asarray(c, dtype=float)
        self.table_tag = ("gamma", self.c.tolist() if self.c.ndim == 0
                          else tuple(self.c.tolist()))

    def gamma_apply(self, p, u, v):
        return _bilinear(self.gamma_tensor(p), u, v)

    def gamma_table(self, p):
        """Christoffel + B1 + B2(c) as one table [k, i, j], stacked over the
        sweep's axis for a sequence of c values; Christoffel + B1, the part
        that c leaves alone, is held once per point."""
        t = self.triad
        base = t._cached("gamma-base", p,
                         lambda x: t.christoffel_at(x) + b1_table(t, x))
        b2 = t._cached("b2-unit", p, self._b2_unit_table)
        w = 0.5 * (1.0 + self.c)
        return base + w.reshape(w.shape + (1,) * b2.ndim) * b2

    def _b2_unit_table(self, p):
        """B2 at the weight (1+c)/2 = 1."""
        t = self.triad
        J, X, G = t.j_any(p), t.reeb_any(p), t.metric_any(p)
        gx = matvec(G, X)
        jg = dot(J.mT, G)
        return (-J[..., None] * gx[..., None, None, :]
                - gx[..., None, :, None] * J[..., None, :]
                + X[..., None, None] * jg[..., None, :, :])


triad_connection = TriadConnection


# -- tensors built from a connection --------------------------------------


def torsion_tensor(conn: LocalConnection, p, u, v):
    """Torsion contracted on raw vectors, using constant-coefficient extensions.

    T is a tensor, so the value is extension independent (asserted in tests);
    with constant extensions the bracket and flat-derivative terms vanish and
    only the bilinear part survives.
    """
    return conn.gamma_apply(p, u, v) - conn.gamma_apply(p, v, u)


def field_jet(triad: ContactTriad, F, p):
    """((f, jf), (df, djf)): the k columns of a field F, ``(*batch, d, k)``,
    and of its J-image at p, and their Jacobians, stacked over the columns
    in front.  F runs once, beside its J-image, in one Jacobian pass."""
    def with_j(q):
        f = F(q)
        return stack([f, colmul(triad.j_any(q), f)])
    v, dv = with_j(p), triad.engine.jacobian(with_j, p)
    return ((columns(v[..., 0]), columns(v[..., 1])),
            (np.moveaxis(dv[..., 0, :], -2, 0),
             np.moveaxis(dv[..., 1, :], -2, 0)))


def j_brackets(jet, ys: slice, zs: slice):
    """[JY, JZ], [Y, Z], [Y, JZ] and [JY, Z] for the pairs (Y_i, Z_i) of the
    columns ys and zs of a :func:`field_jet`, stacked over i in front; each
    column's Jacobian meets its partner's value, as in ``deriv``."""
    (f, jf), (df, djf) = jet
    y, dy, z, dz = f[ys], df[ys], f[zs], df[zs]
    jy, djy, jz, djz = jf[ys], djf[ys], jf[zs], djf[zs]
    return (_bracket(jy, djy, jz, djz), _bracket(y, dy, z, dz),
            _bracket(y, dy, jz, djz), _bracket(jy, djy, z, dz))


def _bracket(a, da, b, db):
    """[A, B] = DB(A) - DA(B) from the fields' stacked values and
    Jacobians."""
    return (np.einsum('...l,...l->...', db, a[..., None, :])
            - np.einsum('...l,...l->...', da, b[..., None, :]))


def nijenhuis(triad: ContactTriad, F, p):
    """N(Y, Z) = [JY, JZ] - [Y, Z] - J[Y, JZ] - J[JY, Z] (no factor-2
    convention) from the brackets of the fields themselves, for the pairs
    (Y_i, Z_i) = (F_i, F_{m+i}) of the columns of a field F of 2m columns,
    stacked over i in front."""
    jet = field_jet(triad, F, p)
    m = len(jet[0][0]) // 2
    t1, t2, b3, b4 = j_brackets(jet, slice(m), slice(m, None))
    J = triad.j_any(p)
    return t1 - t2 - matvec(J, b3) - matvec(J, b4)


def nabla_j(triad: ContactTriad, gamma, p):
    """nj[a, b, l] = (nabla_{e_l} J)[a, b] = d_l J[a, b] + [Gamma_l, J][a, b]
    for the connection whose table is ``gamma``."""
    J = triad.j_any(p)
    return (triad.jac_j_at(p) + tail(gamma, J).swapaxes(-1, -2)
            - lead(J, gamma).swapaxes(-1, -2))


def nabla_metric(triad: ContactTriad, gamma, p):
    """ng[a, b, l] = (nabla_{e_l} g)(e_a, e_b) = d_l g_ab
    - g(Gamma(e_l, e_a), e_b) - g(e_a, Gamma(e_l, e_b))."""
    s = lead(triad.metric_any(p), gamma).swapaxes(-1, -2)
    return triad.dmetric_at(p) - s.swapaxes(-2, -3) - s


def nabla_lam(triad: ContactTriad, gamma, p):
    """nl[a, l] = (nabla_{e_l} lam)(e_a) = d_l lam_a - lam(Gamma(e_l, e_a))."""
    return triad.jac_lam_at(p) - np.einsum('...m,...mla->...al',
                                           triad.lam_any(p), gamma)


def _k_matrix(conn: LocalConnection, p, u):
    """K[:, j] = gamma(u, e_j); the column table of the bilinear part."""
    if is_float_point(p):
        return np.einsum('...kij,...i->...kj', conn.gamma_tensor(p), u)
    raise ValueError("connection tables require a float chart point")


# a tracer seam (triadbench's LAYERS names it); no check calls it
def covariant_derivative_endo(conn: LocalConnection, A, Xf, p):
    """(nabla_X A) as a matrix: nabla_X (A Y) - A nabla_X Y for frozen Y."""
    u = Xf(p)
    dA_u = conn.engine.deriv(A, p, u)
    K = _k_matrix(conn, p, u)
    Ap = A(p)
    return dA_u + dot(K, Ap) - dot(Ap, K)


# a tracer seam (triadbench's LAYERS names it); no check calls it
def covariant_derivative_form(conn: LocalConnection, alpha, Xf, p):
    """(nabla_X alpha) as a covector: X[alpha(Y)] - alpha(nabla_X Y)."""
    u = Xf(p)
    da_u = conn.engine.deriv(alpha, p, u)
    K = _k_matrix(conn, p, u)
    return da_u - matvec(K.mT, alpha(p))


def covariant_derivative_two_form(conn: LocalConnection, beta, Xf, p):
    """(nabla_X beta) as an antisymmetric matrix, beta given as a matrix closure."""
    u = Xf(p)
    dB_u = conn.engine.deriv(beta, p, u)
    K = _k_matrix(conn, p, u)
    B = beta(p)
    return dB_u - dot(K.mT, B) - dot(B, K)


class PullbackConnection(LocalConnection):
    """phi^* nabla on the pulled triad (lam, phi^* J).  With M = dphi(p) its
    table is (M^-1)^k_a (Gamma^a_bc(phi(p)) M^b_i M^c_j + d_i M^a_j), d M
    the engine's Jacobian of the map's differential, in one stacked solve.
    """

    gamma_apply = TriadConnection.gamma_apply
    # a tracer seam (triadbench's LAYERS names it); ROADMAP item 4 removes it
    apply_vec = LocalConnection.apply_vec

    def __init__(self, base: LocalConnection, cmap, pulled: ContactTriad):
        super().__init__(pulled)
        self.base, self.cmap = base, cmap
        self.table_tag = ("pullback", cmap.label, base.table_tag)

    def gamma_table(self, p):
        cm = self.cmap
        M = cm.differential(p)
        G = self.base.gamma_tensor(cm.forward(p))
        R = (dot(M.mT[..., None, :, :], dot(G, M[..., None, :, :]))
             + self.engine.jacobian(cm.differential, p).swapaxes(-1, -2))
        return solve(M, R.reshape(R.shape[:-2] + (-1,))).reshape(R.shape)
