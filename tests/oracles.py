"""Independent numerical oracles used by the test suite.

Everything here deliberately avoids the package's own derivative engine:
the Levi-Civita oracle uses only metric pairings and plain directional
derivatives, and the Lie-derivative oracle integrates the actual flow with
a fixed-step RK4 and differentiates the pullback in the flow time.  Their
job is to catch a bug that the engine would otherwise propagate into every
check simultaneously.  The field-closure Nijenhuis tensor takes each
bracket one direction at a time with ``deriv``.  The contact coefficient (a
wedge product of lam and d lam), the compatibility diagnostics and the J^2
residual are test-side diagnostics: they read a triad's float-point values
and test the defining equations on them.  The dual-scalar LU solve is the
engine's former linear algebra, kept as an oracle for the forward-mode
matrix rules that replaced it: it runs Gaussian elimination entry by entry
over scalar (0-d) ``Dual`` objects.  ``directional_derivative`` and
``roundtrip_residual`` are the test-only checked derivative and the
round-trip residual of a strict contact map.  ``apply`` and ``torsion``
evaluate a connection on two vector-field closures, the field-closure
reference for the package's tensor contractions, and ``lie_bracket`` is the
bracket of two closures taken one direction at a time with ``deriv``, the
reference for the package's stacked-direction brackets.
``pullback_apply`` is the pulled-back connection on fields, the push of the
field through the map and back, the reference for the pulled-back Gamma
table.  The sampled field forms of the axioms, ``cr-form`` and the
semi-connection records (``xi_vector``, ``metric_pair``, ``j_linearity``,
``metric_defect``, ``reeb_metric_dual``, ``reeb_coupling`` and
``cr_form_xi``) differentiate drawn sections along drawn directions, the
reference for the covariant-derivative tables of J, g and lam.
``const_field`` is the constant-coefficient field.  ``xi_field``,
``j_field`` and ``lie_derivative_endo_fields`` are the one-vector forms of
the package's sections, J-images and Lie derivatives, which take a field of
columns, the references for each stacked column; ``column`` and ``pair``
turn one or two vector fields into a field of columns.  ``j_image`` (the
J-image of a field of columns) and ``lie_derivative_endo`` (the package's
``lie_endo`` on one Jacobian pass of a closure) are the closure forms of
what the package reads from the columns of one ``field_jet``.  The
Jacobian formulas of a distribution section, a J-image and a coframe
(``xi_section_jacobian``, ``j_image_jacobian``, ``coframe_jacobian``) are
the references for the engine's Jacobians of those fields; the package
itself differentiates every field through the engine.  The ``*_einsum``
functions are the einsum forms of the package's table contractions
(Christoffel, Nijenhuis, B1, the covariant derivatives of J and g, the
frame one-forms, a slot-by-slot frame read and a matrix on a table's first
slot), the references for the stacked matmuls that replaced them.
``per_point_records`` is the runner's former record expansion, one dict
per point of each family result and then a stable sort, the reference for
its expansion of whole groups.  ``numpy_field_rng`` is numpy's generator
under the key that ``field_rng`` once fed it, the source of the vectors of
the tests that predate the package's own generator.
"""

import math
import zlib

import numpy as np

from triadlab.ad import Dual, shape, stack
from triadlab.connections import covariant_derivative_form
from triadlab.engine import (colmul, columns, inner, is_float_point, lie_endo,
                             matvec, max_residual, solve)


def directional_derivative(engine, f, p, v):
    """Scalar directional derivative; rejects non-finite results."""
    out = engine.deriv(f, p, v)
    if is_float_point(p) and not np.all(np.isfinite(np.asarray(out, dtype=float))):
        raise ValueError("non-finite derivative: field evaluated outside its domain")
    return out


def roundtrip_residual(cmap, pts) -> float:
    """Worst |inverse(forward(q)) - q| of a chart map over the points."""
    worst = 0.0
    for q in pts:
        q = np.asarray(q, dtype=float)
        back = cmap.inverse(cmap.forward(q))
        worst = max_residual(worst, np.max(np.abs(back - q)))
    return worst


def lie_bracket(engine, X, Y, p):
    """[X, Y] = DY(X) - DX(Y) evaluated at p."""
    return engine.deriv(Y, p, X(p)) - engine.deriv(X, p, Y(p))


def apply(conn, Xf, Yf, p):
    """nabla_X Y at p for vector-field closures X, Y."""
    return conn.apply_vec(Xf(p), Yf, p)


def torsion(conn, Xf, Yf, p):
    """T(X, Y) = nabla_X Y - nabla_Y X - [X, Y] on field closures."""
    return (apply(conn, Xf, Yf, p) - apply(conn, Yf, Xf, p)
            - lie_bracket(conn.engine, Xf, Yf, p))


def pullback_apply(base, cmap, u, Yf, p):
    """(phi^* nabla)_u Y = dphi^{-1} (nabla_{phi_* u} (phi_* Y)) at p, with
    phi_* Y realised through the map's closed-form inverse."""
    q = cmap.forward(p)
    dphi_p = cmap.differential(p)
    u_push = matvec(dphi_p, u)

    def y_push(qq):
        pp = cmap.inverse(qq)
        return matvec(cmap.differential(pp), Yf(pp))

    w = base.apply_vec(u_push, y_push, q)
    return solve(np.asarray(dphi_p, dtype=float), w[..., None])[..., 0]


def xi_vector(triad, p, rng):
    """A unit (triad-metric) vector in the contact distribution at p; at a
    batch of points, one draw projected at every point."""
    w = matvec(triad.pi_any(p), rng.standard_normal(triad.dim))
    return w / np.sqrt(inner(w, matvec(triad.metric_any(p), w)))[..., None]


def const_field(w):
    """The constant-coefficient vector field q -> w: one vector shared by
    every point of a batch, or one vector per point; its value has q's
    shape."""
    w = np.asarray(w, dtype=float)
    return lambda q: np.broadcast_to(w, shape(q))


def xi_field(triad, w):
    """The distribution section q -> Pi(q) w of one frozen chart vector, or,
    at a batch of points, of one vector per point: the one-vector form of
    the package's ``xi_section``."""
    w = np.asarray(w, dtype=float)
    return lambda q: matvec(triad.pi_any(q), w)


def j_field(triad, Yf):
    """The vector field q -> J(q) Y(q): the one-vector form of
    ``j_image``."""
    return lambda q: matvec(triad.j_any(q), Yf(q))


def j_image(triad, F):
    """The field q -> J(q) F(q) of a field of columns F, each column its own
    stacked matvec: the J-image columns of the package's ``field_jet`` as a
    closure of their own."""
    return lambda q: colmul(triad.j_any(q), F(q))


def column(Xf):
    """The field of one column whose column is the vector field X."""
    return lambda q: Xf(q)[..., None]


def pair(Xf, Yf):
    """The field of two columns [X, Y], which the package's bracket
    functions read as the one pair (X, Y)."""
    return lambda q: stack([Xf(q), Yf(q)])


def lie_derivative_endo(engine, X, A, dA, p):
    """Lie derivatives of a (1,1)-tensor along each column of X, a field of
    m columns, stacked in front, ``(m, *batch, d, d)``, at a float point or
    batch, from one Jacobian pass of X; A and dA are the tensor's value and
    Jacobian table at p.  The package's ``lie_endo`` on a closure, as its
    drawn records read it on the columns of a ``field_jet``."""
    return lie_endo(columns(X(p)), np.moveaxis(engine.jacobian(X, p), -2, 0),
                    A, dA)


def lie_derivative_endo_fields(engine, X, A, p):
    """(L_X A)(Y) = [X, AY] - A[X, Y] for a vector field X and a matrix
    field A, each differentiated on its own: the per-vector form of
    ``lie_derivative_endo``."""
    dX = engine.jacobian(X, p)
    Ap = A(p)
    return engine.deriv(A, p, X(p)) - dX @ Ap + Ap @ dX


def xi_section_jacobian(triad, w, p):
    """Jacobian of the section q -> Pi(q) w at a float point or batch:
    (d Pi) w = -lam(w) dX - X (w^T d lam), from Pi = I - X lam^T."""
    lam_w = inner(triad.lam_any(p), w)
    return (-lam_w[..., None, None] * triad.jac_reeb_at(p)
            - np.einsum('...a,...l->...al', triad.reeb_any(p),
                        matvec(triad.jac_lam_at(p).mT, w)))


def j_image_jacobian(triad, Yf, p):
    """Jacobian of the field q -> J(q) Y(q): (dJ) y + J dY."""
    return (np.einsum('...abl,...b->...al', triad.jac_j_at(p), Yf(p))
            + triad.j_any(p) @ triad.engine.jacobian(Yf, p))


def coframe_jacobian(frame, p):
    """Jacobian of the coframe theta = E^-1 of a moving frame E:
    -theta dE theta, from the frame's Jacobian table."""
    theta = frame.coframe_any(p)
    return -np.einsum('...ia,...ajl,...jb->...ibl', theta,
                      frame.jac_frame_at(p), theta)


def metric_pair(triad, Yf, Zf):
    """The scalar field q -> g_q(Y(q), Z(q))."""
    return lambda q: inner(Yf(q), matvec(triad.metric_any(q), Zf(q)))


def j_linearity(conn, u, Yf, p):
    """Pi nabla_u (J Y) - J Pi nabla_u Y for a field Y."""
    t = conn.triad
    P, J = t.pi_any(p), t.j_any(p)
    return (matvec(P, conn.apply_vec(u, j_field(t, Yf), p))
            - matvec(J, matvec(P, conn.apply_vec(u, Yf, p))))


def metric_defect(conn, u, Yf, Zf, p):
    """u[g(Y, Z)] - g(nabla_u Y, Z) - g(Y, nabla_u Z) for fields Y, Z."""
    t = conn.triad
    G = t.metric_any(p)
    return (conn.engine.deriv(metric_pair(t, Yf, Zf), p, u)
            - inner(conn.apply_vec(u, Yf, p), matvec(G, Zf(p)))
            - inner(Yf(p), matvec(G, conn.apply_vec(u, Zf, p))))


def reeb_metric_dual(conn, y, Zf, p):
    """g(nabla_y X, Z) + g(X, nabla_y Z) for the Reeb field X."""
    t = conn.triad
    G = t.metric_any(p)
    return (inner(conn.apply_vec(y, t.reeb_any, p), matvec(G, Zf(p)))
            + inner(t.reeb_any(p), matvec(G, conn.apply_vec(y, Zf, p))))


def reeb_coupling(conn, y, p):
    """nabla_{J y} X + J nabla_y X for the Reeb field X."""
    t = conn.triad
    J, reeb = t.j_any(p), t.reeb_any
    return (conn.apply_vec(matvec(J, y), reeb, p)
            + matvec(J, conn.apply_vec(y, reeb, p)))


def cr_form_xi(conn, Yf, p):
    """nabla_Y lam + J^T nabla_{J Y} lam, a covector, for a field Y."""
    t = conn.triad
    a1, a2 = (covariant_derivative_form(conn, t.lam_any, F, p)
              for F in (Yf, j_field(t, Yf)))
    return a1 + matvec(t.j_any(p).mT, a2)


def numeric_directional(f, p, v, h=1e-5):
    """Fourth-order central difference of closure f at p along v."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    f1 = np.asarray(f(p + h * v), dtype=float)
    f_1 = np.asarray(f(p - h * v), dtype=float)
    f2 = np.asarray(f(p + 2 * h * v), dtype=float)
    f_2 = np.asarray(f(p - 2 * h * v), dtype=float)
    return (8.0 * (f1 - f_1) - (f2 - f_2)) / (12.0 * h)


def koszul_lc_pairing(triad, u, v, w, p):
    """<nabla^{LC}_u V, w> for constant-coefficient fields via the six-term
    Koszul formula.  With constant fields all bracket terms vanish, leaving

        2 <nabla_u V, w> = u.g(V,w) + V.g(u,w) - w.g(u,V).
    """

    def g_pair(a, b):
        return lambda q: float(a @ triad.metric_any(q) @ b)

    total = (numeric_directional(g_pair(v, w), p, u)
             + numeric_directional(g_pair(u, w), p, v)
             - numeric_directional(g_pair(u, v), p, w))
    return 0.5 * float(total)


def nijenhuis_closures(triad, Xf, Yf, p):
    """N(X,Y) = [JX,JY] - [X,Y] - J[X,JY] - J[JX,Y] on bare field closures."""
    eng = triad.engine

    def JX(q):
        return matvec(triad.j_any(q), Xf(q))

    def JY(q):
        return matvec(triad.j_any(q), Yf(q))

    J = triad.j_any(p)
    return (lie_bracket(eng, JX, JY, p) - lie_bracket(eng, Xf, Yf, p)
            - np.dot(J, lie_bracket(eng, Xf, JY, p))
            - np.dot(J, lie_bracket(eng, JX, Yf, p)))


def _merge_sign(I, J):
    """Sign of sorting the concatenation of two disjoint sorted index tuples."""
    s = 1
    for i in I:
        for j in J:
            if j < i:
                s = -s
    return s


def wedge(f: dict, g: dict) -> dict:
    """Wedge product of forms given as {sorted index tuple: coefficient}."""
    out: dict = {}
    for I, a in f.items():
        for J, b in g.items():
            if set(I) & set(J):
                continue
            K = tuple(sorted(I + J))
            out[K] = out.get(K, 0.0) + _merge_sign(I, J) * a * b
    return out


def contact_coefficient(triad, p) -> float:
    """Signed coefficient of lam ^ (d lam)^n against the chart volume form.

    Nonzero iff the contact condition holds at p; the sign reports the
    induced orientation relative to the chart.
    """
    lam = triad.lam_any(p)
    A = triad.dlam_any(p)
    d = triad.dim
    two = {}
    for i in range(d):
        for j in range(i + 1, d):
            if A[i, j] != 0.0:
                two[(i, j)] = A[i, j]
    power = two
    for _ in range(triad.n - 1):
        power = wedge(power, two)
    one = {(i,): lam[i] for i in range(d) if lam[i] != 0.0}
    top = wedge(one, power)
    return float(top.get(tuple(range(d)), 0.0))


def j_squared_residual(triad, p) -> float:
    """max(|J^2 + Pi|, |J X|) at p."""
    J = triad.j_any(p)
    P = triad.pi_any(p)
    r1 = np.max(np.abs(np.dot(J, J) + P))
    r2 = np.max(np.abs(np.dot(J, triad.reeb_any(p))))
    return float(max(r1, r2))


def compatibility(triad, p, seed: int = 0, samples: int = 32):
    """(max |d lam(JY, JZ) - d lam(Y, Z)|, min d lam(Y, JY) over unit Y).

    Y, Z are Gaussian chart vectors pushed through Pi; Y is normalised by
    sqrt(|g(Y, Y)|), so a compatible J scores exactly +1 in the second
    slot and J -> -J scores -1.
    """
    rng = np.random.default_rng([seed, 2 * triad.dim + 1])
    A = triad.dlam_any(p)
    P = triad.pi_any(p)
    J = triad.j_any(p)
    G = triad.metric_any(p)
    ys = []
    for _ in range(samples):
        w = np.dot(P, rng.standard_normal(triad.dim))
        nrm = abs(float(np.dot(w, np.dot(G, w))))
        if nrm < 1e-12:
            continue
        ys.append(w / np.sqrt(nrm))
    inv_defect = 0.0
    positivity = np.inf
    for k, y in enumerate(ys):
        jy = np.dot(J, y)
        positivity = min(positivity, float(np.dot(y, np.dot(A, jy))))
        z = ys[(k + 1) % len(ys)]
        lhs = float(np.dot(jy, np.dot(A, np.dot(J, z))))
        rhs = float(np.dot(y, np.dot(A, z)))
        inv_defect = max(inv_defect, abs(lhs - rhs))
    return inv_defect, positivity


def _rk4_flow_with_jacobian(field, jac, p, t, steps=16):
    """Integrate q' = field(q), M' = jac(q) M from (p, I) for time t."""
    q = np.asarray(p, dtype=float).copy()
    M = np.eye(len(q))
    h = t / steps

    def rhs(state):
        qq, MM = state
        return np.asarray(field(qq), dtype=float), jac(qq) @ MM

    for _ in range(steps):
        k1q, k1m = rhs((q, M))
        k2q, k2m = rhs((q + 0.5 * h * k1q, M + 0.5 * h * k1m))
        k3q, k3m = rhs((q + 0.5 * h * k2q, M + 0.5 * h * k2m))
        k4q, k4m = rhs((q + h * k3q, M + h * k3m))
        q = q + (h / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
        M = M + (h / 6.0) * (k1m + 2 * k2m + 2 * k3m + k4m)
    return q, M


def flow_lie_derivative_endo(field, jac, endo, p, t=1e-3, steps=16):
    """d/dt at t=0 of the flow pullback of the endomorphism field.

    The pullback at flow time t is  M(t)^{-1} A(q(t)) M(t)  with M the
    flow differential, integrated by RK4;  the t-derivative is a central
    difference, so the overall error is O(t^2) + O((t/steps)^4).
    """

    def pull(tt):
        q, M = _rk4_flow_with_jacobian(field, jac, p, tt, steps)
        return np.linalg.solve(M, np.asarray(endo(q), dtype=float) @ M)

    return (pull(t) - pull(-t)) / (2.0 * t)


def fd_jacobian(field, q, h=1e-6):
    """Plain central-difference Jacobian of a vector closure (column l = d/dx_l)."""
    q = np.asarray(q, dtype=float)
    d = len(q)
    cols = []
    for l in range(d):
        e = np.zeros(d)
        e[l] = 1.0
        hi = np.asarray(field(q + h * e), dtype=float)
        lo = np.asarray(field(q - h * e), dtype=float)
        cols.append((hi - lo) / (2.0 * h))
    return np.stack(cols, axis=-1)


def _value(x) -> float:
    """Strip every dual layer of a scalar and return the underlying float."""
    while isinstance(x, Dual):
        x = x.re
    return float(x)


def lu_solve_generic(A, B):
    """Solve A X = B by LU with partial pivoting, entry by entry over dual
    scalars (object arrays of 0-d duals or floats)."""
    n = A.shape[0]
    one_d = B.ndim == 1
    B2 = B[:, None] if one_d else B
    m = B2.shape[1]
    M = [[A[i, j] for j in range(n)] for i in range(n)]
    R = [[B2[i, j] for j in range(m)] for i in range(n)]
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(_value(M[i][k])))
        if abs(_value(M[piv][k])) < 1e-300:
            raise np.linalg.LinAlgError("singular system in generic LU solve")
        M[k], M[piv] = M[piv], M[k]
        R[k], R[piv] = R[piv], R[k]
        inv_p = 1.0 / M[k][k]
        for i in range(k + 1, n):
            f = M[i][k] * inv_p
            for j in range(k + 1, n):
                M[i][j] = M[i][j] - f * M[k][j]
            for j in range(m):
                R[i][j] = R[i][j] - f * R[k][j]
    X = np.empty((n, m), dtype=object)
    for i in range(n - 1, -1, -1):
        for j in range(m):
            acc = R[i][j]
            for l in range(i + 1, n):
                acc = acc - M[i][l] * X[l, j]
            X[i, j] = acc / M[i][i]
    if not any(isinstance(x, Dual) for x in X.flat):
        X = X.astype(float)
    return X[:, 0] if one_d else X


# -- einsum forms of the package's table contractions ------------------------


def christoffel_einsum(triad, p):
    """Gamma[k, i, j] = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij)."""
    dG = triad.dmetric_at(p)
    s = np.moveaxis(dG, -1, -3) + dG.swapaxes(-1, -2) - dG
    return 0.5 * np.einsum('...kl,...ijl->...kij', triad.metric_inv_at(p), s)


def nijenhuis_einsum(triad, p):
    """N[k, i, j] on the constant fields, from dJ and J."""
    J, dJ = triad.j_any(p), triad.jac_j_at(p)
    t1 = np.einsum('...kjl,...li->...kij', dJ, J)
    t2 = np.einsum('...ka,...aji->...kij', J, dJ)
    return (t1 - t1.swapaxes(-1, -2)) - (t2 - t2.swapaxes(-1, -2))


def b1_einsum(triad, p):
    """B1[k, i, j] = -1/2 J[k, a] (nabla^LC J)[a, b, l] Pi[l, i] Pi[b, j]."""
    P = triad.pi_any(p)
    return -0.5 * np.einsum('...ka,...abl,...li,...bj->...kij',
                            triad.j_any(p), triad.nabla_j_at(p), P, P)


def nabla_j_einsum(triad, gamma, p):
    """nj[a, b, l] = d_l J[a, b] + [Gamma_l, J][a, b]."""
    J = triad.j_any(p)
    return (triad.jac_j_at(p) + np.einsum('...alm,...mb->...abl', gamma, J)
            - np.einsum('...am,...mlb->...abl', J, gamma))


def nabla_metric_einsum(triad, gamma, p):
    """ng[a, b, l] = d_l g_ab - g(Gamma(e_l, e_a), e_b)
    - g(e_a, Gamma(e_l, e_b))."""
    s = np.einsum('...am,...mlb->...abl', triad.metric_any(p), gamma)
    return triad.dmetric_at(p) - s.swapaxes(-2, -3) - s


def one_forms_einsum(conn, frame, p):
    """gamma[i, k, j] = <nabla_{e_k} e_j, e_i> of a moving frame E."""
    E = frame.matrix_any(p)
    flat = np.einsum('...ajl,...lk->...akj', frame.jac_frame_at(p), E)
    bil = np.einsum('...aim,...ik,...mj->...akj', conn.gamma_tensor(p), E, E)
    return np.einsum('...ai,...ab,...bkj->...ikj', E,
                     frame.triad.metric_any(p), flat + bil)


def in_frame_einsum(T, *bases):
    """The table T[..., i_1, .., i_m] with slot s contracted with the columns
    of ``bases[s]``, one slot at a time."""
    s = "ijk"[:len(bases)]
    for n, M in enumerate(bases):
        T = np.einsum("...%s,...%sz->...%s" % (s, s[n], s.replace(s[n], "z")),
                      T, M)
    return T


def lead_einsum(M, T):
    """M applied to the first slot of a table T[k, i, j]."""
    return np.einsum('...ka,...aij->...kij', M, T)


def per_point_records(groups):
    """Report records of groups (result, variant, index of the first point,
    note), built point by point and stably sorted by (name, variant, point
    index); a result may be at one point or at a batch."""
    records = []
    for cr, variant, first, note in groups:
        residual = np.reshape(cr.residual, -1)
        passed = np.reshape(cr.passed, -1)
        point = np.reshape(cr.point, (len(residual), -1))
        for i in range(len(residual)):
            r = float(residual[i])
            records.append({
                "name": cr.name, "variant": variant, "point_index": first + i,
                "residual": r, "tolerance": float(cr.tolerance),
                "passed": bool(passed[i]), "anchor": cr.anchor,
                "point": point[i].tolist(),
                "note": note or ("" if math.isfinite(r)
                                 else "error: residual is not finite")})
    records.sort(key=lambda r: (r["name"], r["variant"], r["point_index"]))
    return records


def numpy_field_rng(seed: int, *tags):
    """``np.random.default_rng`` of one uint32 key: the seed's 32-bit words,
    low word first, then per tag a float array's float64 words or the
    CRC-32 of any other tag's string."""
    seed = int(seed)
    words = max(1, (seed.bit_length() + 31) // 32)
    key = [np.frombuffer(seed.to_bytes(4 * words, "little"), dtype=np.uint32)]
    for t in tags:
        key.append(np.ascontiguousarray(t, dtype=float).view(np.uint32)
                   if isinstance(t, np.ndarray) else
                   np.array([zlib.crc32(str(t).encode())], dtype=np.uint32))
    return np.random.default_rng(np.concatenate(key))
