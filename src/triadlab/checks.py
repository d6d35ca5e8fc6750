"""Residual battery for the connection family.

Every check evaluates one identity the family is supposed to satisfy and
reports the worst residual it saw, together with the tolerance it is held
to.  An identity that reads only the triad's per-point tables (g, J, Pi,
d lam, L_X J, nabla^LC J, the Nijenhuis tensor N, the Gamma tables and the
covariant derivatives of J, g and lam built from them) is evaluated on the
whole table: every slot is contracted with the g-orthonormal basis
B = L^-T, where G = L L^T (Pi B for a distribution slot), a vector output
is read as L^T out, and the residual is the largest entry.  So are the
axioms, ``cr-form``, the semi-connection records other than the quarter-N
torsion, ``lc-j-derivative-pairing``, ``lc-j-derivative-reeb-slots``,
``nijenhuis-reeb-slots``, ``nijenhuis-j-shuffle``,
``lc-j-antilinear-cancellation``, ``p-tensor-metric-skew``,
``torsion-type-symmetries``, the lam part of ``torsion-split-values``,
``scaling-transfer``, ``naturality-pullback`` and every control but the
dropped-torsion one; the records linear in one free slot read their tables
as matrices.  A field identity on sections, such as (nabla_u g)(Y, Z) =
u[g(Y, Z)] - g(nabla_u Y, Z) - g(Y, nabla_u Z), is the exact contraction
of its table, so no field is drawn for it.  Three records stand apart from
the tables by design and draw seeded Gaussian fields: the quarter-N torsion
(which takes N from field brackets), the Lie part of
``torsion-split-values`` and ``p-antisymmetrized-bracket``.  Each point
reads its own generator ``field_rng(seed, name, label, point)`` (see
:func:`draws`), keyed by the point's coordinate bytes and not by its index,
so no record's draws depend on another's, two points of a batch read
different draws, and a point re-run alone reads the draws it read in the
batch.  The draws take no c.  The draws the three records differentiate
are the columns of one field, differentiated with its J-image in one pass,
and their brackets and Lie derivatives come stacked over the samples in
front of the batch axes.  Every family takes a point or a batch of points,
shape ``(*batch, dim)``, and reports one residual per point.  A family that
reads the run's c sweep
(``check_axioms``, ``check_cr_form``, the two sweep records of the lemma
suite, and the frame re-derivation) is called once for the whole sweep: it
reads the Gamma table stacked over the sweep
(:class:`~triadlab.connections.TriadConnection`), and every table built
from it carries the sweep's axis in front of the batch's.
``check_axioms`` and ``check_cr_form`` return one list of results per c.

The registry :data:`CHECKS` declares every check once: the one-line
statement of its identity (what the CLI's ``describe-check`` prints), its
tolerance, the family function that emits it, and whether it is a
control.  ``make_result`` reads the tolerance and the statement from it.
Each control breaks one ingredient and runs the identity kernel of the check
it pairs with on its fault's tables, so it tests that check's code; it must
push its residual far above tolerance.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass

import numpy as np

from .connections import (
    LeviCivitaConnection,
    PullbackConnection,
    TriadConnection,
    b1_table,
    covariant_derivative_two_form,
    field_jet,
    j_brackets,
    nabla_j,
    nabla_lam,
    nabla_metric,
    tensor_P,
    torsion_tensor,
)
from .catalog import StrictContactMap
from .contact import ContactTriad, seed_int, xi_section
from .engine import (columns, dot, inner, lead, lie_endo, matvec,
                     max_residual, solve, tail)

TOL_ALGEBRAIC = 1e-8
TOL_DERIVATIVE = 1e-7

STRICTNESS_TOL = 1e-9
# Draws a sampled check makes per point, in every run.
SAMPLES = 3


@dataclass
class CheckResult:
    """Outcome of one named residual check at one chart point, or at each
    point of a batch, with one residual, verdict and point per point."""

    name: str
    anchor: str
    residual: float
    tolerance: float
    passed: bool
    point: np.ndarray


@dataclass(frozen=True)
class CheckSpec:
    """One check's identity, tolerance, emitting function (as the runner
    module binds it) and role; a control must fail, and a ``per_c`` check
    is emitted once per family parameter by one call of its family."""

    anchor: str
    tolerance: float
    family: str
    control: bool = False
    per_c: bool = False


def _declare(family, tolerance, entries, **role) -> dict:
    return {name: CheckSpec(anchor, tolerance, family, **role)
            for name, anchor in entries}


# One entry per check, in the order its family emits it.
CHECKS = {
    **_declare("check_axioms", TOL_ALGEBRAIC, [
        ("axiom-hermitian", "projected covariant derivative commutes with J "
         "on the distribution and differentiates the induced metric"),
        ("axiom-xi-torsion", "torsion vanishes on conjugate pairs (J Y, Y) of "
         "distribution vectors after projection"),
        ("axiom-reeb-torsion", "torsion with the Reeb field in one slot "
         "vanishes"),
        ("axiom-reeb-invariance", "Reeb field is parallel along itself and "
         "its covariant derivative stays inside the distribution"),
        ("axiom-cr-coupling", "nabla_{JY} X + J nabla_Y X = c Y, the "
         "parameter coupling of the family"),
        ("axiom-reeb-metric-dual", "covariant derivative of the Reeb field is "
         "metric-dual to that of distribution sections"),
    ]),
    # holomorphicity of the contact form
    **_declare("check_cr_form", TOL_ALGEBRAIC, [
        ("cr-form-reeb", "the contact form is parallel in the Reeb direction"),
        ("cr-form-xi", "nabla_Y lam + J nabla_{JY} lam = 0 on the "
         "distribution (holomorphicity in the CR sense)"),
    ]),
    **_declare("check_scaling", TOL_DERIVATIVE, [
        ("scaling-transfer", "the connection of (a lam, J) at parameter 1 "
         "matches the connection of (lam, J) at parameter a up to the "
         "closed-form Reeb-component offset"),
    ]),
    **_declare("check_naturality", TOL_DERIVATIVE, [
        ("naturality-pullback", "pulling the connection back through a strict "
         "contact transformation gives the connection of the pulled-back "
         "triad"),
    ]),
    # supporting identity suite (Levi-Civita and intermediate connection)
    **_declare("check_lemma_suite", TOL_ALGEBRAIC, [
        ("two-form-j-invariance", "d lam(JY, JZ) = d lam(Y, Z)"),
        ("reeb-lie-j-symmetry", "the Lie transport of J along the Reeb field "
         "is g-symmetric on the distribution"),
        ("reeb-geodesic-foliation", "Reeb orbits are Levi-Civita geodesics "
         "and nabla^LC X stays in the distribution"),
        ("lc-j-derivative-pairing", "2<(nabla^LC_X J)Y, Z> = <N(Y,Z), JX> "
         "- <JX,JY> lam(Z) + <JX,JZ> lam(Y)"),
        ("lc-j-derivative-reeb-slots", "the Reeb-slot specialisations of the "
         "pairing between nabla^LC J and the Nijenhuis tensor"),
        ("nijenhuis-reeb-slots", "N(X, Z) = -J((L_X J)Z) and "
         "N(Z, X) = +J((L_X J)Z) for the Reeb field X"),
        ("nijenhuis-j-shuffle", "J N(Y, JZ) = Pi N(Y, Z) and "
         "Pi N(Y, JZ) + Pi N(Z, JY) = 0"),
        ("lc-j-antilinear-cancellation", "Pi (nabla^LC_{JY} J)X + "
         "J (nabla^LC_Y J)X = 0 on the distribution"),
        ("lc-reeb-parallel-j", "nabla^LC_X J = 0 for the Reeb field X"),
        ("lc-reeb-covariant-slope", "nabla^LC_Y X = 1/2 JY + 1/2 (L_X J)JY on "
         "the distribution"),
        ("semi-connection-j-linearity", "the intermediate connection "
         "(parameter -1) is J-linear after projection"),
        ("p-tensor-metric-skew", "<P(X,Y), Z> + <Y, P(X,Z)> = 0 on the "
         "distribution"),
        ("semi-connection-metric", "the intermediate connection "
         "differentiates the metric on distribution sections"),
        ("semi-connection-reeb-metric-dual", "Reeb/metric duality for the "
         "intermediate connection"),
    ]),
    **_declare("check_lemma_suite", TOL_DERIVATIVE, [
        ("semi-connection-torsion-quarter-n", "the intermediate connection "
         "has torsion 1/4 Pi N on the distribution and none against the Reeb "
         "field"),
        ("reeb-covariant-family", "nabla_Y X = -1/2 c JY + 1/2 (L_X J)JY "
         "across the parameter family"),
        ("torsion-split-values", "lam(T(Y,Z)) = (1+c) d lam(Y,Z) and "
         "Pi T = 1/4 ((L_{JY}J)Z + (L_Y J)JZ)"),
        ("torsion-type-symmetries", "projected torsion satisfies "
         "T(JY,Z) = T(Y,JZ) and J T(JY,Z) = T(Y,Z)"),
    ]),
    **_declare("check_lemma_suite", TOL_ALGEBRAIC, [
        ("p-antisymmetrized-bracket", "-P(Y,Z) + P(Z,Y) equals the quarter "
         "bracket combination of J-shuffled commutators"),
        ("reeb-parallel-two-form", "d lam is parallel in the Reeb direction"),
    ]),
    **_declare("_frame_records", 1e-9, [
        ("frame-orthonormality", "moving frames are g-orthonormal with dual "
         "coframe"),
    ]),
    **_declare("_frame_records", TOL_DERIVATIVE, [
        ("frame-coefficient-rederivation", "frame coefficients recomputed "
         "from the defining axioms match the directly evaluated connection"),
    ], per_c=True),
    **_declare("_frame_records", TOL_DERIVATIVE, [
        ("structure-equation", "d theta^i + Omega^i_k ^ theta^k reproduces "
         "the torsion two-forms"),
    ]),
    **_declare("_frame_records", TOL_ALGEBRAIC, [
        ("frame-skew-hermitian", "the distribution block of the connection "
         "matrix is skew-Hermitian"),
    ]),
    **_declare("fault_flipped_b1", TOL_DERIVATIVE, [
        ("fault-flipped-correction", "flipping the sign of the first "
         "correction tensor must break the quarter-Nijenhuis torsion value"),
    ], control=True),
    **_declare("fault_wrong_c", TOL_ALGEBRAIC, [
        ("fault-wrong-family-parameter", "checking parameter c against the "
         "axiom for c' leaves a residual |c - c'| per unit vector"),
    ], control=True),
    **_declare("fault_levi_civita", TOL_ALGEBRAIC, [
        ("fault-levi-civita-not-complex-linear", "the Levi-Civita connection "
         "fails J-linearity whenever J is not parallel"),
    ], control=True),
    **_declare("fault_scale_mismatch", TOL_DERIVATIVE, [
        ("fault-scale-mismatch", "comparing the scaled connection against the "
         "unscaled parameter-1 connection must disagree"),
    ], control=True),
    **_declare("_dropped_torsion_control", TOL_DERIVATIVE, [
        ("control-structure-equation-dropped-torsion", "dropping the torsion "
         "forms from the structure equation exposes the d lam component"),
    ], control=True),
}


def family_names(family: str, c_values=()) -> tuple:
    """Names one call of ``family`` emits, in order."""
    return tuple(name for name, spec in CHECKS.items()
                 if spec.family == family
                 for _ in (c_values if spec.per_c else (None,)))


def make_result(name: str, residual, p) -> CheckResult:
    """The record of check ``name``, held to its declared tolerance; at a
    batch, with one residual, verdict and point per point."""
    spec = CHECKS[name]
    residual = np.asarray(residual, dtype=float)[()]
    return CheckResult(name=name, anchor=spec.anchor, residual=residual,
                       tolerance=spec.tolerance,
                       passed=residual <= spec.tolerance,
                       point=np.asarray(p, dtype=float))


# -- seeded draws ----------------------------------------------------------


def field_rng(seed: int, *tags) -> random.Random:
    """Deterministic generator keyed by a seed plus tags: a float array, such
    as a chart point, by all of its float64 bytes, any other tag by the
    CRC-32 of its string.  The key is one ``bytes``, the seed's
    little-endian 32-bit words first, so every bit of a large seed counts;
    ``random.Random`` seeds from it through SHA-512, so ``PYTHONHASHSEED``
    cannot reach the stream.  ``seed`` must be an integer >= 0
    (``seed_int``)."""
    seed = seed_int(seed)
    words = max(1, (seed.bit_length() + 31) // 32)
    key = [seed.to_bytes(4 * words, "little")]
    for t in tags:
        key.append(np.ascontiguousarray(t, dtype="<f8").tobytes()
                   if isinstance(t, np.ndarray) else
                   zlib.crc32(str(t).encode()).to_bytes(4, "little"))
    return random.Random(b"".join(key))


def draws(triad: ContactTriad, p, seed: int, name: str, shape: tuple):
    """Each point's own Gaussian draws of ``shape``, ``(*batch, *shape)``:
    ``prod(shape)`` values of ``gauss(0.0, 1.0)`` from ``field_rng(seed,
    name, triad.label, point)``, so a point reads the same draws alone as
    in any batch.  ``gauss`` computes with ``math``, so the draws do not
    depend on the CPU's vector paths."""
    pts = p.reshape(-1, p.shape[-1])
    size = math.prod(shape)
    rngs = (field_rng(seed, name, triad.label, q) for q in pts)
    W = [[rng.gauss(0.0, 1.0) for _ in range(size)] for rng in rngs]
    return np.reshape(W, p.shape[:-1] + shape)


# -- small shared evaluators ----------------------------------------------


def _worst(x, axes: int = 1):
    """max |x| over the last ``axes`` axes: one value per point of a batch."""
    return np.max(np.abs(x), axis=tuple(range(-axes, 0)))


def _frame(triad: ContactTriad, p) -> tuple:
    """(L, B, Pi B) with G = L L^T: the columns of B = L^-T are g-orthonormal,
    those of Pi B span the distribution, and L^T v reads a vector v in B;
    built once per point in the triad's store."""
    def impl(x):
        L = np.linalg.cholesky(triad.metric_any(x))
        B = np.linalg.inv(L).mT
        return L, B, dot(triad.pi_any(x), B)
    return triad._cached("cholesky_frame", p, impl)


def _in_frame(T, *bases):
    """Largest entry per point of the table T[..., i_1, .., i_m] with slot s
    contracted with the columns of ``bases[s]``, one slot at a time: one
    stacked matmul contracts the last slot and puts its result in front."""
    m = len(bases)
    for M in reversed(bases):
        R = np.matmul(M.mT, T.reshape(T.shape[:-m] + (-1, T.shape[-1])).mT)
        T = R.reshape(R.shape[:-1] + T.shape[-m:-1])
    return _worst(T, m)


def _torsion_table(gamma):
    """T[k, i, j] = T(e_i, e_j)^k of the Gamma table ``gamma``."""
    return gamma - gamma.swapaxes(-1, -2)


def _reeb_cov_matrix(conn, p) -> np.ndarray:
    """M with M v = nabla_v X for the Reeb field X, as a chart matrix."""
    t = conn.triad
    return t.jac_reeb_at(p) + np.einsum('...kil,...l->...ki',
                                        conn.gamma_tensor(p), t.reeb_any(p))


# -- identity kernels: a check passes its tables, a control its fault's ----


def _j_defect(nj, P, L, B, Bx):
    """Pi (nabla_u J) Y = Pi nabla_u (J Y) - J Pi nabla_u Y on xi sections."""
    return _in_frame(lead(P, nj), L, Bx, B)


def _metric_defects(ng, X, B, Bx):
    """(nabla_u g)(Y, Z) on xi sections, and g(nabla_y X, Z) + g(X, nabla_y Z)
    = -(nabla_y g)(X, Z) for y in xi, as g(X, Z) = 0, from the table ``ng``."""
    return (_in_frame(ng, Bx, Bx, B),
            _in_frame(np.einsum('...abl,...a->...bl', ng, X), Bx, Bx))


def _coupling_gap(M, J, cP, L, Bx):
    """nabla_{J y} X + J nabla_y X - c y on xi, from M v = nabla_v X."""
    return _in_frame(dot(M, J) + dot(J, M) - cP, L, Bx)


def _gamma_gap(a, b, offset, L, B):
    """The gap a - b - offset of two Gamma tables, read in the basis B."""
    return _in_frame(a - b - offset, L, B, B)


# -- axiom battery ---------------------------------------------------------


def _c_axis(conn: TriadConnection, ndim: int) -> np.ndarray:
    """The sweep's c values on the leading axis, before ``ndim`` more."""
    return conn.c.reshape(conn.c.shape + (1,) * ndim)


def _per_c(conn: TriadConnection, names, residuals, p) -> list:
    """One list of results per c of the sweep, from residuals whose leading
    axis is the sweep's."""
    return [[make_result(n, r[k], p) for n, r in zip(names, residuals)]
            for k in range(len(conn.c))]


def check_axioms(triad: ContactTriad, c_values, p) -> list:
    """One list per c of ``c_values``: a CheckResult per defining axiom of
    the family member at that c, each read from whole tables."""
    p = np.asarray(p, dtype=float)
    conn = TriadConnection(triad, c_values)
    gamma = conn.gamma_tensor(p)
    J, P, X = triad.j_any(p), triad.pi_any(p), triad.reeb_any(p)
    L, B, Bx = _frame(triad, p)
    t = _torsion_table(gamma)
    M = _reeb_cov_matrix(conn, p)
    # (1) J-linearity and the metric on the distribution, where g(X, Z) =
    # lam(Z) = 0; (6) the Reeb/metric duality
    r_metric, r_dual = _metric_defects(nabla_metric(triad, gamma, p), X, B, Bx)
    r_herm = max_residual(_j_defect(nabla_j(triad, gamma, p), P, L, B, Bx),
                          r_metric)
    # (2) Pi T(J v, v) = 0 on the distribution, polarised:
    # tj[k, y, z] = Pi T(J e_y, e_z), and tj + tj^T vanishes
    tj = dot(J.mT[..., None, :, :], lead(P, t))
    r_xtor = _in_frame(tj + tj.swapaxes(-1, -2), L, Bx, Bx)
    # (3) T(X, w) = 0
    r_rtor = _in_frame(np.einsum('...kij,...i->...kj', t, X), L, B)
    # (4) nabla_X X = 0 and lam(nabla_y X) = 0 on the distribution
    r_inv = max_residual(_in_frame(matvec(M, X), L),
                         _in_frame(matvec(M.mT, triad.lam_any(p)), Bx))
    # (5;c) the parameter coupling nabla_{J y} X + J nabla_y X = c y
    r_cr = _coupling_gap(M, J, _c_axis(conn, p.ndim + 1) * P, L, Bx)
    return _per_c(conn, family_names("check_axioms"),
                  (r_herm, r_xtor, r_rtor, r_inv, r_cr, r_dual), p)


def check_cr_form(triad: ContactTriad, c_values, p) -> list:
    """One list per c of ``c_values``: both holomorphicity residuals of the
    contact form under nabla^c, read from the table of nabla^c lam."""
    p = np.asarray(p, dtype=float)
    conn = TriadConnection(triad, c_values)
    nl = nabla_lam(triad, conn.gamma_tensor(p), p)
    J = triad.j_any(p)
    _, B, Bx = _frame(triad, p)
    # nabla_X lam, and nabla_y lam + J^T nabla_{J y} lam on the distribution
    r_reeb = _in_frame(matvec(nl, triad.reeb_any(p)), B)
    r_xi = _in_frame(nl + dot(J.mT, dot(nl, J)), B, Bx)
    return _per_c(conn, family_names("check_cr_form"), (r_reeb, r_xi), p)


def check_scaling(triad: ContactTriad, a: float, p) -> CheckResult:
    """Verify the exact transfer law between nabla^{a lam; 1} and nabla^{lam; a}.

    Rescaling the contact form by a > 0 turns the family parameter 1 into a:
    the two connections coincide on every slot involving the Reeb field and,
    after projection to the contact plane, on plane-valued slots as well.
    They are *not* equal as full connections: for plane vectors Y, Z the
    Reeb components differ by the computable offset

        nabla^{a lam; 1}_Y Z - nabla^{lam; a}_Y Z
            = -(1/a - 1) <Z, nabla^{lam; a}_Y X> X,

    a consequence of the Reeb-metric duality axiom being weighted by the
    form scale (the torsion values (1+c) d(lam) on the two sides already
    rule out full equality).  The residual reported here is the deviation
    of the difference table from that closed-form offset, which takes
    Pi of both slots and so vanishes on the Reeb slots; it is read in a
    g-orthonormal frame, every slot at once, and pins the whole
    relationship rather than a projection of it.
    """
    p = np.asarray(p, dtype=float)
    conn_s = TriadConnection(triad.scaled(a), 1.0)
    conn_b = TriadConnection(triad, a)
    X = triad.reeb_any(p)
    Pi = triad.pi_any(p)
    G = triad.metric_any(p)
    # k[v, u] = -(1/a - 1) g(Pi v, nabla_{Pi u} X)
    k = -(1.0 / a - 1.0) * dot(Pi.mT, dot(G, dot(_reeb_cov_matrix(conn_b, p),
                                                  Pi)))
    L, B, _ = _frame(triad, p)
    r = _gamma_gap(conn_s.gamma_tensor(p), conn_b.gamma_tensor(p),
                   X[..., :, None, None] * k.mT[..., None, :, :], L, B)
    return make_result("scaling-transfer", r, p)


# -- naturality ------------------------------------------------------------


def pullback_triad(triad: ContactTriad, cmap: StrictContactMap) -> ContactTriad:
    """The triad (lam, phi^*J) on the same chart, for strict phi.  Since
    phi^*lam = lam, it has the base triad's lam, d lam, Reeb field and Pi,
    and reads their tables from the base triad's store."""
    def j_pull(q):
        dphi = cmap.differential(q)
        Jq = triad.j_any(cmap.forward(q))
        return solve(dphi, dot(Jq, dphi))

    return triad.with_j(j_pull, triad.label + "<-" + cmap.label)


def check_naturality(triad: ContactTriad, cmap: StrictContactMap, c: float,
                     p) -> CheckResult:
    """phi^* nabla^c against nabla^c of the pulled triad (lam, phi^* J), on
    their whole Gamma tables read in that triad's g-orthonormal frame."""
    p = np.asarray(p, dtype=float)
    strict = cmap.strictness_residual(triad, p)
    if not strict <= STRICTNESS_TOL:
        raise ValueError(
            "map %s does not preserve the contact form (residual %.3e) "
            "at %s" % (cmap.label, strict, p))

    pulled = pullback_triad(triad, cmap)
    direct = TriadConnection(pulled, c)
    through = PullbackConnection(TriadConnection(triad, c), cmap, pulled)
    L, B, _ = _frame(pulled, p)
    r = _gamma_gap(through.gamma_tensor(p), direct.gamma_tensor(p), 0.0, L, B)
    return make_result("naturality-pullback", r, p)


# -- the supporting identity suite ----------------------------------------


def check_lemma_suite(triad: ContactTriad, p, seed: int = 0,
                      c_values=(-1.0, 0.0, 1.0)) -> list:
    """Every supporting identity behind the family, one CheckResult each.
    Each record that draws reads its own generator, keyed by its name."""
    p = np.asarray(p, dtype=float)
    d = triad.dim
    G = triad.metric_any(p)
    A = triad.dlam_any(p)
    J = triad.j_any(p)
    P = triad.pi_any(p)
    lam = triad.lam_any(p)
    X = triad.reeb_any(p)
    L = triad.lie_reeb_j_at(p)
    N = triad.nijenhuis_at(p)
    lc = LeviCivitaConnection(triad)
    tmp = TriadConnection(triad, -1.0)
    conn0 = TriadConnection(triad, 0.0)

    out = []

    # d lam(JY, JZ) = d lam(Y, Z): all vectors at once.
    m = dot(J.mT, dot(A, J)) - dot(P.mT, dot(A, P))
    out.append(make_result("two-form-j-invariance", _worst(m, 2), p))

    # g-symmetry of L = L_X J on the distribution.
    gl = dot(G, L)
    m = dot(P.mT, dot(gl - gl.mT, P))
    out.append(make_result("reeb-lie-j-symmetry", _worst(m, 2), p))

    # Reeb orbits are geodesics; nabla^LC X is distribution-valued.
    mlc = _reeb_cov_matrix(lc, p)
    r = max_residual(_worst(matvec(mlc, X)), _worst(matvec(mlc.mT, lam)))
    out.append(make_result("reeb-geodesic-foliation", r, p))

    # The tensorial records below read whole tables: every slot contracted
    # with the g-orthonormal basis B (Pi B for a distribution slot), a
    # vector output read as L^T out.
    Lg, B, Bx = _frame(triad, p)
    nj = triad.nabla_j_at(p)
    gnj = lead(G, nj).swapaxes(-1, -3)   # g((nabla_x J) y, z)
    jnj = lead(J, nj)                     # J (nabla_y J) x
    njj = tail(nj, J)                     # (nabla_{J y} J) x

    # On fields the bracket form of N is N(y, z) - lam([Y, Z]) X at p; each
    # record says why the X term drops.  Pairing of nabla^LC J with N as
    # pair[x, y, z], full tangent slots: on constant fields [Y, Z] = 0.
    gjj = dot(J.mT, dot(G, J))
    pair = (2.0 * gnj - lead(dot(G, J).mT, N)
            + gjj[..., :, :, None] * lam[..., None, None, :]
            - gjj[..., :, None, :] * lam[..., None, :, None])
    out.append(make_result("lc-j-derivative-pairing",
                           _in_frame(pair, B, B, B), p))

    # Reeb-slot specialisations of the same pairing; on distribution slots
    # the X term is paired with Jx, and g(X, Jx) = 0.
    r = max_residual(
        _in_frame(2.0 * np.einsum('...lba,...b->...la', gnj, X) + gl - G,
                  Bx, Bx),
        _in_frame(2.0 * np.einsum('...lba,...a->...lb', gnj, X) - gl + G,
                  Bx, Bx),
        _in_frame(pair, Bx, Bx, Bx))
    out.append(make_result("lc-j-derivative-reeb-slots", r, p))

    # Nijenhuis tensor with the Reeb field in a slot.  For a distribution
    # section Z, lam(X) = 1 and lam(Z) = 0 are constant, so lam([X, Z]) =
    # -d lam(X, Z), which is 0 since X -| d lam = 0.
    jl = dot(J, L)
    r = max_residual(
        _in_frame(np.einsum('...kij,...i->...kj', N, X) + jl, Lg, Bx),
        _in_frame(np.einsum('...kij,...j->...ki', N, X) - jl, Lg, Bx))
    out.append(make_result("nijenhuis-reeb-slots", r, p))

    # J-shuffles of the Nijenhuis tensor on distribution sections and their
    # J-images: J or Pi projects the X term away.  nyj[k, i, j] = N(e_i, J e_j).
    nyj = tail(N, J)
    r = max_residual(
        _in_frame(lead(J, nyj) - lead(P, N), Lg, Bx, Bx),
        _in_frame(lead(P, nyj + nyj.swapaxes(-1, -2)), Lg, Bx, Bx))
    out.append(make_result("nijenhuis-j-shuffle", r, p))

    # Antilinear cancellation of nabla^LC J.
    r = _in_frame(lead(P, njj) + jnj, Lg, Bx, Bx)
    out.append(make_result("lc-j-antilinear-cancellation", r, p))

    # J is Levi-Civita parallel in the Reeb direction: nabla^LC J along X.
    r = _worst(np.einsum('...abl,...l->...ab', nj, X), 2)
    out.append(make_result("lc-reeb-parallel-j", r, p))

    # Levi-Civita covariant derivative of the Reeb field on the distribution.
    m = dot(mlc - 0.5 * J - 0.5 * dot(L, J), P)
    out.append(make_result("lc-reeb-covariant-slope", _worst(m, 2), p))

    # J-linearity of the intermediate (parameter -1) connection on
    # distribution sections, as in axiom-hermitian.
    g_tmp = tmp.gamma_tensor(p)
    r = _j_defect(nabla_j(triad, g_tmp, p), P, Lg, B, Bx)
    out.append(make_result("semi-connection-j-linearity", r, p))

    # Metric skew property of the obstruction tensor P, as the table
    # tp[k, x, y] = P(e_x, e_y)^k; s[z, x, y] = <z, P(x, y)> + <y, P(x, z)>.
    tp = 0.25 * (njj + jnj + 2.0 * jnj.swapaxes(-1, -2))
    gp = lead(G, tp)
    out.append(make_result("p-tensor-metric-skew",
                           _in_frame(gp + gp.swapaxes(-1, -3), Bx, Bx, Bx), p))

    # Metric property and Reeb/metric duality of the intermediate
    # connection, as in axiom-hermitian and axiom-reeb-metric-dual.
    r_metric, r_dual = _metric_defects(nabla_metric(triad, g_tmp, p), X, B, Bx)
    out.append(make_result("semi-connection-metric", r_metric, p))
    out.append(make_result("semi-connection-reeb-metric-dual", r_dual, p))

    # The three drawn records, each on its own draws: quarter-N's Y and Z
    # (and a unit Reeb-slot draw u), torsion-split's Y and p-antisymmetrized's
    # Y and Z are the 5 * SAMPLES columns of one field, in one Jacobian pass.
    Wq = draws(triad, p, seed, "semi-connection-torsion-quarter-n",
               (d, 2 * SAMPLES + 1))
    Wt = draws(triad, p, seed, "torsion-split-values", (d, 2 * SAMPLES))
    Wp = draws(triad, p, seed, "p-antisymmetrized-bracket", (d, 2 * SAMPLES))
    jet = field_jet(triad, xi_section(triad, np.concatenate(
        [Wq[..., 1:], Wt[..., :SAMPLES], Wp], axis=-1)), p)
    (f, jf), (df, djf) = jet
    cols = [slice(k * SAMPLES, (k + 1) * SAMPLES) for k in range(5)]

    # Torsion of the intermediate connection: quarter Nijenhuis, no lam part.
    # N is taken from the brackets of the fields, apart from the table.
    u = Wq[..., 0] / np.linalg.norm(Wq[..., 0], axis=-1)[..., None]
    t = torsion_tensor(tmp, p, f[cols[0]], f[cols[1]])
    b_jj, b_yz, b_y_jz, b_jy_z = j_brackets(jet, cols[0], cols[1])
    n = b_jj - b_yz - matvec(J, b_y_jz) - matvec(J, b_jy_z)
    r = max_residual(_worst(matvec(P, t) - 0.25 * matvec(P, n)),
                     np.abs(inner(lam, t)))
    r = max_residual(_worst(torsion_tensor(tmp, p, X, u)), np.max(r, axis=0))
    out.append(make_result("semi-connection-torsion-quarter-n", r, p))

    # Covariant derivative of the Reeb field across the family, on the
    # table stacked over the sweep.
    sweep = TriadConnection(triad, c_values)
    c = _c_axis(sweep, p.ndim + 1)
    m = dot(_reeb_cov_matrix(sweep, p) + 0.5 * c * J - 0.5 * dot(L, J), P)
    out.append(make_result("reeb-covariant-family",
                           np.max(_worst(m, 2), axis=0), p))

    # Torsion split values across the family: the lam part as whole tables,
    # the Lie part on drawn sections.
    r = np.max(_in_frame(np.einsum('...k,...kij->...ij', lam, _torsion_table(
        sweep.gamma_tensor(p))) - (1.0 + c) * A, Bx, Bx), axis=0)
    # Only the Y draws are differentiated: Z is read at p.
    y = f[cols[2]]
    z = columns(xi_section(triad, Wt[..., SAMPLES:])(p))
    dJ = triad.jac_j_at(p)
    l_jy = lie_endo(jf[cols[2]], djf[cols[2]], J, dJ)
    l_y = lie_endo(y, df[cols[2]], J, dJ)
    lie_side = 0.25 * (matvec(l_jy, z) + matvec(l_y, matvec(J, z)))
    t0 = matvec(P, torsion_tensor(conn0, p, y, z))
    r = max_residual(r, np.max(_worst(t0 - lie_side), axis=0))
    out.append(make_result("torsion-split-values", r, p))

    # Type symmetries of the projected torsion; tjy[k, y, z] = Pi T(J e_y,
    # e_z) and tjz[k, y, z] = Pi T(e_y, J e_z).
    pt = lead(P, _torsion_table(conn0.gamma_tensor(p)))
    tjy = dot(J.mT[..., None, :, :], pt)
    tjz = tail(pt, J)
    r = max_residual(_in_frame(tjy - tjz, Lg, Bx, Bx),
                     _in_frame(lead(J, tjy) - pt, Lg, Bx, Bx))
    out.append(make_result("torsion-type-symmetries", r, p))

    # The antisymmetrisation of P as a bracket combination, on the brackets
    # of drawn fields: the field path, apart from the tables, in both modes.
    y, z = f[cols[3]], f[cols[4]]
    lhs = -tensor_P(triad, y, z, p) + tensor_P(triad, z, y, p)
    b_jj, b_yz, b_y_jz, b_jy_z = j_brackets(jet, cols[3], cols[4])
    rhs = 0.25 * (b_jj - matvec(P, b_yz) - matvec(J, b_jy_z)
                  - matvec(J, b_y_jz))
    out.append(make_result("p-antisymmetrized-bracket",
                           np.max(_worst(lhs - rhs), axis=0), p))

    # d lam is parallel along the Reeb direction for the canonical member.
    r = _worst(covariant_derivative_two_form(conn0, triad.dlam_any,
                                             triad.reeb_any, p), 2)
    out.append(make_result("reeb-parallel-two-form", r, p))

    return out


# -- fault injections ------------------------------------------------------


def fault_flipped_b1(triad: ContactTriad, p) -> CheckResult:
    """Quarter-Nijenhuis torsion residual of Christoffel - B1: the c = -1
    member, whose B2 weight is 0, with the first correction negated.

    On any triad with nonvanishing projected Nijenhuis tensor the residual
    equals half its norm, so the check must FAIL there.
    """
    p = np.asarray(p, dtype=float)
    gamma = triad.christoffel_at(p) - b1_table(triad, p)
    L, _, Bx = _frame(triad, p)
    # Pi projects away the X term of the sections' bracket form of N
    t = lead(triad.pi_any(p), _torsion_table(gamma)
             - 0.25 * triad.nijenhuis_at(p))
    return make_result("fault-flipped-correction", _in_frame(t, L, Bx, Bx), p)


def fault_wrong_c(triad: ContactTriad, p) -> CheckResult:
    """Parameter coupling of the c = 1 member against the c = 0 axiom,
    nabla_{J y} X + J nabla_y X = 0 on the distribution."""
    p = np.asarray(p, dtype=float)
    L, _, Bx = _frame(triad, p)
    r = _coupling_gap(_reeb_cov_matrix(TriadConnection(triad, 1.0), p),
                      triad.j_any(p), 0.0, L, Bx)
    return make_result("fault-wrong-family-parameter", r, p)


def fault_levi_civita(triad: ContactTriad, p) -> CheckResult:
    """J-linearity failure of the Levi-Civita connection.

    The Levi-Civita connection is torsion free, so it trivially passes the
    torsion axioms; what breaks is complex linearity of its projection, by
    exactly the projected derivative Pi (nabla^LC J) on the distribution.
    Needs a triad with non-parallel J (the perturbed examples) to produce a
    visible residual.
    """
    p = np.asarray(p, dtype=float)
    L, B, Bx = _frame(triad, p)
    r = _j_defect(triad.nabla_j_at(p), triad.pi_any(p), L, B, Bx)
    return make_result("fault-levi-civita-not-complex-linear", r, p)


def fault_scale_mismatch(triad: ContactTriad, a: float, p) -> CheckResult:
    """Residual between nabla^{a lam; 1} and the UNscaled parameter-1 member."""
    p = np.asarray(p, dtype=float)
    L, B, _ = _frame(triad, p)
    r = _gamma_gap(TriadConnection(triad.scaled(a), 1.0).gamma_tensor(p),
                   TriadConnection(triad, 1.0).gamma_tensor(p), 0.0, L, B)
    return make_result("fault-scale-mismatch", r, p)
