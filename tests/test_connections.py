"""Levi-Civita and the one-parameter connection family against independent oracles."""

import numpy as np

import pytest

from triadlab import (DiffEngine, LeviCivitaConnection, catalog,
                      perturbed_triad, standard_triad, triad_connection)
from triadlab.checks import _reeb_cov_matrix, pullback_triad
from triadlab.connections import (
    PullbackConnection,
    TriadConnection,
    _lc_nabla_j,
    covariant_derivative_endo,
    covariant_derivative_form,
    nabla_j,
    nabla_lam,
    nabla_metric,
    nijenhuis,
    tensor_B1,
    tensor_B2,
    torsion_tensor,
)

from triadlab.engine import dot, inner, matvec

from oracles import (const_field, cr_form_xi, j_field, j_linearity,
                     koszul_lc_pairing, metric_defect, numpy_field_rng, pair,
                     pullback_apply, reeb_coupling, reeb_metric_dual, torsion,
                     xi_field, xi_vector)

_CAT = catalog()


def _pair(triad, p, rng):
    return xi_vector(triad, p, rng), xi_vector(triad, p, rng)


# -- Levi-Civita ------------------------------------------------------------


def test_lc_against_koszul_oracle():
    """Christoffel route vs the six-term formula, three triads, random slots."""
    for ex_id in ("r3-standard", "t3-tight", "r5-perturbed-J"):
        t = _CAT[ex_id].build()
        lc = LeviCivitaConnection(t)
        rng = np.random.default_rng(12)
        for p in t.sample_points(2, seed=10):
            G = t.metric_any(p)
            for _ in range(4):
                u, v, w = (rng.standard_normal(t.dim) for _ in range(3))
                direct = lc.gamma_apply(p, u, v) @ G @ w
                oracle = koszul_lc_pairing(t, u, v, w, p)
                assert abs(direct - oracle) < 1e-8, ex_id


def test_lc_frozen_value_r3():
    t = standard_triad(1)
    for y in (0.3, -1.1):
        p = np.array([0.2, y, 0.5])
        got = LeviCivitaConnection(t).gamma_apply(
            p, np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        assert np.max(np.abs(got - np.array([-0.5, 0.0, -y / 2.0]))) < 1e-12


def test_lc_torsion_free_and_metric():
    t = _CAT["r3-perturbed-J"].build()
    lc = LeviCivitaConnection(t)
    rng = np.random.default_rng(3)
    for p in t.sample_points(3, seed=30):
        G_fun = t.metric_any
        for _ in range(3):
            u = rng.standard_normal(3)
            v = rng.standard_normal(3)
            w = rng.standard_normal(3)
            assert np.max(np.abs(torsion_tensor(lc, p, u, v))) < 1e-11
            lhs = t.engine.deriv(lambda q: v @ G_fun(q) @ w, p, u)
            rhs = (lc.gamma_apply(p, u, v) @ t.metric_any(p) @ w
                   + v @ t.metric_any(p) @ lc.gamma_apply(p, u, w))
            assert abs(lhs - rhs) < 1e-10


def test_lc_reeb_orbit_geodesic():
    """nabla^LC_X X = 0 and nabla^LC_Y X = (JY + (L J)Y)/2 on the plane."""
    for ex_id in ("r3-standard", "t3-tight", "r5-perturbed-J"):
        t = _CAT[ex_id].build()
        lc = LeviCivitaConnection(t)
        rng = np.random.default_rng(7)
        for p in t.sample_points(2, seed=40):
            X = t.reeb_any(p)
            assert np.max(np.abs(lc.apply_vec(X, t.reeb_any, p))) < 1e-10, ex_id
            J = t.j_any(p)
            L = t.lie_reeb_j_at(p)
            for _ in range(3):
                y = xi_vector(t, p, rng)
                got = lc.apply_vec(y, t.reeb_any, p)
                want = 0.5 * (J @ y) + 0.5 * (L @ (J @ y))
                assert np.max(np.abs(got - want)) < 1e-9, ex_id


def test_lc_reeb_j_parallel_on_standard():
    t = standard_triad(1)
    lc = LeviCivitaConnection(t)
    p = np.array([0.7, -0.4, 0.2])
    got = covariant_derivative_endo(lc, t.j_any, const_field(t.reeb_any(p)), p)
    assert np.max(np.abs(got)) < 1e-11


# -- family members ---------------------------------------------------------


def test_family_metric_compatible_for_many_c():
    for ex_id in ("r3-standard", "r3-perturbed-J"):
        t = _CAT[ex_id].build()
        rng = np.random.default_rng(19)
        for c in (-1.0, 0.0, 1.0, 2.5):
            conn = triad_connection(t, c)
            p = t.sample_points(1, seed=50)[0]
            for _ in range(4):
                u = rng.standard_normal(3)
                v = rng.standard_normal(3)
                w = rng.standard_normal(3)
                lhs = t.engine.deriv(lambda q: v @ t.metric_any(q) @ w, p, u)
                rhs = (conn.gamma_apply(p, u, v) @ t.metric_any(p) @ w
                       + v @ t.metric_any(p) @ conn.gamma_apply(p, u, w))
                assert abs(lhs - rhs) < 1e-10, (ex_id, c)


@pytest.mark.parametrize("mode", ["ad", "fd"])
@pytest.mark.parametrize("ex_id", sorted(_CAT))
def test_each_slice_of_the_stacked_table_is_the_one_c_table(ex_id, mode):
    """A sweep's table stacks the one-c tables bit for bit, at a point and
    at a batch, and sits under its own store tag."""
    t = _CAT[ex_id].build(DiffEngine(mode))
    pts = t.sample_points(3, seed=8)
    cs = (-1.0, 0.0, 1.0, 0.25)
    for p in (pts[0], pts):
        table = TriadConnection(t, cs).gamma_tensor(p)
        assert table.shape == (len(cs),) + p.shape[:-1] + (t.dim,) * 3
        for k, c in enumerate(cs):
            one = TriadConnection(t, c).gamma_tensor(p)
            assert one.shape == p.shape[:-1] + (t.dim,) * 3
            assert table[k].tobytes() == one.tobytes(), c
        alone = TriadConnection(t, (0.0,)).gamma_tensor(p)
        assert alone.shape == (1,) + table.shape[1:]
        assert alone[0].tobytes() == table[1].tobytes()


@pytest.mark.parametrize("mode", ["ad", "fd"])
@pytest.mark.parametrize("ex_id", sorted(_CAT))
def test_pullback_table_matches_the_pushed_fields(ex_id, mode):
    """On every catalog map, the pulled-back table applied to a constant
    field and a distribution section matches pushing the field through the
    map, differentiating it there and pulling the result back."""
    spec = _CAT[ex_id]
    t = spec.build(DiffEngine(mode))
    rng = np.random.default_rng(23)
    bound = 1e-13 if mode == "ad" else 1e-10
    for cmap in spec.maps:
        pulled = pullback_triad(t, cmap)
        base = triad_connection(t, 0.0)
        through = PullbackConnection(base, cmap, pulled)
        for p in t.sample_points(2, seed=24):
            for Yf in (const_field(rng.standard_normal(t.dim)),
                       xi_field(pulled, rng.standard_normal(t.dim))):
                u = rng.standard_normal(t.dim)
                got = through.apply_vec(u, Yf, p)
                want = pullback_apply(base, cmap, u, Yf, p)
                assert np.max(np.abs(got - want)) <= bound, \
                    (cmap.label, np.max(np.abs(got - want)))


@pytest.mark.parametrize("ex_id", sorted(_CAT))
def test_nabla_tables_match_the_sampled_field_forms(ex_id):
    """At a 3-point ``ad`` batch, the tables of nabla J, nabla g and
    nabla lam, the Reeb covariant matrix and the torsion table, contracted
    with drawn vectors, give the sampled field forms that the axioms,
    ``cr-form``, the semi-connection records and the controls read from them,
    for three family members and the Levi-Civita connection."""
    t = _CAT[ex_id].build(DiffEngine("ad"))
    pts = t.sample_points(3, seed=25)
    rng = np.random.default_rng(26)
    d = t.dim
    J, P, X, lam = t.j_any(pts), t.pi_any(pts), t.reeb_any(pts), t.lam_any(pts)
    reeb = t.reeb_any
    lc = LeviCivitaConnection(t)
    assert (nabla_j(t, lc.gamma_tensor(pts), pts).tobytes()
            == t.nabla_j_at(pts).tobytes())
    for conn in [triad_connection(t, c) for c in (-1.0, 0.0, 1.0)] + [lc]:
        gamma = conn.gamma_tensor(pts)
        nj, ng = nabla_j(t, gamma, pts), nabla_metric(t, gamma, pts)
        nl = nabla_lam(t, gamma, pts)
        M = _reeb_cov_matrix(conn, pts)
        T = gamma - gamma.swapaxes(-1, -2)
        for _ in range(2):
            u, w = rng.standard_normal((3, d)), rng.standard_normal(d)
            Yf, Zf = (xi_field(t, rng.standard_normal((3, d)))
                      for _ in range(2))
            y, z, v = Yf(pts), Zf(pts), xi_vector(t, pts, rng)
            Jy, Jz = j_field(t, Yf), j_field(t, Zf)
            pairs = {
                "j-linearity": (
                    matvec(P, np.einsum('...abl,...b,...l->...a', nj, y, u)),
                    j_linearity(conn, u, Yf, pts)),
                "metric": (
                    np.einsum('...abl,...a,...b,...l->...', ng, y, z, u),
                    metric_defect(conn, u, Yf, Zf, pts)),
                "reeb-metric-dual": (
                    -np.einsum('...abl,...a,...b,...l->...', ng, X, z, v),
                    reeb_metric_dual(conn, v, Zf, pts)),
                "coupling": (matvec(dot(M, J) + dot(J, M), v),
                             reeb_coupling(conn, v, pts)),
                "reeb-invariance": (
                    inner(lam, matvec(M, v)),
                    inner(lam, conn.apply_vec(v, reeb, pts))),
                "reeb-geodesic": (matvec(M, X),
                                  conn.apply_vec(X, reeb, pts)),
                "cr-form-reeb": (matvec(nl, X), covariant_derivative_form(
                    conn, t.lam_any, reeb, pts)),
                "cr-form-xi": (matvec(nl + dot(J.mT, dot(nl, J)), y),
                               cr_form_xi(conn, Yf, pts)),
                "xi-torsion": (
                    matvec(P, np.einsum('...kij,...i,...j->...k', T,
                                        matvec(J, y), z)
                           + np.einsum('...kij,...i,...j->...k', T,
                                       matvec(J, z), y)),
                    matvec(P, torsion(conn, Jy, Zf, pts)
                           + torsion(conn, Jz, Yf, pts))),
                "reeb-torsion": (
                    np.einsum('...kij,...i,...j->...k', T, X,
                              np.broadcast_to(w, X.shape)),
                    torsion(conn, reeb, const_field(w), pts)),
            }
            for name, (table, field) in pairs.items():
                gap = np.max(np.abs(table - np.asarray(field, dtype=float)))
                assert gap <= 1e-12, (ex_id, conn.table_tag, name, gap)


def test_first_stage_is_family_at_minus_one():
    for ex_id in ("r3-standard", "r5-perturbed-J", "t3-tight"):
        t = _CAT[ex_id].build()
        a = triad_connection(t, -1.0)
        b = triad_connection(t, -1.0)
        rng = np.random.default_rng(4)
        for p in t.sample_points(3, seed=60):
            for _ in range(3):
                u = rng.standard_normal(t.dim)
                v = rng.standard_normal(t.dim)
                diff = a.gamma_apply(p, u, v) - b.gamma_apply(p, u, v)
                assert np.max(np.abs(diff)) < 1e-12, ex_id


def test_second_correction_closed_values():
    """Slot-by-slot values of the c-dependent correction tensor."""
    t = _CAT["r3-perturbed-J"].build()
    p = t.sample_points(1, seed=70)[0]
    X = t.reeb_any(p)
    G = t.metric_any(p)
    J = t.j_any(p)
    rng = np.random.default_rng(5)
    for c in (-1.0, 0.0, 1.0, 3.0):
        w = 0.5 * (1.0 + c)
        assert np.max(np.abs(tensor_B2(t, c, X, X, p))) < 1e-13
        y, z = _pair(t, p, rng)
        want_yz = w * float(J @ y @ G @ z) * X
        assert np.max(np.abs(tensor_B2(t, c, y, z, p) - want_yz)) < 1e-12
        want_yx = -w * (J @ y)
        assert np.max(np.abs(tensor_B2(t, c, y, X, p) - want_yx)) < 1e-12
        assert np.max(np.abs(tensor_B2(t, c, X, y, p) - want_yx)) < 1e-12


def test_first_correction_plane_valued_and_skew():
    t = _CAT["r5-perturbed-J"].build()
    p = t.sample_points(1, seed=71)[0]
    G = t.metric_any(p)
    lam = t.lam_any(p)
    rng = np.random.default_rng(6)
    for _ in range(4):
        u = rng.standard_normal(t.dim)
        v = rng.standard_normal(t.dim)
        w = rng.standard_normal(t.dim)
        b_uv = tensor_B1(t, u, v, p)
        assert abs(lam @ b_uv) < 1e-12
        skew = b_uv @ G @ w + tensor_B1(t, u, w, p) @ G @ v
        assert abs(skew) < 1e-11


def test_torsion_lambda_part_counts_the_parameter():
    for ex_id in ("r3-standard", "t3-tight", "r5-perturbed-J"):
        t = _CAT[ex_id].build()
        rng = numpy_field_rng(2, "torsion", ex_id)
        for c in (-1.0, 0.0, 1.0):
            conn = triad_connection(t, c)
            p = t.sample_points(1, seed=80)[0]
            lam = t.lam_any(p)
            D = t.dlam_any(p)
            for _ in range(4):
                y, z = _pair(t, p, rng)
                lt = lam @ torsion_tensor(conn, p, y, z)
                assert abs(lt - (1.0 + c) * float(y @ D @ z)) < 1e-10, (ex_id, c)


def test_reeb_torsion_slots_vanish():
    for ex_id in ("r3-standard", "r5-perturbed-J"):
        t = _CAT[ex_id].build()
        conn = triad_connection(t, 1.0)
        p = t.sample_points(1, seed=81)[0]
        X = t.reeb_any(p)
        rng = np.random.default_rng(14)
        for _ in range(4):
            u = rng.standard_normal(t.dim)
            assert np.max(np.abs(torsion_tensor(conn, p, X, u))) < 1e-10, ex_id


def test_quarter_nijenhuis_at_minus_one():
    """Plane torsion of the first stage equals a quarter of the plane Nijenhuis."""
    for ex_id in ("r5-perturbed-J", "r5-standard", "t3-tight"):
        t = _CAT[ex_id].build()
        conn = triad_connection(t, -1.0)
        rng = np.random.default_rng(23)
        for p in t.sample_points(2, seed=90):
            P = t.pi_any(p)
            lam = t.lam_any(p)
            for _ in range(3):
                y, z = _pair(t, p, rng)
                tors = torsion_tensor(conn, p, y, z)
                nij = nijenhuis(t, pair(const_field(y), const_field(z)), p)[0]
                assert np.max(np.abs(P @ tors - 0.25 * (P @ nij))) < 1e-8, ex_id
                assert abs(lam @ tors) < 1e-10, ex_id


def test_torsion_extension_independent():
    """T is a tensor: wildly different extensions of the same vectors agree."""
    t = _CAT["r3-perturbed-J"].build()
    conn = triad_connection(t, 0.0)
    p = t.sample_points(1, seed=91)[0]
    rng = np.random.default_rng(9)
    for _ in range(3):
        y = rng.standard_normal(3)
        z = rng.standard_normal(3)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3))

        def yf(q, y=y, A=A):
            return y + A @ (q - p)

        def zf(q, z=z, B=B):
            return z + B @ (q - p)

        via_fields = torsion(conn, yf, zf, p)
        via_tensor = torsion_tensor(conn, p, y, z)
        assert np.max(np.abs(via_fields - via_tensor)) < 1e-9


def test_reeb_covariant_derivative_family_formula():
    for ex_id in ("r3-standard", "r3-perturbed-J", "t3-tight"):
        t = _CAT[ex_id].build()
        rng = np.random.default_rng(11)
        p = t.sample_points(1, seed=92)[0]
        J = t.j_any(p)
        L = t.lie_reeb_j_at(p)
        X = t.reeb_any(p)
        for c in (-1.0, 0.0, 1.0):
            conn = triad_connection(t, c)
            assert np.max(np.abs(conn.apply_vec(X, t.reeb_any, p))) < 1e-10
            for _ in range(3):
                y = xi_vector(t, p, rng)
                got = conn.apply_vec(y, t.reeb_any, p)
                want = -0.5 * c * (J @ y) + 0.5 * (L @ (J @ y))
                assert np.max(np.abs(got - want)) < 1e-9, (ex_id, c)


def test_reeb_derivative_vanishes_on_standard_at_zero():
    t = standard_triad(1)
    conn = triad_connection(t, 0.0)
    rng = np.random.default_rng(2)
    p = np.array([0.3, 0.8, -0.5])
    for _ in range(4):
        y = xi_vector(t, p, rng)
        assert np.max(np.abs(conn.apply_vec(y, t.reeb_any, p))) < 1e-12


# -- Nijenhuis tensor -------------------------------------------------------


def test_nijenhuis_rank_two_plane_collapses():
    t = perturbed_triad(1, 0.1)
    rng = np.random.default_rng(18)
    for p in t.sample_points(3, seed=94):
        y = xi_vector(t, p, rng)
        jy = t.j_any(p) @ y
        val = nijenhuis(t, pair(const_field(y), const_field(jy)), p)[0]
        assert np.max(np.abs(t.pi_any(p) @ val)) < 1e-10


def test_nijenhuis_reeb_slot_identity():
    """N(X, Z) = -J (L J) Z ... equivalently N(X,Z) + J(LJ)Z = 0 on the plane."""
    for ex_id in ("t3-tight", "r5-perturbed-J"):
        t = _CAT[ex_id].build()
        rng = np.random.default_rng(25)
        p = t.sample_points(1, seed=95)[0]
        J = t.j_any(p)
        L = t.lie_reeb_j_at(p)
        X = t.reeb_any(p)
        for _ in range(3):
            z = xi_vector(t, p, rng)
            val = nijenhuis(t, pair(t.reeb_any, const_field(z)), p)[0]
            assert np.max(np.abs(val + J @ (L @ z))) < 1e-8, ex_id


def _table_n(t, p, y, z):
    return np.einsum('kij,i,j->k', t.nijenhuis_at(p), y, z)


def test_nijenhuis_table_matches_the_brackets_of_fields():
    """N(y, z) from the table is the bracket form on constant fields; on the
    distribution sections Pi wy, Pi wz the bracket form adds d lam(y, z) X,
    since lam([Y, Z]) = -d lam(Y, Z) there, and with the Reeb field in a
    slot it adds nothing."""
    for ex_id, spec in _CAT.items():
        t = spec.build()
        rng = np.random.default_rng(61)
        for p in t.sample_points(2, seed=62):
            X = t.reeb_any(p)
            for _ in range(3):
                y, z = rng.standard_normal(t.dim), rng.standard_normal(t.dim)
                got = nijenhuis(t, pair(const_field(y), const_field(z)), p)[0]
                assert np.max(np.abs(got - _table_n(t, p, y, z))) < 1e-13

                Yf, Zf = xi_field(t, y), xi_field(t, z)
                py, pz = Yf(p), Zf(p)
                want = _table_n(t, p, py, pz) + (py @ t.dlam_any(p) @ pz) * X
                got = nijenhuis(t, pair(Yf, Zf), p)[0]
                assert np.max(np.abs(got - want)) < 1e-13, ex_id

                got = nijenhuis(t, pair(t.reeb_any, Zf), p)[0]
                assert np.max(np.abs(got - _table_n(t, p, X, pz))) < 1e-13


def test_lc_nabla_j_table_is_the_covariant_derivative_of_j():
    for ex_id, spec in _CAT.items():
        t = spec.build()
        lc = LeviCivitaConnection(t)
        rng = np.random.default_rng(63)
        for p in t.sample_points(2, seed=64):
            for _ in range(3):
                u = rng.standard_normal(t.dim)
                want = covariant_derivative_endo(lc, t.j_any,
                                                 const_field(u), p)
                got = _lc_nabla_j(t, u, p)
                assert np.max(np.abs(got - want)) < 1e-13, ex_id


def test_nijenhuis_plane_symmetries():
    t = _CAT["r5-perturbed-J"].build()
    rng = np.random.default_rng(33)
    p = t.sample_points(1, seed=96)[0]
    P = t.pi_any(p)
    J = t.j_any(p)
    for _ in range(4):
        y, z = _pair(t, p, rng)
        n_yz = nijenhuis(t, pair(const_field(y), const_field(z)), p)[0]
        n_yjz = nijenhuis(t, pair(const_field(y), const_field(J @ z)), p)[0]
        n_zjy = nijenhuis(t, pair(const_field(z), const_field(J @ y)), p)[0]
        assert np.max(np.abs(J @ (P @ n_yjz) - P @ n_yz)) < 1e-8
        assert np.max(np.abs(P @ n_yjz + P @ n_zjy)) < 1e-8


# -- covariant derivatives of tensors ---------------------------------------


def test_family_parallel_structures():
    """J, the projector, the metric and both forms ride flat along the family."""
    t = _CAT["r3-perturbed-J"].build()
    conn = triad_connection(t, 0.0)
    p = t.sample_points(1, seed=97)[0]
    rng = np.random.default_rng(41)
    for _ in range(3):
        u = rng.standard_normal(3)
        dj = covariant_derivative_endo(conn, t.j_any, const_field(u), p)
        ppart = t.pi_any(p) @ dj @ t.pi_any(p)
        assert np.max(np.abs(ppart)) < 1e-9


def test_form_derivative_leibniz_consistency():
    t = standard_triad(1)
    conn = triad_connection(t, 1.0)
    p = np.array([-0.2, 0.6, 0.9])
    rng = np.random.default_rng(52)
    for _ in range(3):
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        alpha_cov = covariant_derivative_form(conn, t.lam_any, const_field(u), p)
        direct = (t.engine.deriv(lambda q: t.lam_any(q) @ v, p, u)
                  - t.lam_any(p) @ conn.gamma_apply(p, u, v))
        assert abs(alpha_cov @ v - direct) < 1e-11
