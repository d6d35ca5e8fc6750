"""Acceptance battery.

Twelve top-level criteria, one test per criterion; the verbose pytest line of
each test is its pass/fail verdict.  Every test also prints a one-line summary
(visible under ``pytest -s``) with the worst residual it observed.

Criterion 8 is checked in amended form: the literal coefficient identity
between the rescaled-form connection at parameter one and the base connection
at the scale parameter holds only on the contact plane and the Reeb slots;
the components along the Reeb direction differ by a closed-form offset.  The
test pins the full amended law (plane agreement, Reeb-slot agreement, and the
exact offset) and keeps a control showing the naive identification fails.
"""

import time

import numpy as np

from triadlab import DiffEngine, catalog
from triadlab.checks import (
    CHECKS,
    check_axioms,
    check_cr_form,
    check_lemma_suite,
    check_naturality,
    check_scaling,
    fault_flipped_b1,
    fault_levi_civita,
    fault_scale_mismatch,
    fault_wrong_c,
    _frame,
    _in_frame,
    pullback_triad,
)
from triadlab.connections import (
    LeviCivitaConnection,
    PullbackConnection,
    nijenhuis,
    tensor_B1,
    triad_connection,
)
from triadlab.frames import build_unitary_frame, cross_check_gamma

from oracles import (column, j_field, lie_derivative_endo, numpy_field_rng,
                     pair, torsion, xi_field)

_CAT = catalog()


def _report(num, detail):
    print("criterion %02d PASS  %s" % (num, detail))


def test_criterion_01_axioms_hold_on_every_example():
    """Six defining properties of the zero-parameter connection, twenty
    points per example, inside ten seconds of wall time."""
    t0 = time.perf_counter()
    worst = 0.0
    for ex_id, spec in _CAT.items():
        t = spec.build()
        for p in t.sample_points(20, seed=1001):
            for res in check_axioms(t, (0.0,), p)[0]:
                assert res.residual <= 1e-8, (ex_id, res.name, res.residual)
                worst = max(worst, res.residual)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, elapsed
    _report(1, "worst residual %.2e (tol 1e-8), %d examples x 20 points, "
            "%.1fs" % (worst, len(_CAT), elapsed))


def test_criterion_02_axioms_hold_across_parameter_family():
    worst = 0.0
    for ex_id, spec in _CAT.items():
        t = spec.build()
        for p in t.sample_points(4, seed=1002):
            for c in (-1.0, 0.0, 1.0):
                for res in check_axioms(t, (c,), p)[0]:
                    assert res.residual <= 1e-8, (ex_id, c, res.name)
                    worst = max(worst, res.residual)
    _report(2, "worst residual %.2e (tol 1e-8), c in {-1,0,1}" % worst)


def test_criterion_03_frame_coefficients_rederive_identically():
    """Connection coefficients recomputed from the defining properties alone
    (metric pairing + torsion prescription in a unitary frame) must agree
    with the closed-form construction."""
    worst = 0.0
    for ex_id, spec in _CAT.items():
        t = spec.build()
        for i, p in enumerate(t.sample_points(2, seed=1003)):
            frame = build_unitary_frame(t, p, seed=i)
            for c in (-1.0, 0.0, 1.0):
                disc = cross_check_gamma(t, c, frame, p)
                assert disc <= 1e-7, (ex_id, c, disc)
                worst = max(worst, disc)
    _report(3, "worst discrepancy %.2e (tol 1e-7), independent rederivation"
            % worst)


def test_criterion_04_minus_one_connection_drops_second_correction():
    """At parameter minus one the connection is exactly metric + first
    correction, and its plane torsion is a quarter of the plane Nijenhuis
    tensor."""
    worst_coeff = 0.0
    worst_quarter = 0.0
    for ex_id in ("r3-standard", "t3-tight", "r5-perturbed-J", "r9-standard"):
        t = _CAT[ex_id].build()
        tmp = triad_connection(t, -1.0)
        lc = LeviCivitaConnection(t)
        rng = numpy_field_rng(4, "accept-tmp", ex_id)
        for p in t.sample_points(2, seed=1004):
            for _ in range(4):
                u = rng.standard_normal(t.dim)
                v = rng.standard_normal(t.dim)
                diff = tmp.gamma_apply(p, u, v) - (
                    lc.gamma_apply(p, u, v) + tensor_B1(t, u, v, p))
                d = float(np.max(np.abs(diff)))
                assert d <= 1e-12, (ex_id, d)
                worst_coeff = max(worst_coeff, d)
            Pi = t.pi_any(p)
            for _ in range(3):
                Yf = xi_field(t, rng.standard_normal(t.dim))
                Zf = xi_field(t, rng.standard_normal(t.dim))
                q = Pi @ torsion(tmp, Yf, Zf, p) - 0.25 * (
                    Pi @ nijenhuis(t, pair(Yf, Zf), p)[0])
                d = float(np.max(np.abs(q)))
                assert d <= 1e-7, (ex_id, d)
                worst_quarter = max(worst_quarter, d)
    _report(4, "coefficient gap %.2e (tol 1e-12), quarter-Nijenhuis gap "
            "%.2e (tol 1e-7)" % (worst_coeff, worst_quarter))


def test_criterion_05_torsion_splits_into_form_and_plane_parts():
    """Contact-form component (1+c) times the two-form; plane component a
    quarter of the symmetrized Lie-derivative expression."""
    worst_form = 0.0
    worst_plane = 0.0
    for ex_id, spec in _CAT.items():
        t = spec.build()
        eng = t.engine
        rng = numpy_field_rng(5, "accept-torsion", ex_id)
        p = t.sample_points(1, seed=1005)[0]
        lam = t.lam_any(p)
        Pi = t.pi_any(p)
        J = t.j_any(p)
        dlam = t.dlam_any(p)
        for c in (-1.0, 0.0, 1.0):
            conn = triad_connection(t, c)
            for _ in range(3):
                Yf = xi_field(t, rng.standard_normal(t.dim))
                Zf = xi_field(t, rng.standard_normal(t.dim))
                T = torsion(conn, Yf, Zf, p)
                form_gap = abs(float(lam @ T)
                               - (1.0 + c) * float(Yf(p) @ dlam @ Zf(p)))
                assert form_gap <= 1e-8, (ex_id, c, form_gap)
                worst_form = max(worst_form, form_gap)
                L_jy, L_y = (lie_derivative_endo(
                    eng, column(F), J, t.jac_j_at(p), p)[0]
                    for F in (j_field(t, Yf), Yf))
                plane = Pi @ T - 0.25 * (L_jy @ Zf(p) + L_y @ (J @ Zf(p)))
                plane_gap = float(np.max(np.abs(plane)))
                assert plane_gap <= 1e-7, (ex_id, c, plane_gap)
                worst_plane = max(worst_plane, plane_gap)
    _report(5, "form part %.2e (tol 1e-8), plane part %.2e (tol 1e-7)"
            % (worst_form, worst_plane))


def test_criterion_06_reeb_covariant_derivative_formula():
    worst = 0.0
    for ex_id, spec in _CAT.items():
        t = spec.build()
        rng = numpy_field_rng(6, "accept-reeb", ex_id)
        p = t.sample_points(1, seed=1006)[0]
        J = t.j_any(p)
        L = t.lie_reeb_j_at(p)
        for c in (-1.0, 0.0, 1.0):
            conn = triad_connection(t, c)
            for _ in range(3):
                y = t.pi_any(p) @ rng.standard_normal(t.dim)
                assert abs(float(t.lam_any(p) @ y)) <= 1e-12, (ex_id, c)
                resid = (conn.apply_vec(y, t.reeb_any, p)
                         + 0.5 * c * (J @ y) - 0.5 * (L @ (J @ y)))
                d = float(np.max(np.abs(resid)))
                assert d <= 1e-7, (ex_id, c, d)
                worst = max(worst, d)
    _report(6, "worst residual %.2e (tol 1e-7), c in {-1,0,1}" % worst)


def test_criterion_07_contact_form_parallel_only_at_zero():
    """The form is parallel for the zero parameter; at parameter one the
    plane component of its covariant derivative must visibly fail."""
    worst = 0.0
    least_defect = np.inf
    for ex_id, spec in _CAT.items():
        t = spec.build()
        p = t.sample_points(1, seed=1007)[0]
        reeb, xi = check_cr_form(t, (0.0,), p)[0]
        assert reeb.residual <= 1e-8 and xi.residual <= 1e-8, ex_id
        worst = max(worst, reeb.residual, xi.residual)
        _, xi_bad = check_cr_form(t, (1.0,), p)[0]
        assert xi_bad.residual >= 1e-3, (ex_id, xi_bad.residual)
        least_defect = min(least_defect, xi_bad.residual)
    _report(7, "parallel residual %.2e (tol 1e-8); c=1 defect >= %.2e "
            "(control fails as required)" % (worst, least_defect))


def test_criterion_08_scaling_transfer_amended_law():
    """(amended: Reeb-component offset pinned to closed form)  Rescaling the
    form and moving the parameter agree on the plane and on every Reeb slot;
    the leftover Reeb component equals its closed-form expression exactly."""
    worst = 0.0
    for ex_id in ("r3-standard", "r3-perturbed-J"):
        t = _CAT[ex_id].build()
        p = t.sample_points(1, seed=1008)[0]
        for a in (2.0, 0.5):
            res = check_scaling(t, a, p)
            assert res.residual <= 1e-7, (ex_id, a, res.residual)
            worst = max(worst, res.residual)
        exact = check_scaling(t, 1.0, p)
        assert exact.residual <= 1e-12, (ex_id, exact.residual)
        naive = fault_scale_mismatch(t, 2.0, p)
        assert naive.residual >= 1e-3, (ex_id, naive.residual)
    _report(8, "(amended) transfer law %.2e (tol 1e-7); naive "
            "identification fails by >= 1e-3 as expected" % worst)


def _pullback_gap(table, pulled, p):
    """Largest entry of ``table`` minus the pulled triad's Gamma^0, in the
    pulled triad's g-orthonormal frame, as ``check_naturality`` reads it."""
    L, B, _ = _frame(pulled, p)
    diff = table - triad_connection(pulled, 0.0).gamma_tensor(p)
    return _in_frame(diff, L, B, B)


def test_criterion_09_naturality_under_strict_maps():
    """phi^* nabla^c is the connection of the pulled triad; the check sees
    a base connection at another c on every map, and a pulled-back table
    that drops the map's second derivative on the Reeb flow: its gap is
    that term, M^-1 d M, at every point."""
    worst = 0.0
    count = 0
    for ex_id, spec in _CAT.items():
        t = spec.build()
        for p in t.sample_points(2, seed=1009):
            for cmap in spec.maps:
                res = check_naturality(t, cmap, 0.0, p)
                assert res.residual <= 1e-7, (ex_id, cmap.label, res.residual)
                worst = max(worst, res.residual)
                count += 1
    t = _CAT["r3-standard"].build()
    p = t.sample_points(1, seed=1009)[0]
    res = check_naturality(t, _CAT["r3-standard"].maps[0], 1.0, p)
    assert res.residual <= 1e-7
    worst = max(worst, res.residual)

    wrong_c, no_dm = np.inf, np.inf
    for mode in ("ad", "fd"):
        for ex_id, spec in _CAT.items():
            t = spec.build(DiffEngine(mode))
            pts = t.sample_points(2, seed=1009)
            for cmap in spec.maps:
                pulled = pullback_triad(t, cmap)
                at_one = PullbackConnection(triad_connection(t, 1.0), cmap,
                                            pulled)
                r = np.min(_pullback_gap(at_one.gamma_tensor(pts), pulled,
                                         pts))
                assert r >= 0.4, (mode, ex_id, cmap.label, r)
                wrong_c = min(wrong_c, r)
        t = _CAT["t3-tight"].build(DiffEngine(mode))
        pts = t.sample_points(2, seed=1009)
        flow = _CAT["t3-tight"].maps[2]
        pulled = pullback_triad(t, flow)
        M, M_inv = flow.differential(pts), np.linalg.inv(flow.differential(pts))
        G = triad_connection(t, 0.0).gamma_tensor(flow.forward(pts))
        table = np.einsum('...ka,...abc,...bi,...cj->...kij', M_inv, G, M, M)
        r = _pullback_gap(table, pulled, pts)
        # the pulled-back table less this one is M^-1 d_i M, read in the
        # pulled triad's frame, so that is the gap
        dM = t.engine.jacobian(flow.differential, pts).swapaxes(-1, -2)
        L, B, _ = _frame(pulled, pts)
        want = _in_frame(np.einsum('...ka,...aij->...kij', M_inv, dM), L, B, B)
        assert np.allclose(r, want, rtol=1e-9, atol=0), (mode, r, want)
        assert np.all(r > CHECKS["naturality-pullback"].tolerance), (mode, r)
        no_dm = min(no_dm, np.min(r))
    _report(9, "worst pullback gap %.2e (tol 1e-7) over %d map checks; a "
            "base at c = 1 reads >= %.3f, a table without d(dphi) %.3f on "
            "the Reeb flow" % (worst, count + 1, wrong_c, no_dm))


def test_criterion_10_identity_suite_all_examples():
    t0 = time.perf_counter()
    worst = 0.0
    total = 0
    for ex_id, spec in _CAT.items():
        t = spec.build()
        for p in t.sample_points(3, seed=1010):
            for res in check_lemma_suite(t, p, seed=10):
                assert res.residual <= 1e-7, (ex_id, res.name, res.residual)
                worst = max(worst, res.residual)
                total += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, elapsed
    _report(10, "%d identity evaluations, worst %.2e (tol 1e-7), %.1fs"
            % (total, worst, elapsed))


def test_criterion_11_fault_injections_fire():
    t5 = _CAT["r5-perturbed-J"].build()
    p5 = t5.sample_points(1, seed=1011)[0]
    t3 = _CAT["r3-standard"].build()
    p3 = t3.sample_points(1, seed=1011)[0]
    flipped = fault_flipped_b1(t5, p5).residual
    wrong = fault_wrong_c(t3, p3).residual
    lc = fault_levi_civita(t5, p5).residual
    assert flipped >= 1e-3, flipped
    assert wrong >= 1e-3, wrong
    assert lc >= 1e-3, lc
    _report(11, "flipped-correction %.2e, wrong-parameter %.2e, "
            "plain-metric-connection %.2e (all >= 1e-3)"
            % (flipped, wrong, lc))


def test_criterion_12_dual_engine_coefficient_agreement():
    """Forward-mode and finite-difference builds of every connection agree
    on the full coefficient table at ten points per example."""
    fd = DiffEngine(mode="fd", step=1e-4)
    worst = 0.0
    for ex_id, spec in _CAT.items():
        t_ad = spec.build()
        t_fd = spec.build(engine=fd)
        for p in t_ad.sample_points(10, seed=1012):
            pairs = [(c, triad_connection(t_ad, c), triad_connection(t_fd, c))
                     for c in (-1.0, 0.0, 1.0)]
            pairs.append((None, LeviCivitaConnection(t_ad),
                          LeviCivitaConnection(t_fd)))
            for c, ca, cf in pairs:
                d = float(np.max(np.abs(ca.gamma_tensor(p)
                                        - cf.gamma_tensor(p))))
                assert d <= 1e-6, (ex_id, type(ca).__name__, c, d)
                worst = max(worst, d)
    _report(12, "worst engine disagreement %.2e (tol 1e-6), step 1e-4"
            % worst)
