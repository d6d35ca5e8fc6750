"""Moving frames, structure equations, and the coefficient re-derivation oracle."""

import numpy as np
import pytest

from triadlab import (
    DiffEngine,
    LeviCivitaConnection,
    build_unitary_frame,
    catalog,
    cross_check_gamma,
    standard_triad,
    triad_connection,
)
from triadlab import frames
from triadlab.frames import (
    MovingFrame,
    connection_one_forms,
    gamma_from_axioms,
    skew_hermitian_check,
    structure_equation_residual,
)

_CAT = catalog()


def test_r3_frame_is_the_hand_frame():
    """Seeds (dx, dy) produce (Reeb, dx + y dz, dy) exactly."""
    t = standard_triad(1)
    for y in (0.0, 0.7):
        p = np.array([0.1, y, -0.3])
        F = build_unitary_frame(t, p).matrix_any(p)
        want = np.array([[0.0, 1.0, 0.0],
                         [0.0, 0.0, 1.0],
                         [1.0, y, 0.0]])
        assert np.max(np.abs(F - want)) < 1e-12


def test_frame_orthonormal_dual_and_j_paired():
    for ex_id, spec in _CAT.items():
        t = spec.build()
        for p in t.sample_points(3, seed=14):
            fr = build_unitary_frame(t, p)
            assert fr.gram_residual(p) < 1e-9, ex_id
            F = fr.matrix_any(p)
            C = fr.coframe_any(p)
            assert np.max(np.abs(C @ F - np.eye(t.dim))) < 1e-9, ex_id
            J = t.j_any(p)
            for i in range(1, t.n + 1):
                assert np.max(np.abs(F[:, t.n + i] - J @ F[:, i])) < 1e-10, ex_id


def test_frame_determinism_bitwise():
    t = _CAT["r5-perturbed-J"].build()
    p = t.sample_points(1, seed=1)[0]
    a = build_unitary_frame(t, p).matrix_any(p)
    b = build_unitary_frame(t, p).matrix_any(p)
    assert np.array_equal(a, b)


def test_connection_one_forms_reeb_row_vanishes():
    """Zero-parameter connection: the frame coefficients onto the Reeb leg."""
    t = _CAT["t3-tight"].build()
    p = t.sample_points(1, seed=2)[0]
    fr = build_unitary_frame(t, p)
    g = connection_one_forms(triad_connection(t, 0.0), fr, p)
    # <nabla X, X> row and column: lam-leg coefficient of the Reeb direction
    assert np.max(np.abs(g[0, :, 0])) < 1e-10
    assert np.max(np.abs(g[0, 0, :])) < 1e-10


def test_standard_triad_reeb_coefficients_vanish():
    t = standard_triad(1)
    p = np.array([0.4, 0.2, 0.6])
    fr = build_unitary_frame(t, p)
    g = connection_one_forms(triad_connection(t, 0.0), fr, p)
    for k in (1, 2):
        for j in (1, 2):
            assert abs(g[k, j, 0]) < 1e-11


def test_levi_civita_omega_skew():
    for ex_id in ("r3-standard", "r5-perturbed-J"):
        t = _CAT[ex_id].build()
        p = t.sample_points(1, seed=3)[0]
        fr = build_unitary_frame(t, p)
        g = connection_one_forms(LeviCivitaConnection(t), fr, p)
        assert np.max(np.abs(g + np.transpose(g, (2, 1, 0)))) < 1e-9, ex_id


def test_structure_equation_both_connections():
    for ex_id in ("r3-standard", "t3-tight", "r3-perturbed-J"):
        t = _CAT[ex_id].build()
        p = t.sample_points(1, seed=4)[0]
        fr = build_unitary_frame(t, p)
        lc_res = structure_equation_residual(LeviCivitaConnection(t), fr, p)
        tc_res = structure_equation_residual(triad_connection(t, 0.0), fr, p)
        assert lc_res < 1e-7, ex_id
        assert tc_res < 1e-7, ex_id


def test_structure_equation_dropped_torsion_control():
    """Omitting the torsion forms must expose the d(lam)-sized gap."""
    t = _CAT["r3-standard"].build()
    p = t.sample_points(1, seed=5)[0]
    fr = build_unitary_frame(t, p)
    om = connection_one_forms(triad_connection(t, 0.0), fr, p)
    # the torsion-free structure form d theta + Omega ^ theta
    res = frames.structure_gap(fr.coframe_any(p), fr.jac_coframe_at(p), om,
                               0.0)
    assert res > 0.5


def test_gamma_from_axioms_standard_all_zero():
    t = standard_triad(1)
    p = np.array([-0.6, 0.5, 0.2])
    fr = build_unitary_frame(t, p)
    g, mask = gamma_from_axioms(t, 0.0, fr, p)
    assert np.max(np.abs(g[mask])) < 1e-11


def test_gamma_from_axioms_frozen_perturbed_entry():
    """gamma[n+1, 1, 0] = -c/2 + <(L J)E_1, JE_1>/2, checked both ways."""
    t = _CAT["r3-perturbed-J"].build()
    p = t.sample_points(1, seed=6)[0]
    fr = build_unitary_frame(t, p)
    F = fr.matrix_any(p)
    G = t.metric_any(p)
    L = t.lie_reeb_j_at(p)
    e1, je1 = F[:, 1], F[:, 2]
    for c in (1.0, 0.0):
        g, mask = gamma_from_axioms(t, c, fr, p)
        assert mask[2, 1, 0]
        want = -0.5 * c + 0.5 * float(L @ je1 @ G @ je1)
        assert abs(g[2, 1, 0] - want) < 1e-11, c
        direct = triad_connection(t, c).apply_vec(e1, t.reeb_any, p)
        assert abs(float(direct @ G @ je1) - want) < 1e-10, c


def test_cross_check_gamma_catalog_sweep():
    for ex_id in ("r3-standard", "t3-tight", "r3-perturbed-J", "r5-perturbed-J"):
        t = _CAT[ex_id].build()
        p = t.sample_points(1, seed=7)[0]
        fr = build_unitary_frame(t, p)
        for c in (-1.0, 0.0, 1.0):
            disc = cross_check_gamma(t, c, fr, p)
            assert disc < 1e-7, (ex_id, c)


def test_cross_check_gamma_reeb_block_regression():
    """Entry family that once carried a transposed pairing; exact on a
    Lie-twisted five-dimensional triad where the slip was visible."""
    t = _CAT["r5-perturbed-J"].build()
    for seed in (1, 2):
        p = t.sample_points(1, seed=seed)[0]
        fr = build_unitary_frame(t, p)
        g_ax, mask = gamma_from_axioms(t, 1.0, fr, p)
        direct = connection_one_forms(triad_connection(t, 1.0), fr, p)
        block = slice(t.n + 1, 2 * t.n + 1)
        assert mask[block, block, 0].all()
        assert np.max(np.abs((g_ax - direct)[block, block, 0])) < 1e-11


def test_skew_hermitian_family_vs_levi_civita():
    t = _CAT["r5-perturbed-J"].build()
    worst_lc = 0.0
    for p in t.sample_points(3, seed=8):
        fr = build_unitary_frame(t, p)
        assert skew_hermitian_check(triad_connection(t, 0.0), fr, p) < 1e-8
        worst_lc = max(worst_lc,
                       skew_hermitian_check(LeviCivitaConnection(t), fr, p))
    assert worst_lc > 1e-3


@pytest.mark.parametrize("mode", ["ad", "fd"])
def test_frames_with_the_same_columns_share_the_triad_store(monkeypatch, mode):
    """A second frame over the same columns runs no Gram-Schmidt, and a
    frame's stencil tables join the entry the pipelines already hold."""
    t = _CAT["r5-perturbed-J"].build(DiffEngine(mode))
    p = t.sample_points(1, seed=9)[0]
    t.jac_reeb_at(p)
    entries = len(t._cache)
    first = build_unitary_frame(t, p)
    F = first.matrix_any(p)
    jacF = first.jac_frame_at(p)
    assert len(t._cache) == entries

    runs = []
    gram_schmidt = frames._gram_schmidt
    monkeypatch.setattr(frames, "_gram_schmidt",
                        lambda *a, **k: runs.append(1) or gram_schmidt(*a, **k))
    second = MovingFrame(t, first.indices)
    assert second.matrix_any(p) is F
    assert second.jac_frame_at(p) is jacF
    assert runs == []
