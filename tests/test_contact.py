"""Contact triads: frozen structure values, defining equations, compatibility."""

import numpy as np
import pytest

from triadlab import (ContactTriad, DiffEngine, catalog, perturbed_triad,
                      standard_triad, t3_triad)
from triadlab.runner import RunConfig, run_suite

from test_base_batch import _reeb_solves

from oracles import (compatibility, contact_coefficient, fd_jacobian,
                     flow_lie_derivative_endo, j_squared_residual)

_CAT = catalog()


def _triads(ids=None):
    for ex_id, spec in _CAT.items():
        if ids is None or ex_id in ids:
            yield ex_id, spec.build()


def test_r3_metric_matrix_frozen():
    """Hand value: g = [[1+y^2,0,-y],[0,1,0],[-y,0,1]] for dz - y dx."""
    t = standard_triad(1)
    for x, y, z in [(0.0, 0.3, 0.0), (1.2, -0.8, 0.4)]:
        got = t.metric_any(np.array([x, y, z]))
        want = np.array([[1.0 + y * y, 0.0, -y], [0.0, 1.0, 0.0], [-y, 0.0, 1.0]])
        assert np.max(np.abs(got - want)) < 1e-14


def test_r3_structure_tensors_frozen():
    t = standard_triad(1)
    p = np.array([0.5, 0.3, -0.2])
    assert np.max(np.abs(t.lam_any(p) - np.array([-0.3, 0.0, 1.0]))) == 0.0
    assert np.max(np.abs(t.reeb_any(p) - np.array([0.0, 0.0, 1.0]))) < 1e-13
    want_j = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, -0.3, 0.0]])
    assert np.max(np.abs(t.j_any(p) - want_j)) < 1e-13


def test_reeb_defining_equations_all_catalog():
    for ex_id, t in _triads():
        for p in t.sample_points(10, seed=3):
            X = t.reeb_any(p)
            assert abs(t.lam_any(p) @ X - 1.0) < 1e-12, ex_id
            assert np.max(np.abs(t.dlam_any(p) @ X)) < 1e-12, ex_id


def test_t3_reeb_rotates_with_z():
    t = t3_triad()
    for p in t.sample_points(6, seed=9):
        z = p[2]
        want = np.array([np.cos(z), np.sin(z), 0.0])
        assert np.max(np.abs(t.reeb_any(p) - want)) < 1e-12


def test_projector_and_j_algebra():
    """Pi idempotent, J Pi = Pi J = J, J^2 = -Pi, J X = 0, residual <= 1e-10."""
    for ex_id, t in _triads():
        for p in t.sample_points(5, seed=21):
            P = t.pi_any(p)
            J = t.j_any(p)
            assert np.max(np.abs(P @ P - P)) < 1e-10, ex_id
            assert np.max(np.abs(J @ P - J)) < 1e-10, ex_id
            assert np.max(np.abs(P @ J - J)) < 1e-10, ex_id
            assert np.max(np.abs(J @ J + P)) < 1e-10, ex_id
            assert np.max(np.abs(J @ t.reeb_any(p))) < 1e-12, ex_id
            assert j_squared_residual(t, p) < 1e-10, ex_id


def test_contact_coefficient_frozen_values():
    want = {
        "r3-standard": 1.0,
        "r5-standard": 2.0,
        "r7-standard": 6.0,
        "r9-standard": 24.0,
        "t3-tight": -1.0,
    }
    for ex_id, value in want.items():
        t = _CAT[ex_id].build()
        p = t.sample_points(1, seed=1)[0]
        assert abs(contact_coefficient(t, p) - value) < 1e-10, ex_id


def test_contact_coefficient_perturbed_nonvanishing():
    for ex_id in ("r3-perturbed-J", "r5-perturbed-J"):
        t = _CAT[ex_id].build()
        for p in t.sample_points(10, seed=4):
            assert abs(contact_coefficient(t, p)) > 0.5, ex_id


def test_compatibility_defect_and_sign():
    for ex_id, t in _triads():
        p = t.sample_points(1, seed=13)[0]
        defect, sign = compatibility(t, p, seed=2)
        assert defect < 1e-9, ex_id
        assert abs(sign - 1.0) < 1e-9, ex_id


def test_metric_positive_definite():
    for ex_id, t in _triads():
        for p in t.sample_points(5, seed=17):
            evals = np.linalg.eigvalsh(t.metric_any(p))
            assert evals[0] > 1e-3, ex_id


def test_metric_pairing_identities_on_plane():
    """<Ju,Jv> = <u,v>, <u,Jv> = -dlam(u,v), <Ju,v> = -<u,Jv> on the plane."""
    for ex_id, t in _triads(("r3-standard", "t3-tight", "r5-perturbed-J")):
        rng = np.random.default_rng(6)
        for p in t.sample_points(4, seed=23):
            G = t.metric_any(p)
            J = t.j_any(p)
            D = t.dlam_any(p)
            for _ in range(3):
                u = t.pi_any(p) @ rng.standard_normal(t.dim)
                v = t.pi_any(p) @ rng.standard_normal(t.dim)
                assert abs(J @ u @ G @ (J @ v) - u @ G @ v) < 1e-10, ex_id
                assert abs(u @ G @ (J @ v) + u @ D @ v) < 1e-10, ex_id
                assert abs(J @ u @ G @ v + u @ G @ (J @ v)) < 1e-10, ex_id


def test_perturbation_at_zero_is_standard():
    std = standard_triad(1)
    flat = perturbed_triad(1, 0.0)
    for p in std.sample_points(20, seed=2):
        assert np.max(np.abs(std.j_any(p) - flat.j_any(p))) < 1e-14
        assert np.max(np.abs(std.metric_any(p) - flat.metric_any(p))) < 1e-14


def test_perturbed_j_is_genuinely_twisted():
    """The epsilon = 0.1 plane rotation must produce a Reeb-Lie-varying J."""
    t = perturbed_triad(1, 0.1)
    p = np.array([0.0, 0.0, 1.0])
    L = t.lie_reeb_j_at(p)
    assert np.linalg.norm(L) > 0.01
    want = flow_lie_derivative_endo(
        t.reeb_any, lambda q: fd_jacobian(t.reeb_any, q), t.j_any, p)
    assert np.max(np.abs(L - want)) < 1e-6


def test_t3_reeb_lie_transport_nonzero():
    t = t3_triad()
    p = t.sample_points(1, seed=3)[0]
    assert np.linalg.norm(t.lie_reeb_j_at(p)) > 0.5


def test_scaled_triad_structures():
    """aX is the Reeb field of lam/a... backwards: scaling lam by a divides X."""
    for ex_id, t in _triads(("r3-standard", "r3-perturbed-J", "t3-tight")):
        s = t.scaled(2.0)
        for p in t.sample_points(4, seed=8):
            lam = t.lam_any(p)
            assert np.max(np.abs(s.lam_any(p) - 2.0 * lam)) < 1e-14, ex_id
            assert np.max(np.abs(s.reeb_any(p) - 0.5 * t.reeb_any(p))) < 1e-12, ex_id
            assert np.max(np.abs(s.j_any(p) - t.j_any(p))) < 1e-12, ex_id
            assert np.max(np.abs(s.pi_any(p) - t.pi_any(p))) < 1e-12, ex_id
            want = 4.0 * np.outer(lam, lam) + 2.0 * (t.metric_any(p) - np.outer(lam, lam))
            assert np.max(np.abs(s.metric_any(p) - want)) < 1e-12, ex_id


def test_scaled_rejects_nonpositive():
    t = standard_triad(1)
    for a in (0.0, -2.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            t.scaled(a)


def test_sample_points_inside_domain_and_deterministic():
    for ex_id, t in _triads():
        pts = t.sample_points(40, seed=77)
        again = t.sample_points(40, seed=77)
        assert np.array_equal(pts, again), ex_id
        lo, hi = t.domain
        assert np.all(pts >= np.asarray(lo) - 1e-12), ex_id
        assert np.all(pts <= np.asarray(hi) + 1e-12), ex_id


def test_sample_points_take_only_integer_seeds_at_least_zero():
    """A negative, fractional or bool seed raises, as ``RunConfig`` rejects
    it, rather than aliasing -3 to 3, hashing 1.5 or reading True as 1; a
    numpy integer reads as the int it holds."""
    t = standard_triad(1)
    for seed in (-3, 1.5, True, np.bool_(True), "3", None):
        with pytest.raises(ValueError, match="seed"):
            t.sample_points(2, seed)
    assert np.array_equal(t.sample_points(2, np.int64(3)),
                          t.sample_points(2, 3))


def test_fd_engine_triad_matches_ad_engine_triad():
    t_ad = standard_triad(1)
    t_fd = standard_triad(1, engine=DiffEngine(mode="fd", step=1e-4))
    p = np.array([0.4, -0.2, 0.1])
    # the fd triad's d(lam) carries central-stencil truncation error
    assert np.max(np.abs(t_ad.metric_any(p) - t_fd.metric_any(p))) < 1e-8
    assert np.max(np.abs(t_ad.christoffel_at(p) - t_fd.christoffel_at(p))) < 1e-6


def test_reeb_guard_rejects_nan_contact_form():
    """A NaN residual must trip the guard: ``max(r1, r2) > tol`` is false
    for NaN, which let a NaN Reeb field through."""
    t = ContactTriad(3, lambda q: np.array([np.nan, 0.0, 1.0]), None,
                     (-np.ones(3), np.ones(3)))
    with pytest.raises(ValueError, match="contact condition"):
        t.reeb_any(np.array([0.1, 0.2, 0.3]))


# -- the per-point store ------------------------------------------------------


def _key(x):
    return (x.shape, x.tobytes())


def test_store_keeps_every_entry_for_the_triads_life():
    """Points and batches, however wide, each keep their own entry, and a
    point's entry holds the tables its pipelines built."""
    t = standard_triad(1, engine=DiffEngine("fd"))
    a, b, c = t.sample_points(3, seed=5)
    wide = t.sample_points(300, seed=6)
    lam_a = t.lam_any(a)
    t.lam_any(b)
    wide_reeb = t.reeb_any(wide)
    t.lam_any(c)
    t.reeb_any(a)
    assert list(t._cache) == [_key(a), _key(b), _key(wide), _key(c)]
    assert set(t._cache[_key(a)]) == {"lam", "dlam", "reeb"}
    assert t.lam_any(a) is lam_a and t.reeb_any(wide) is wide_reeb


@pytest.mark.parametrize("ex_id", ["r3-standard", "r5-perturbed-J"])
def test_an_fd_run_makes_as_many_reeb_solves_at_300_points_as_at_8(
        monkeypatch, ex_id):
    """Each stencil of a run is solved once, however many points the batch
    holds: a store that evicts makes the batch and its stencils push each
    other out, and they are solved again.  Beside them, a pulled triad may
    solve at most once, at its map's image of the points' stencil (see
    ``_reeb_solves``)."""
    for points in (8, 300):
        at_u, at_stencil, scaled, extra = _reeb_solves(
            monkeypatch, ex_id, points, 2, c_values=(0.0,))
        assert (at_u, at_stencil, scaled) == (1, 1, 2), points
        assert extra <= len(_CAT[ex_id].maps), (points, extra)
