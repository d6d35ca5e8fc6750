"""Exercise every bundled example end to end: contact condition, compatibility,
the symmetry maps, and the alternate-engine build path."""

import numpy as np

from triadlab import DiffEngine, catalog
from oracles import compatibility, contact_coefficient, fd_jacobian

_CAT = catalog()

EXPECTED = {
    "r3-standard": 3,
    "r5-standard": 5,
    "r7-standard": 7,
    "r9-standard": 9,
    "t3-tight": 3,
    "r3-perturbed-J": 3,
    "r5-perturbed-J": 5,
}

# Signed volume coefficients lam ^ (d lam)^n / (standard volume), frozen once
# from the ad engine and reproduced below from the fd engine as well.
COEFFS = {
    "r3-standard": 1.0,
    "r5-standard": 2.0,
    "r7-standard": 6.0,
    "r9-standard": 24.0,
    "t3-tight": -1.0,
}


def test_catalog_ids_and_dimensions():
    assert set(_CAT) == set(EXPECTED)
    for ex_id, spec in _CAT.items():
        assert spec.id == ex_id
        assert spec.dim == EXPECTED[ex_id]
        assert spec.description


def test_each_entry_declares_the_dimension_its_triad_has():
    for ex_id, spec in _CAT.items():
        assert spec.build().dim == spec.dim, ex_id


def test_contact_condition_everywhere():
    for ex_id, spec in _CAT.items():
        t = spec.build()
        coeffs = [contact_coefficient(t, p) for p in t.sample_points(100, seed=21)]
        assert min(abs(c) for c in coeffs) > 0.5, ex_id
        if ex_id in COEFFS:
            assert max(abs(c - COEFFS[ex_id]) for c in coeffs) < 1e-9, ex_id


def test_compatibility_everywhere():
    for ex_id, spec in _CAT.items():
        t = spec.build()
        for p in t.sample_points(100, seed=22):
            defect, sign = compatibility(t, p, seed=0, samples=8)
            assert defect < 1e-9, (ex_id, defect)
            assert sign > 0.0, (ex_id, sign)


def test_perturbed_zero_amplitude_matches_standard():
    from triadlab import perturbed_triad, standard_triad

    for n in (1, 2):
        base = standard_triad(n)
        flat = perturbed_triad(n, 0.0)
        for p in base.sample_points(5, seed=23):
            assert np.max(np.abs(flat.j_any(p) - base.j_any(p))) < 1e-14
            assert np.max(np.abs(flat.lam_any(p) - base.lam_any(p))) < 1e-14


def test_maps_are_strict_and_invertible():
    for ex_id, spec in _CAT.items():
        t = spec.build()
        pts = t.sample_points(10, seed=24)
        for cmap in spec.maps:
            assert cmap.strictness_residual(t, pts) < 1e-9, (ex_id, cmap.label)
            for p in pts:
                back = cmap.inverse(cmap.forward(p))
                # torus coordinates only match modulo 2 pi
                delta = np.abs(np.asarray(back) - p)
                if ex_id == "t3-tight":
                    delta = np.minimum(delta, np.abs(delta - 2 * np.pi))
                assert np.max(delta) < 1e-9, (ex_id, cmap.label)


def test_map_differentials_match_finite_differences():
    for ex_id, spec in _CAT.items():
        t = spec.build()
        for cmap in spec.maps:
            for p in t.sample_points(3, seed=25):
                jac = fd_jacobian(cmap.forward, p)
                assert np.max(np.abs(cmap.differential(p) - jac)) < 1e-6, (
                    ex_id,
                    cmap.label,
                )


def test_sample_points_live_in_declared_boxes():
    for ex_id, spec in _CAT.items():
        t = spec.build()
        pts = t.sample_points(50, seed=26)
        assert pts.shape == (50, spec.dim)
        if ex_id == "t3-tight":
            assert np.all(pts >= 0.0) and np.all(pts < 2 * np.pi)
        else:
            assert np.all(np.abs(pts) <= 1.5)


def test_builders_accept_alternate_engine():
    fd = DiffEngine(mode="fd", step=1e-4)
    for ex_id in ("r3-standard", "t3-tight", "r5-perturbed-J"):
        spec = _CAT[ex_id]
        t_ad = spec.build()
        t_fd = spec.build(engine=fd)
        for p in t_ad.sample_points(3, seed=27):
            assert np.max(np.abs(t_fd.metric_any(p) - t_ad.metric_any(p))) < 1e-7
            assert np.max(np.abs(t_fd.reeb_any(p) - t_ad.reeb_any(p))) < 1e-7
        if ex_id in COEFFS:
            p = t_ad.sample_points(1, seed=28)[0]
            assert abs(contact_coefficient(t_fd, p) - COEFFS[ex_id]) < 1e-6


def test_catalog_returns_a_fresh_dict_of_entries_built_once():
    """Two calls return equal but distinct dicts of the same entries, and
    editing one leaves the next call's dict unchanged."""
    first, second = catalog(), catalog()
    assert first == second and first is not second
    assert all(first[k] is second[k] for k in first)
    first["r3-standard"] = first.pop("t3-tight")
    assert catalog() == second
