"""A normal run builds the Gamma table naturality reads once, at the sample
points and every map's images in one batch, and splits its tables among
them.

Each piece's tables must carry the bits of the same tables built at that
point set alone, the ``fd`` stencil's and the ``ad`` seed's among them, so
no report changes; a batch whose build raises is not split, and each family
then meets the error where it arises.
"""

import numpy as np
import pytest

from triadlab import DiffEngine, catalog, runner
from triadlab.ad import Dual
from triadlab.catalog import StrictContactMap
from triadlab.checks import pullback_triad
from triadlab.connections import triad_connection
from triadlab.contact import ContactTriad
from triadlab.runner import RunConfig, run_suite

from test_batch_runs import _assert_only_point_errs, _run_with, _value

_CAT = catalog()


def _bits(x):
    """A table's shape and bytes, a dual's value and tangent in turn."""
    if isinstance(x, Dual):
        return ("dual", x.lvl, _bits(x.re), _bits(x.du))
    x = np.asarray(x)
    return x.shape, np.ascontiguousarray(x).tobytes()


def _key(x):
    x = np.ascontiguousarray(x)
    return x.shape, x.tobytes()


def _reeb_solves(monkeypatch, ex_id, points, seed, **config):
    """The Reeb solves of a normal ``fd`` run, split by what they solve at:
    (at the base batch of ``_base_batch``, at its stencil, on the scaled
    triad, elsewhere on the base triad).  It asserts that no (lam-owner,
    shape, bytes) key is solved twice and that every solve elsewhere is at
    one map's image of the sample points' stencil."""
    calls = []
    reeb = ContactTriad._reeb_impl

    def counted(self, q):
        calls.append((self._lam_owner or self, _key(q)))
        return reeb(self, q)
    with monkeypatch.context() as mp:
        mp.setattr(ContactTriad, "_reeb_impl", counted)
        run_suite(RunConfig(example_id=ex_id, points=points, seed=seed,
                            mode="fd", **config))
    keys = [(id(owner), key) for owner, key in calls]
    assert len(set(keys)) == len(keys), "a key is solved twice"
    spec = _CAT[ex_id]
    t = spec.build(DiffEngine("fd"))
    pts = t.sample_points(points, seed)
    U = np.concatenate([pts] + [m.forward(pts) for m in spec.maps])
    base = [key for owner, key in calls if owner.label == t.label]
    images = {_key(m.forward(t.engine.stencil(pts))) for m in spec.maps}
    at_u = [key for key in base if key == _key(U)]
    at_stencil = [key for key in base if key == _key(t.engine.stencil(U))]
    elsewhere = [key for key in base if key not in at_u + at_stencil]
    assert set(elsewhere) <= images, "a solve at an unexpected point set"
    scaled = [key for owner, key in calls if owner.label != t.label]
    return len(at_u), len(at_stencil), len(scaled), len(elsewhere)


def test_a_normal_run_solves_for_the_reeb_field_once_per_point_set(
        monkeypatch):
    """r3-standard, ``fd``, 8 points: the sample points and the three maps'
    images share one Reeb solve at the batch and one at its stencil, where
    building each point set alone took 13 solves.  The scaled triad solves
    at the points and their stencil.  A pulled triad differentiates at the
    map's image of the points' stencil, which can round differently from
    the stencil of the image it shares; that costs at most one solve per
    map."""
    at_u, at_stencil, scaled, extra = _reeb_solves(
        monkeypatch, "r3-standard", 8, 5)
    assert (at_u, at_stencil, scaled) == (1, 1, 2)
    assert extra <= len(_CAT["r3-standard"].maps), extra


@pytest.mark.parametrize("mode", ["ad", "fd"])
@pytest.mark.parametrize("ex_id", sorted(_CAT))
def test_each_piece_of_the_batch_has_the_tables_of_its_points_alone(
        ex_id, mode):
    """Every table the split puts at the sample points and at each map's
    images, the ``fd`` stencil's entry and the ``ad`` seed's tables among
    them, equals bit for bit the table a fresh triad builds at that point
    set alone."""
    spec = _CAT[ex_id]
    t = spec.build(DiffEngine(mode))
    pts = t.sample_points(3, seed=5)
    runner._base_batch(t, pts, spec.maps)
    pieces = [pts] + [m.forward(pts) for m in spec.maps]
    for x in pieces:
        alone = spec.build(DiffEngine(mode))
        triad_connection(alone, 0.0).gamma_tensor(x)
        assert alone._cache, ex_id
        for key, tables in alone._cache.items():
            split = t._cache[key]
            assert list(split) == list(tables), (ex_id, key[0])
            for tag, value in tables.items():
                assert _bits(split[tag]) == _bits(value), (ex_id, key[0], tag)
    assert len(t._cache) == len(pieces) * (2 if mode == "fd" else 1)


@pytest.mark.parametrize("mode", ["ad", "fd"])
def test_a_batch_whose_build_raises_is_not_split(mode):
    """A map that sends one image to a NaN point makes the batch's Reeb
    solve raise: nothing is split, and only that point's naturality record
    errs."""
    config = dict(points=5, seed=6, c_values=(0.0,), mode=mode)
    spec = _CAT["r3-standard"]
    healthy = _run_with("r3-standard", maps=spec.maps[:1], **config)
    assert healthy.ok
    pts = np.array([r["point"] for r in healthy.records
                    if r["name"] == "naturality-pullback"])
    bad = int(np.argmax(pts[:, 0]))
    cut = 0.5 * (pts[bad, 0] + np.sort(pts[:, 0])[-2])
    shift = spec.maps[0].forward

    def forward(q):         # the image of the point beyond the cut is NaN
        return shift(q) + np.where(_value(q)[..., :1] > cut, np.nan, 0.0)

    broken = StrictContactMap(spec.maps[0].label, forward,
                              spec.maps[0].inverse, spec.maps[0].differential)
    t = spec.build(DiffEngine(mode))
    runner._base_batch(t, t.sample_points(5, 6), (broken,))
    assert all(key[0][-2] == 10 for key in t._cache), "the batch was split"
    rep = _run_with("r3-standard", maps=(broken,), **config)
    _assert_only_point_errs(rep, healthy, bad, mode)
    errs = [r for r in rep.records if r["note"].startswith("error:")]
    assert [(r["name"], r["point_index"]) for r in errs] == \
        [("naturality-pullback", bad)]


def test_the_split_keeps_broadcast_tangent_axes_and_existing_entries():
    """A dual table is cut along its value's batch axis and its tangent's,
    the seed's too, whose cut tangent stays a broadcast view; a piece that
    already has an entry keeps it."""
    t = _CAT["r3-standard"].build(DiffEngine("ad"))
    U = t.sample_points(4, seed=1)
    seed = t.engine._eye(U.shape)                  # shape (3, 4, 3)
    full = np.arange(36.0).reshape(3, 4, 3)
    t._cache[U.shape, U.tobytes()] = {("lam", 1): Dual(1, U, seed),
                                      ("reeb", 1): Dual(1, U, full)}
    kept = {"tag": "kept"}
    t._cache[(2, 3), U[2:].tobytes()] = kept
    t.split_batch(U, 2)
    tables = t._cache[(2, 3), U[:2].tobytes()]
    assert _bits(tables[("lam", 1)].re) == _bits(U[:2])
    assert _bits(tables[("lam", 1)].du) == _bits(seed[:, :2])
    assert tables[("lam", 1)].du.strides[1] == 0
    assert _bits(tables[("reeb", 1)].du) == _bits(full[:, :2])
    assert t._cache[(2, 3), U[2:].tobytes()] is kept
    assert (U.shape, U.tobytes()) not in t._cache


def _count_dual_work(monkeypatch):
    """Counters of ``_reeb_impl`` and ``_frame_j`` calls at dual points
    and of every ``DiffEngine.jacobian`` call."""
    n = {"reeb": 0, "frame_j": 0, "jacobian": 0}

    def at_duals(name, fn):
        def counted(self, q):
            n[name] += isinstance(q, Dual)
            return fn(self, q)
        return counted

    def jacobian(self, f, p, _jacobian=DiffEngine.jacobian):
        n["jacobian"] += 1
        return _jacobian(self, f, p)
    monkeypatch.setattr(ContactTriad, "_reeb_impl",
                        at_duals("reeb", ContactTriad._reeb_impl))
    monkeypatch.setattr(ContactTriad, "_frame_j",
                        at_duals("frame_j", ContactTriad._frame_j))
    monkeypatch.setattr(DiffEngine, "jacobian", jacobian)
    return n


def test_a_pulled_triad_reads_the_base_seed_tables_at_a_translation(
        monkeypatch):
    """r7-standard, ``ad``, 2 points: after the base batch, the J Jacobian
    of the vertical shift's pulled triad reads the seed tables the split
    put at the map's images, with no Reeb or J solve of its own."""
    spec = _CAT["r7-standard"]
    t = spec.build(DiffEngine("ad"))
    pts = t.sample_points(2, seed=3)
    runner._base_batch(t, pts, spec.maps)
    n = _count_dual_work(monkeypatch)
    pullback_triad(t, spec.maps[0]).jac_j_at(pts)
    assert (n["reeb"], n["frame_j"]) == (0, 0), n


# (Reeb solves at duals, J solves at duals, Jacobian passes) of one normal
# ``ad`` request at 2 points, seed 3
_AD_WORK = {"r3-standard": (4, 2, 25), "r5-standard": (4, 2, 25),
            "t3-tight": (4, 2, 25), "r7-standard": (2, 1, 17),
            "r9-standard": (2, 1, 17), "r3-perturbed-J": (2, 1, 20),
            "r5-perturbed-J": (2, 1, 20)}


@pytest.mark.parametrize("ex_id", sorted(_CAT))
def test_an_ad_request_makes_a_pinned_count_of_dual_solves(ex_id,
                                                            monkeypatch):
    """Dual points other than a seed are evaluated, not memoised; a
    translation's, a shear's and a Reeb flow's image of the seed still
    cost no more Reeb solves, J solves or Jacobian passes than the
    counts pinned here, which are below those of a store that memoised
    the latest such dual (5, 4, 26; 3, 2, 18; 4, 3, 22 by row)."""
    n = _count_dual_work(monkeypatch)
    rep = run_suite(RunConfig(example_id=ex_id, points=2, seed=3, mode="ad"))
    assert not any(r["note"] for r in rep.records)
    assert (n["reeb"], n["frame_j"], n["jacobian"]) == _AD_WORK[ex_id], n
