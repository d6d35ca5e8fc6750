"""A run calls each check family once, on the batch of its points, in
either mode.

Every family is written for a point of shape ``(*batch, dim)``, and its
residual at each point of a batch must carry the bits of the family called
at that point alone in ``fd``, and match them to 1e-13 in ``ad``; that is
what keeps ``fd`` reports byte-identical to a point-by-point run.  A family
that raises on the batch runs again point by point, so only the points
where it raises get error records.  Each test of a run's records has an
``fd`` and an ``ad`` form.
"""

import dataclasses

import numpy as np
import pytest

import triadlab
from triadlab import DiffEngine, catalog, runner
from triadlab.ad import Dual
from triadlab.catalog import StrictContactMap
from triadlab.checks import (CHECKS, check_axioms, check_cr_form,
                             check_lemma_suite, check_naturality,
                             check_scaling, fault_flipped_b1,
                             fault_levi_civita, fault_scale_mismatch,
                             fault_wrong_c, family_names)
from triadlab.contact import ContactTriad
from triadlab.frames import FrameRankError, build_unitary_frame
from triadlab.runner import RunConfig, run_suite

from oracles import per_point_records
from test_derivs import _count_batch_reeb_solves

_CAT = catalog()
CS = (-1.0, 0.0, 1.0)
SEED = 7


def _families(spec, t, p):
    """(label, call) for every family at p, a point or a batch."""
    calls = [("axioms c=%g" % c,
              lambda c=c: check_axioms(t, (c,), p)[0]) for c in CS]
    calls += [("cr-form c=%g" % c,
               lambda c=c: check_cr_form(t, (c,), p)[0])
              for c in CS]
    calls += [("naturality " + m.label,
               lambda m=m: check_naturality(t, m, 0.0, p))
              for m in spec.maps]
    calls += [
        ("lemma suite", lambda: check_lemma_suite(t, p, seed=SEED)),
        ("scaling", lambda: check_scaling(t, 2.0, p)),
        ("wrong c", lambda: fault_wrong_c(t, p)),
        ("scale mismatch", lambda: fault_scale_mismatch(t, 2.0, p)),
        ("flipped b1", lambda: fault_flipped_b1(t, p)),
        ("levi-civita", lambda: fault_levi_civita(t, p)),
        ("frame records", lambda: runner._frame_records(t, CS, p, SEED)),
        ("dropped torsion",
         lambda: runner._dropped_torsion_control(t, p, SEED))]
    return calls


def _results(out):
    return [out] if isinstance(out, triadlab.CheckResult) else list(out)


def _same(got, want, mode) -> bool:
    """The same bits in ``fd``; in ``ad``, within the refactor bound 1e-13."""
    got, want = np.float64(got), np.float64(want)
    if mode == "fd":
        return got.tobytes() == want.tobytes()
    return abs(got - want) <= 1e-13 or (np.isnan(got) and np.isnan(want))


def _assert_every_family_at_a_batch_is_each_point(ex_id, mode):
    spec = _CAT[ex_id]
    tb, tp = spec.build(DiffEngine(mode)), spec.build(DiffEngine(mode))
    pts = tb.sample_points(8, seed=31)
    at_points = [dict(_families(spec, tp, q)) for q in pts]
    for label, call in _families(spec, tb, pts):
        batch = _results(call())
        for i, per_point in enumerate(at_points):
            single = _results(per_point[label]())
            assert [r.name for r in batch] == [r.name for r in single]
            for rb, rs in zip(batch, single):
                assert rb.residual.shape == (8,), (label, rb.name)
                assert _same(rb.residual[i], rs.residual, mode), \
                    (ex_id, label, rb.name, i)
                assert rb.point[i].tobytes() == pts[i].tobytes()


@pytest.mark.parametrize("ex_id", sorted(_CAT))
def test_every_family_at_a_batch_is_each_point_bit_for_bit(ex_id):
    _assert_every_family_at_a_batch_is_each_point(ex_id, "fd")


@pytest.mark.parametrize("ex_id", sorted(_CAT))
def test_every_ad_family_at_a_batch_is_each_point_to_rounding(ex_id):
    _assert_every_family_at_a_batch_is_each_point(ex_id, "ad")


def _run_with(example_id, build=None, maps=None, **config):
    """run_suite on a catalog whose example has another builder or maps."""
    cat = catalog()
    spec = cat[example_id]
    cat[example_id] = dataclasses.replace(
        spec, build=build or spec.build,
        maps=spec.maps if maps is None else maps)
    real = triadlab.runner.catalog
    triadlab.runner.catalog = lambda: cat
    try:
        return run_suite(RunConfig(example_id=example_id, **config))
    finally:
        triadlab.runner.catalog = real


def _value(q):
    """The float point under a dual one, so that a test's triad can pick
    the points it breaks inside a dual pass too."""
    while isinstance(q, Dual):
        q = q.re
    return q


def _by_key(records):
    return {(r["name"], r["variant"], r["point_index"]): r for r in records}


def _assert_only_point_errs(rep, healthy, bad, mode):
    assert not rep.ok
    want = _by_key(healthy.records)
    for key, r in _by_key(rep.records).items():
        if key[2] != bad:
            assert dict(r, residual=0.0) == dict(want[key], residual=0.0), key
            assert _same(r["residual"], want[key]["residual"], mode), key
    assert any(r["note"].startswith("error:") for r in rep.records
               if r["point_index"] == bad)


def _t3_with_a_reeb_aligned_point(engine=None):
    """t3-tight whose sample point 1 lies on z = 0.  There the Reeb field
    (cos z, sin z, 0) is the chart column d/dx, so that column's
    Pi-projection collapses at that point only."""
    t = _CAT["t3-tight"].build(engine)
    sample = t.sample_points

    def sample_points(count, seed):
        pts = sample(count, seed)
        pts[1, 2] = 0.0
        return pts

    t.sample_points = sample_points
    return t


def test_a_frame_column_collapsing_at_some_points_of_a_batch_raises():
    t = _t3_with_a_reeb_aligned_point(DiffEngine("fd"))
    pts = t.sample_points(4, seed=0)
    with pytest.raises(FrameRankError, match="collapses at only some"):
        build_unitary_frame(t, pts, seed=0)
    assert build_unitary_frame(t, pts[1], seed=0).indices == (1,)
    assert build_unitary_frame(t, pts[[0, 2, 3]], seed=0).indices == (0,)


def _assert_other_frames_run_point_by_point(controls, mode):
    rep = _run_with("t3-tight", _t3_with_a_reeb_aligned_point, points=4,
                    seed=0, c_values=CS, negative_controls=controls,
                    mode=mode)
    t = _t3_with_a_reeb_aligned_point(DiffEngine(mode))

    def family(p):
        if controls:
            return runner._dropped_torsion_control(t, p, 0)
        return runner._frame_records(t, CS, p, 0)

    variant = "c=0" if controls else "frame"
    want = per_point_records([(cr, variant, i, "")
                              for i, p in enumerate(t.sample_points(4, 0))
                              for cr in _results(family(p))])
    names = {r["name"] for r in want}
    got = [r for r in rep.records if r["name"] in names]
    assert got == want
    assert all(r["note"] == "" for r in got)


@pytest.mark.parametrize("controls", [False, True])
def test_frames_that_pick_other_columns_at_some_points_run_point_by_point(
        controls):
    _assert_other_frames_run_point_by_point(controls, "fd")


@pytest.mark.parametrize("controls", [False, True])
def test_ad_frames_that_pick_other_columns_at_some_points_run_point_by_point(
        controls):
    _assert_other_frames_run_point_by_point(controls, "ad")


def _records_and_their_oracle(monkeypatch, run):
    """A run's records, and the oracle's from the groups its families
    returned, in the order they returned them."""
    groups: list = []
    real = runner._run_family

    def kept(out, *args, **kwargs):
        real(out, *args, **kwargs)
        groups[:] = out

    monkeypatch.setattr(runner, "_run_family", kept)
    return run().records, groups, per_point_records(groups)


@pytest.mark.parametrize("mode", ["fd", "ad"])
@pytest.mark.parametrize("controls", [False, True])
def test_records_are_each_groups_points_in_a_stable_sort(
        monkeypatch, mode, controls):
    records, groups, want = _records_and_their_oracle(
        monkeypatch, lambda: run_suite(RunConfig(
            example_id="r5-perturbed-J", points=3, seed=5, mode=mode,
            negative_controls=controls)))
    assert len(want) == 3 * len(groups) and records == want
    if not controls:    # one group per c under one key
        assert sum(cr.name == "frame-coefficient-rederivation"
                   for cr, *_ in groups) == 3


@pytest.mark.parametrize("mode", ["fd", "ad"])
def test_records_of_point_by_point_reruns_are_merged_by_point(
        monkeypatch, mode):
    records, groups, want = _records_and_their_oracle(
        monkeypatch, lambda: _run_with(
            "t3-tight", _t3_with_a_reeb_aligned_point, points=4, seed=0,
            c_values=CS, mode=mode))
    assert records == want
    firsts = [first for cr, _, first, _ in groups
              if cr.name == "frame-coefficient-rederivation"]
    assert firsts == [i for i in range(4) for _ in CS]


@pytest.mark.parametrize("mode", ["fd", "ad"])
def test_every_family_call_takes_a_batch_a_rerun_one_of_one_point(
        monkeypatch, mode):
    """A point is a batch without more points: the run hands every family
    its 4 points as one batch, and reruns the frame families, which raise
    there, on the one-point batches pts[i:i+1]."""
    families = {spec.family for spec in CHECKS.values()}
    shapes: dict = {}
    for name in families:
        def counted(*args, _fn=getattr(runner, name), _name=name, **kwargs):
            shapes.setdefault(_name, []).extend(
                a.shape for a in args if isinstance(a, np.ndarray))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(runner, name, counted)
    for controls in (False, True):
        _run_with("t3-tight", _t3_with_a_reeb_aligned_point, points=4,
                  seed=0, c_values=CS, negative_controls=controls, mode=mode)
    # a three-dimensional triad has no projected Nijenhuis tensor, so the
    # J-sensitive controls do not run
    assert set(shapes) == families - {"fault_flipped_b1", "fault_levi_civita"}
    calls = {"check_naturality": len(_CAT["t3-tight"].maps)}
    reruns = {"_frame_records", "_dropped_torsion_control"}
    for name, got in shapes.items():
        want = [(4, 3)] * calls.get(name, 1) + [(1, 3)] * 4 * (name in reruns)
        assert got == want, (name, got)


def _assert_a_nan_j_at_one_point_errs_there_only(mode):
    config = dict(points=6, seed=4, c_values=(0.0,), mode=mode)
    healthy = run_suite(RunConfig(example_id="r5-perturbed-J", **config))
    assert healthy.ok
    pts = np.array([r["point"] for r in healthy.records
                    if r["name"] == "axiom-hermitian"])
    bad = int(np.argmax(pts[:, 1]))
    cut = 0.5 * (pts[bad, 1] + np.sort(pts[:, 1])[-2])

    def nan_j_at_one_point(engine=None):
        t = _CAT["r5-perturbed-J"].build(engine)
        j = t.j_any

        # NaN wherever y1, which no map of the example moves, lies beyond
        # the cut
        def nan_j(q):
            return j(q) * np.where(_value(q)[..., 1:2, None] > cut,
                                   np.nan, 1.0)

        return ContactTriad(t.dim, t.lam, nan_j, t.domain, engine=engine,
                            label=t.label)

    rep = _run_with("r5-perturbed-J", nan_j_at_one_point, **config)
    _assert_only_point_errs(rep, healthy, bad, mode)
    notes = {r["note"] for r in rep.records if r["point_index"] == bad
             and r["name"].startswith("axiom-")}
    assert notes == {"error: residual is not finite"}


def test_a_nan_j_at_one_point_errs_there_only():
    _assert_a_nan_j_at_one_point_errs_there_only("fd")


def test_an_ad_nan_j_at_one_point_errs_there_only():
    _assert_a_nan_j_at_one_point_errs_there_only("ad")


def _assert_a_map_non_strict_at_one_point_errs_there_only(mode):
    config = dict(points=5, seed=6, c_values=(0.0,), mode=mode)
    spec = _CAT["r3-standard"]
    healthy = _run_with("r3-standard", maps=spec.maps[:1], **config)
    assert healthy.ok
    pts = np.array([r["point"] for r in healthy.records
                    if r["name"] == "naturality-pullback"])
    bad = int(np.argmax(pts[:, 0]))
    cut = 0.5 * (pts[bad, 0] + np.sort(pts[:, 0])[-2])
    shift = spec.maps[0].forward

    def forward(q):         # a unit step in y beyond the cut breaks lam
        return shift(q) + ((_value(q)[..., :1] > cut)
                           * np.array([0.0, 1.0, 0.0]))

    broken = StrictContactMap(spec.maps[0].label, forward,
                              spec.maps[0].inverse, spec.maps[0].differential)
    rep = _run_with("r3-standard", maps=(broken,), **config)
    _assert_only_point_errs(rep, healthy, bad, mode)
    errs = [r for r in rep.records if r["note"].startswith("error:")]
    assert [(r["name"], r["point_index"]) for r in errs] == \
        [("naturality-pullback", bad)]
    assert "does not preserve the contact form" in errs[0]["note"]


def test_a_map_non_strict_at_one_point_errs_there_only():
    _assert_a_map_non_strict_at_one_point_errs_there_only("fd")


def test_an_ad_map_non_strict_at_one_point_errs_there_only():
    _assert_a_map_non_strict_at_one_point_errs_there_only("ad")


@pytest.mark.parametrize("mode", ["fd", "ad"])
@pytest.mark.parametrize("ex_id", ["r3-perturbed-J", "t3-tight"])
def test_each_c_of_a_sweep_has_the_records_of_a_one_value_sweep(ex_id, mode):
    """Every c of a sweep reads the same draws and its own slice of the
    stacked table: the axiom, cr-form and frame re-derivation records at c
    are those of a sweep of c alone, and the two lemma records that read the
    sweep are the worst of the one-value sweeps' records."""
    config = dict(example_id=ex_id, points=3, seed=5, mode=mode)
    sweep = run_suite(RunConfig(c_values=CS, **config)).records
    alone = [run_suite(RunConfig(c_values=(c,), **config)).records
             for c in CS]

    def named(records, name, variant=None):
        return [r for r in records if r["name"] == name
                and variant in (None, r["variant"])]

    for k, c in enumerate(CS):
        for name in family_names("check_axioms") + family_names(
                "check_cr_form"):
            got = named(sweep, name, "c=%g" % c)
            want = named(alone[k], name)
            assert [r["point_index"] for r in got] == [0, 1, 2]
            assert [dict(r, residual=0.0) for r in got] == \
                [dict(r, residual=0.0) for r in want], (name, c)
            for r, w in zip(got, want):
                assert _same(r["residual"], w["residual"], mode), (name, c)
        # one record per c at each point, in the sweep's order
        got = named(sweep, "frame-coefficient-rederivation")[k::len(CS)]
        want = named(alone[k], "frame-coefficient-rederivation")
        assert [r["point_index"] for r in got] == [0, 1, 2]
        for r, w in zip(got, want):
            assert _same(r["residual"], w["residual"], mode), c
    for name in ("reeb-covariant-family", "torsion-split-values"):
        for i, r in enumerate(named(sweep, name)):
            worst = max(named(records, name)[i]["residual"]
                        for records in alone)
            assert _same(r["residual"], worst, mode), (name, i)


@pytest.mark.parametrize("family", [
    lambda t, p: check_axioms(t, (0.0,), p)[0],
    lambda t, p: check_lemma_suite(t, p, seed=5)], ids=["axioms", "lemmas"])
def test_a_batch_makes_as_many_reeb_solves_as_one_point(monkeypatch, family):
    """Each stencil a family evaluates at one point, it evaluates once at a
    batch, with the batch's axis inside."""
    solves = _count_batch_reeb_solves(monkeypatch)
    shapes = []
    for size in (1, 8):
        t = _CAT["r5-perturbed-J"].build(DiffEngine("fd"))
        pts = t.sample_points(size, seed=43)
        p = pts[0] if size == 1 else pts
        t.j_any(p)
        del solves[:]
        family(t, p)
        shapes.append([s[:2] + s[-1:] for s in solves])
        assert all(s[2] == 8 for s in solves[:]) or size == 1
    assert shapes[0] == shapes[1] and shapes[0]


@pytest.mark.parametrize("mode", ["ad", "fd"])
@pytest.mark.parametrize("controls", [False, True])
def test_a_run_calls_each_family_once_on_the_batch(monkeypatch, mode,
                                                   controls):
    """Neither mode runs a family point by point unless it raised on the
    batch, nor once per c: every family call of a healthy run takes all its
    points and the whole sweep."""
    shapes = []
    for name in ("check_axioms", "check_cr_form", "check_lemma_suite",
                 "check_naturality", "_frame_records", "fault_wrong_c",
                 "fault_levi_civita", "_dropped_torsion_control"):
        def counted(*args, _fn=getattr(runner, name), **kwargs):
            shapes.append(next(a.shape for a in args
                               if isinstance(a, np.ndarray)))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(runner, name, counted)
    rep = run_suite(RunConfig(example_id="r5-perturbed-J", points=3, seed=2,
                              mode=mode, c_values=CS,
                              negative_controls=controls))
    assert all(r["note"] == "" for r in rep.records)
    if controls:
        assert rep.ok
    else:   # the by-design failures of the sweep, and no other
        assert {(r["name"], r["variant"]) for r in rep.records
                if not r["passed"]} == {("cr-form-xi", "c=-1"),
                                        ("cr-form-xi", "c=1")}
    maps = len(_CAT["r5-perturbed-J"].maps)
    assert len(shapes) == (3 if controls else 4 + maps)
    assert set(shapes) == {(3, 5)}
