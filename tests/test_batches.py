"""Batched evaluation: an ``fd`` stencil is one call on a stack of points,
and an ``ad`` pass seeds a whole batch.

Every closure the engine differentiates takes leading batch axes, and each
entry of a float batch must carry the bits of its single-point evaluation;
that is what keeps ``fd`` reports byte-identical to a point-by-point
stencil.  An ``ad`` derivative at a batch matches the per-point one to
rounding.
"""

import math

import numpy as np
import pytest

from triadlab import ContactTriad, DiffEngine, ad, catalog, standard_triad
from triadlab.checks import pullback_triad
from triadlab.contact import xi_section
from triadlab.frames import build_unitary_frame

from oracles import const_field, j_field, j_image, metric_pair, xi_field

_CAT = catalog()


def _fd():
    return DiffEngine(mode="fd", step=1e-4)


def _assert_rows_match(batched, single, pts):
    """``batched(pts)`` equals ``single(q)`` at every point q, bit for bit."""
    got = np.asarray(batched(pts), dtype=float)
    flat = pts.reshape(-1, pts.shape[-1])
    assert got.shape[:pts.ndim - 1] == pts.shape[:-1]
    got = got.reshape((len(flat),) + got.shape[pts.ndim - 1:])
    for row, q in zip(got, flat):
        want = np.asarray(single(q.copy()), dtype=float)
        assert row.shape == want.shape
        assert row.tobytes() == want.tobytes()


def _sections(t, rng):
    d = t.dim
    Yf = xi_field(t, rng.standard_normal(d))
    Zf = xi_field(t, rng.standard_normal(d))
    w = rng.standard_normal(d)
    F = xi_section(t, rng.standard_normal((d, 2)))
    return {"xi": Yf, "j-image": j_field(t, Yf), "reeb": t.reeb_any,
            "const": const_field(w),
            "j-image-const": j_field(t, const_field(w)),
            "metric-pair": metric_pair(t, Yf, Zf),
            "xi-columns": F, "j-image-columns": j_image(t, F)}


@pytest.mark.parametrize("ex_id", sorted(_CAT))
def test_batches_match_points(ex_id):
    spec = _CAT[ex_id]
    tb, tp = spec.build(_fd()), spec.build(_fd())
    d = tb.dim
    pts = tb.sample_points(4, seed=21)
    nested = tb.sample_points(4, seed=22).reshape(2, 2, d)
    for name in ("lam_any", "dlam_any", "reeb_any", "pi_any", "j_any",
                 "metric_any"):
        for batch in (pts, nested):
            _assert_rows_match(getattr(tb, name), getattr(tp, name), batch)

    sb = _sections(tb, np.random.default_rng(3))
    sp = _sections(tp, np.random.default_rng(3))
    for name in sb:
        _assert_rows_match(sb[name], sp[name], pts)

    for m in spec.maps:
        _assert_rows_match(m.forward, m.forward, pts)
        _assert_rows_match(m.inverse, m.inverse, pts)
        _assert_rows_match(m.differential, m.differential, pts)
        _assert_rows_match(pullback_triad(tb, m).j_any,
                           pullback_triad(tp, m).j_any, pts)

    # frames are evaluated near the point they were built at
    p0 = pts[0]
    near = p0 + 0.01 * np.random.default_rng(4).standard_normal((3, d))
    fb = build_unitary_frame(tb, p0, seed=1)
    fp = build_unitary_frame(tp, p0, seed=1)
    _assert_rows_match(fb.matrix_any, fp.matrix_any, near)
    _assert_rows_match(fb.coframe_any, fp.coframe_any, near)


def test_batched_elementary_functions_match_math():
    rng = np.random.default_rng(9)
    x = rng.uniform(-20.0, 20.0, (3, 50))
    for fn, ref in ((ad.exp, math.exp), (ad.sin, math.sin),
                    (ad.cos, math.cos), (ad.sqrt, math.sqrt)):
        arg = np.abs(x) if ref is math.sqrt else x
        got = fn(arg)
        want = np.array([[ref(v) for v in row] for row in arg])
        assert got.shape == arg.shape
        assert got.tobytes() == want.tobytes(), ref.__name__
        assert fn(arg[0]).tobytes() == want[0].tobytes()

    s, c = x[0, :5], x[1, :5]
    got = ad.array([[0.0, -s], [c, 1.0]])
    assert got.shape == (5, 2, 2)
    for i in range(5):
        want = np.array([[0.0, -s[i]], [c[i], 1.0]])
        assert got[i].tobytes() == want.tobytes()
    got = ad.stack([s, 0.0, c])
    assert got.shape == (5, 3)
    for i in range(5):
        assert got[i].tobytes() == np.array([s[i], 0.0, c[i]]).tobytes()
    assert ad.array([1.0, 2.0]).tobytes() == np.array([1.0, 2.0]).tobytes()


def test_fd_rejects_closures_that_drop_the_batch_axes():
    fd = _fd()
    p = np.array([0.1, 0.2, 0.3])
    w = np.array([1.0, 2.0, 3.0])
    for f in (lambda q: w, lambda q: np.sum(q)):
        with pytest.raises(ValueError, match="batch"):
            fd.deriv(f, p, w)
        with pytest.raises(ValueError, match="batch"):
            fd.jacobian(f, p)


def _closures(t, pts, w):
    """The triad's pipelines and the fields the checks differentiate, on
    triad t; the coframe's columns are frozen at the batch pts, and the
    "own" fields take w, one vector per point of pts or the one vector of a
    point, as the one column of a section."""
    fields = dict(_sections(t, np.random.default_rng(3)), lam=t.lam,
                  metric=t.metric_any, j_any=t.j_any, dlam_any=t.dlam_any)
    fields["xi-own"] = xi_section(t, w[..., None])
    fields["j-image-own"] = j_image(t, fields["xi-own"])
    fields["const-own"] = const_field(w)
    fields["coframe"] = build_unitary_frame(t, pts, seed=1).coframe_any
    return fields


def _to_rounding(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = max(1.0, np.max(np.abs(want), initial=0.0))
    return np.max(np.abs(got - want), initial=0.0) <= 1e-15 * scale


@pytest.mark.parametrize("ex_id", sorted(_CAT))
def test_ad_derivs_at_a_batch_are_each_point_to_rounding(ex_id):
    """An ``ad`` pass at a batch seeds every point at once, and every field
    reads the batch's seed tables: ``deriv`` along shared and per-point
    directions and ``jacobian`` each match the per-point results to 1e-15.
    ``dlam_any`` is the nested case: its dual pass takes d lam at a dual
    batch."""
    spec = _CAT[ex_id]
    tb, tp = spec.build(DiffEngine()), spec.build(DiffEngine())
    pts = tb.sample_points(3, seed=23)
    rng = np.random.default_rng(24)
    V = rng.standard_normal((2, tb.dim))
    W = rng.standard_normal((2, 3, tb.dim))      # two directions per point
    w = rng.standard_normal((3, tb.dim))         # a vector per point
    eng = tb.engine
    for name, f in _closures(tb, pts, w).items():
        jac = eng.jacobian(f, pts)
        dv = [eng.deriv(f, pts, v) for v in V]
        dw = [eng.deriv(f, pts, Wk) for Wk in W]
        for i, q in enumerate(pts):
            g = _closures(tp, pts, w[i])[name]
            assert _to_rounding(jac[i], tp.engine.jacobian(g, q)), \
                (ex_id, name)
            for k in range(2):
                assert _to_rounding(dv[k][i], tp.engine.deriv(g, q, V[k])), \
                    (ex_id, name)
                assert _to_rounding(dw[k][i],
                                    tp.engine.deriv(g, q, W[k, i])), \
                    (ex_id, name)


def test_a_seed_is_kept_per_batch_shape():
    """Two batches that hold the same bytes in other shapes get their own
    seeds and their own seed tables.  A seed has its full tangent shape
    ``(dim, *batch, dim)``: one identity, broadcast over the batch axes."""
    t = _CAT["r3-standard"].build(DiffEngine())
    pts = t.sample_points(4, seed=1)
    assert t.engine.jacobian(t.reeb_any, pts).shape == (4, 3, 3)
    nested = t.engine.jacobian(t.reeb_any, pts.reshape(2, 2, 3))
    assert nested.shape == (2, 2, 3, 3)
    assert _to_rounding(nested.reshape(4, 3, 3),
                        t.engine.jacobian(t.reeb_any, pts))
    eyes = t.engine._eyes
    assert eyes[(4, 3)].shape == (3, 4, 3)
    assert eyes[(2, 2, 3)].shape == (3, 2, 2, 3)
    for E in eyes.values():
        assert E.strides[1:-1] == (0,) * (E.ndim - 2)
        assert not E.flags.writeable
        one = np.eye(3).reshape((3,) + (1,) * (E.ndim - 2) + (3,))
        assert (E == one).all()
    seeded = [tables[("reeb", 1)] for tables in t._cache.values()]
    assert len(seeded) == 2 and seeded[0] is not seeded[1]


@pytest.mark.parametrize("n", [1, 2, 5])
def test_a_translated_seed_keeps_the_seed_at_every_batch_size(n):
    """A translation's image of the seed at n points has the seed itself as
    its tangent, so the store reads it as the seed at the image points."""
    t = _CAT["r3-standard"].build(DiffEngine())
    pts = t.sample_points(n, seed=4)
    E = t.engine._eye(pts.shape)
    for m in _CAT["r3-standard"].maps[:2]:          # the two translations
        moved = m.forward(ad.Dual(1, pts, E))
        assert moved.du is E
        assert moved.re.tobytes() == m.forward(pts).tobytes()


@pytest.mark.parametrize("n", [1, 2, 5])
def test_a_seed_indexed_at_a_point_is_that_points_seed(n):
    """Entry i of the seed at a batch holds point i and the identity."""
    t = _CAT["r5-standard"].build(DiffEngine())
    pts = t.sample_points(n, seed=4)
    seed = ad.Dual(1, pts, t.engine._eye(pts.shape))
    for i in range(n):
        q = seed[i]
        assert q.re.tobytes() == pts[i].tobytes()
        assert q.du.shape == (5, 5) and (q.du == np.eye(5)).all()


def _hessian(eng, f, P):
    return eng.jacobian(lambda q: eng.jacobian(f, q), P)


@pytest.mark.parametrize("n", [1, 2])
def test_a_second_derivative_of_a_stack_led_by_a_constant_is_each_point(n):
    """At a nested level the zero tangent of a constant entry has the
    stack's batch shape whichever entry is live, so a second derivative at
    a batch is the one at each point, and does not depend on where the
    constant stands."""
    eng = DiffEngine()
    P = np.random.default_rng(6).standard_normal((n, 3))
    f = lambda q: ad.stack([0.0, q[..., 0] * q[..., 1]])
    swapped = lambda q: ad.stack([q[..., 0] * q[..., 1], 0.0])
    H = _hessian(eng, f, P)
    assert H.shape == (n, 2, 3, 3)
    assert (H == _hessian(eng, swapped, P)[:, ::-1]).all()
    for i, q in enumerate(P):
        assert (H[i] == _hessian(eng, f, q)).all()
    want = np.zeros((2, 3, 3))
    want[1, 0, 1] = want[1, 1, 0] = 1.0
    assert (H == want).all()


@pytest.mark.parametrize("n", [1, 2])
def test_second_derivative_of_the_t3_reeb_flow_differential_at_a_batch(n):
    """The differential of t3-tight's reeb-flow+0.4 has the entries
    -t sin z and t cos z in its last column, behind constant entries; its
    second derivative at a batch is each point's and the closed form."""
    t = 0.4
    cmap = _CAT["t3-tight"].maps[2]
    assert cmap.label == "reeb-flow+0.4"
    eng = DiffEngine()
    P = _CAT["t3-tight"].build(eng).sample_points(n, seed=7)
    H = _hessian(eng, cmap.differential, P)
    assert H.shape == (n, 3, 3, 3, 3)
    for i, q in enumerate(P):
        assert _to_rounding(H[i], _hessian(eng, cmap.differential, q))
    want = np.zeros((n, 3, 3, 3, 3))
    want[:, 0, 2, 2, 2] = t * np.sin(P[:, 2])
    want[:, 1, 2, 2, 2] = -t * np.cos(P[:, 2])
    assert _to_rounding(H, want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_live_dual_of_lower_rank_than_the_batch_is_each_entry(n):
    """A scalar dual stacked beside a batch of n constants, in either order,
    broadcasts over the batch: at each entry the value and the tangent are
    those of the dual stacked beside that entry alone."""
    x = ad.Dual(1, 0.5, np.array([1.0, 2.0, 3.0]))
    for items, alone in (([x, np.ones(n)], [x, 1.0]),
                         ([np.ones(n), x], [1.0, x])):
        s, one = ad.stack(items), ad.stack(alone)
        assert s.re.shape == (n, 2) and s.du.shape == (3, n, 2)
        for b in range(n):
            assert (s.re[b] == one.re).all() and (s.du[:, b] == one.du).all()


def test_a_constant_field_has_the_shape_of_its_point():
    """One vector shared by a batch, or one vector per point, also on the
    ``fd`` stencil of a batch; its derivatives vanish in both modes."""
    rng = np.random.default_rng(5)
    pts, w = rng.standard_normal((3, 5)), rng.standard_normal((3, 5))
    shared, own = const_field(w[0]), const_field(w)
    assert shared(pts[0]).tobytes() == w[0].tobytes()
    assert shared(pts).shape == own(pts).shape == pts.shape
    assert own(pts).tobytes() == w.tobytes()
    assert (shared(pts) == w[0]).all()
    for mode in ("ad", "fd"):
        eng = DiffEngine(mode)
        for f in (shared, own):
            jac = eng.jacobian(f, pts)
            assert jac.shape == (3, 5, 5) and not jac.any(), mode
            assert not eng.deriv(f, pts, w).any(), mode


def test_reeb_guard_checks_every_point_of_a_batch():
    """One point of a batch that breaks the contact condition raises, and
    the message names that point, as a single-point call would."""
    t = standard_triad(1, engine=_fd())
    lam = t.lam

    def broken(q):
        bad = q[..., :1] > 1.0               # NaN wherever x > 1
        return np.where(bad, np.nan, lam(q))

    t = ContactTriad(3, broken, None, t.domain, engine=t.engine)
    pts = np.array([[0.1, 0.2, 0.3], [1.2, 0.2, 0.3], [0.4, 0.5, 0.6]])
    with pytest.raises(ValueError, match=r"contact condition") as err:
        t.reeb_any(pts)
    assert str(pts[1]) in str(err.value)
    t.reeb_any(pts[[0, 2]])
