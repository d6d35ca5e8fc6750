"""Directional derivatives: ``deriv`` along v is the Jacobian contracted
with v.

At a float point or batch ``deriv`` reads the point's one identity seed, in
both modes, so every field reads the same seed.  In ``fd`` mode it carries
the bits of the Jacobian contracted with v, alone or as one row of a stack
of directions; in ``ad`` mode it agrees with one dual pass along v to
rounding.
"""

import numpy as np
import pytest

from triadlab import DiffEngine, catalog
from triadlab.checks import check_axioms
from triadlab.connections import nijenhuis, triad_connection
from triadlab.contact import ContactTriad, xi_section

from oracles import (const_field, j_field, j_image, metric_pair,
                     nijenhuis_closures, pair, xi_field)

_CAT = catalog()
PIPELINES = ("lam_any", "dlam_any", "reeb_any", "pi_any", "j_any",
             "metric_any")


def _fields(t, rng):
    """The fields the checks differentiate, plus the triad's pipelines."""
    d = t.dim
    y = xi_field(t, rng.standard_normal(d))
    z = xi_field(t, rng.standard_normal(d))
    w = const_field(rng.standard_normal(d))
    F = xi_section(t, rng.standard_normal((d, 2)))
    out = {"xi": y, "j-image-xi": j_field(t, y),
           "j-image-const": j_field(t, w), "const": w,
           "metric-pair": metric_pair(t, y, z),
           "xi-columns": F, "j-image-columns": j_image(t, F)}
    out.update((name, getattr(t, name)) for name in PIPELINES)
    return out


def _cases(mode):
    for ex_id, spec in _CAT.items():
        t = spec.build(DiffEngine(mode))
        rng = np.random.default_rng(41)
        p = t.sample_points(1, seed=40)[0]
        yield ex_id, t, p, rng.standard_normal((4, t.dim)), _fields(t, rng)


def _bytes(x):
    return np.asarray(x, dtype=float).tobytes()


def _contract(jac, V, out_ndim):
    """jac's last axis met with each row of V, as (k, *batch, *out)."""
    V = V.reshape(V.shape[:-1] + (1,) * out_ndim + V.shape[-1:])
    return np.einsum('...l,...l->...', jac, V)


def test_fd_derivs_rows_are_deriv_bit_for_bit():
    """The Jacobian contracted with every row of V at once, as a stack of
    columns is, has in each row the bits of ``deriv`` along that row."""
    for ex_id, t, p, V, fields in _cases("fd"):
        for name, f in fields.items():
            jac = t.engine.jacobian(f, p)
            rows = _contract(jac, V, jac.ndim - 1)
            for row, v in zip(rows, V):
                assert _bytes(row) == _bytes(t.engine.deriv(f, p, v)), \
                    (ex_id, name)


def test_ad_derivs_rows_are_deriv_to_rounding():
    """One dual pass along every row of V against ``deriv`` along each
    row, the Jacobian contracted with it."""
    for ex_id, t, p, V, fields in _cases("ad"):
        for name, f in fields.items():
            rows = np.asarray(t.engine._pass(f, p, V), dtype=float)
            want = np.array([t.engine.deriv(f, p, v) for v in V], dtype=float)
            assert rows.shape == want.shape, (ex_id, name)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(rows - want)) <= 1e-13 * scale, (ex_id, name)


def test_derivs_of_a_constant_closure_are_zero_rows():
    p = np.array([0.1, 0.2, 0.3])
    eng = DiffEngine("ad")
    got = np.stack([eng.deriv(lambda q: np.ones(4), p, v) for v in np.eye(3)])
    assert got.shape == (3, 4) and not got.any()
    got = eng._pass(lambda q: np.ones(4), p, np.eye(3)[:2])
    assert got.shape == (2, 4) and not got.any()


def test_fd_four_bracket_nijenhuis_is_the_closure_oracle_bit_for_bit():
    for ex_id, t, p, _, fields in _cases("fd"):
        rng = np.random.default_rng(42)
        pairs = [fields["xi"], xi_field(t, rng.standard_normal(t.dim)),
                 fields["const"], fields["reeb_any"]]
        for a in pairs:
            for b in pairs[:2]:
                got = nijenhuis(t, pair(a, b), p)[0]
                want = nijenhuis_closures(t, a, b, p)
                assert _bytes(got) == _bytes(want), ex_id


def _count_batch_reeb_solves(monkeypatch):
    """A list that grows by one for each Reeb solve on a float batch."""
    solves = []
    impl = ContactTriad._reeb_impl

    def counted(self, q):
        if isinstance(q, np.ndarray) and q.ndim > 1:
            solves.append(q.shape)
        return impl(self, q)

    monkeypatch.setattr(ContactTriad, "_reeb_impl", counted)
    return solves


@pytest.mark.parametrize("ex_id", ["r3-standard", "r5-perturbed-J",
                                   "t3-tight"])
def test_fd_nijenhuis_and_axioms_make_no_batch_reeb_solve(monkeypatch, ex_id):
    """Once the point's own tables are built, one Nijenhuis tensor and one
    axiom battery differentiate every field on the point's identity
    stencil, whose Reeb field is already in the store."""
    solves = _count_batch_reeb_solves(monkeypatch)
    t = _CAT[ex_id].build(DiffEngine("fd"))
    p = t.sample_points(1, seed=43)[0]
    rng = np.random.default_rng(44)
    t.j_any(p)
    triad_connection(t, 0.0).gamma_tensor(p)
    assert solves
    del solves[:]

    nijenhuis(t, xi_section(t, rng.standard_normal((t.dim, 2))), p)
    check_axioms(t, (0.0,), p)[0]
    assert solves == []


def test_fd_derivs_is_the_jacobian_contracted_with_v_bit_for_bit():
    """At a point and at a batch, along a direction shared by the batch and
    along one direction per point."""
    for ex_id, t, p, V, fields in _cases("fd"):
        P = t.sample_points(3, seed=47)
        per_point = np.random.default_rng(48).standard_normal(
            (len(V),) + P.shape)
        for name, f in fields.items():
            for q, W in ((p, V), (P, V), (P, per_point)):
                jac = t.engine.jacobian(f, q)
                for w in W:
                    # a shared direction stands behind the batch's axes
                    w1 = w.reshape((1,) * (q.ndim - w.ndim) + w.shape)
                    want = _contract(jac, w1[None], jac.ndim - q.ndim)[0]
                    got = t.engine.deriv(f, q, w)
                    assert got.shape == want.shape, (ex_id, name, w.shape)
                    assert _bytes(got) == _bytes(want), (ex_id, name, w.shape)


def test_fd_derivs_at_a_float_batch_differentiates_every_point_along_every_row():
    P = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    eng = DiffEngine("fd")
    got = np.stack([eng.deriv(lambda q: q[..., 0] * q[..., 1], P, v)
                    for v in np.eye(3)[:2]])
    assert np.allclose(got.T, [[2.0, 1.0], [5.0, 4.0]], atol=1e-8)


@pytest.mark.parametrize("batch", [4, 3])
def test_fd_derivs_at_a_float_batch_is_per_point_bit_for_bit(batch):
    """Batch size equal to the number of directions, and different from
    it."""
    for ex_id, t, _, V, fields in _cases("fd"):
        P = t.sample_points(batch, seed=45)
        for name, f in fields.items():
            for v in V:
                got = t.engine.deriv(f, P, v)
                assert len(got) == batch, (ex_id, name)
                for i, q in enumerate(P):
                    assert _bytes(got[i]) == _bytes(t.engine.deriv(f, q, v)), \
                        (ex_id, name, i)


@pytest.mark.parametrize("mode", ["fd", "ad"])
def test_jacobian_is_derivs_along_the_identity(mode):
    """Bit for bit in ``fd``, at a point and at a float batch; equal values
    in ``ad`` at a point."""
    for ex_id, t, p, _, fields in _cases(mode):
        eye = np.eye(t.dim)
        points = [p] + ([t.sample_points(3, seed=46)] if mode == "fd" else [])
        for q in points:
            for name, f in fields.items():
                jac = np.asarray(t.engine.jacobian(f, q), dtype=float)
                for l in range(t.dim):
                    row = np.asarray(t.engine.deriv(f, q, eye[l]), dtype=float)
                    if mode == "fd":
                        assert _bytes(jac[..., l]) == _bytes(row), \
                            (ex_id, name, l)
                    else:
                        assert np.array_equal(jac[..., l], row), \
                            (ex_id, name, l)
