"""Fields as plain closures, differentiated from the point's one identity
seed, and the einsum-built connection table, against the formulas and the
closure paths they replace."""

import numpy as np

from triadlab import ContactTriad, DiffEngine, catalog
from triadlab.ad import Dual
from triadlab.connections import (LeviCivitaConnection, TriadConnection,
                                  b1_table, nijenhuis, tensor_B1, tensor_B2)
from triadlab.contact import xi_section
from triadlab.frames import build_unitary_frame

from oracles import (coframe_jacobian, const_field, j_field, j_image,
                     j_image_jacobian, nijenhuis_closures, pair, xi_field,
                     xi_section_jacobian)

_CAT = catalog()
TOL = 1e-13


def _cases(engine=None):
    """(example id, triad, point, rng) at 2 points of every catalog example."""
    for ex_id, spec in _CAT.items():
        t = spec.build(engine)
        rng = np.random.default_rng(71)
        for p in t.sample_points(2, seed=70):
            yield ex_id, t, p, rng


def _close(a, b, tol=TOL):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.max(np.abs(a - b)) <= tol * max(1.0, np.max(np.abs(b)))


def _jet_gaps(t, p, rng):
    """{field: (engine Jacobian, formula)} for a distribution section, the
    J-images of a section and of a constant field, and a coframe."""
    w, v = rng.standard_normal(t.dim), rng.standard_normal(t.dim)
    y, c = xi_field(t, w), const_field(v)
    col = xi_section(t, w[:, None])
    frame = build_unitary_frame(t, p, seed=3)
    jac = t.engine.jacobian
    return {"xi": (jac(y, p), xi_section_jacobian(t, w, p)),
            "xi-column": (jac(col, p)[..., 0, :],
                          xi_section_jacobian(t, w, p)),
            "j-image-xi": (jac(j_field(t, y), p), j_image_jacobian(t, y, p)),
            "j-image-column": (jac(j_image(t, col), p)[..., 0, :],
                               j_image_jacobian(t, y, p)),
            "j-image-const": (jac(j_field(t, c), p),
                              j_image_jacobian(t, c, p)),
            "coframe": (jac(frame.coframe_any, p), coframe_jacobian(frame, p))}


def test_section_jets_match_dual_jacobians_of_their_closures():
    """The Jacobian formulas of the fields the checks differentiate, read
    from the triad's tables, against the ``ad`` Jacobians of the closures."""
    for ex_id, t, p, rng in _cases():
        for name, (got, want) in _jet_gaps(t, p, rng).items():
            assert _close(got, want, 1e-12), (ex_id, name)


def test_fd_jacobians_match_the_jet_formulas():
    """The same formulas over ``fd`` tables: the product rule holds for
    central differences only up to the stencil's O(h^2) error."""
    for ex_id, t, p, rng in _cases(DiffEngine("fd")):
        for name, (got, want) in _jet_gaps(t, p, rng).items():
            assert _close(got, want, 1e-7), (ex_id, name)


def test_a_dual_that_is_not_the_seed_gets_its_own_values():
    """A dual at a float point reads the seed's tables only if its tangent
    is the seed the engine holds and its level is theirs."""
    t = _CAT["r5-perturbed-J"].build(DiffEngine())
    d = t.dim
    p = t.sample_points(1, seed=72)[0]
    jac = t.jac_reeb_at(p)                      # builds the seed's tables
    seed = t.engine._eyes[p.shape]
    shared = t.reeb_any(Dual(1, p, seed))
    assert shared is t.reeb_any(Dual(1, p, seed))
    assert np.array_equal(shared.du, jac.T)
    V = np.random.default_rng(73).standard_normal((d, d))
    for q in (Dual(1, p, V), Dual(1, p, seed.copy())):
        own = t.reeb_any(q)
        assert own is not shared and own.du is not shared.du
        assert _close(own.du, np.einsum('al,kl->ka', jac, q.du))
    # a seed made inside a running pass has a higher level and its own
    # tables in the point's entry
    inside = []
    t.engine.jacobian(
        lambda q: inside.append(t.engine.jacobian(t.reeb_any, p)) or q, p)
    tables = t._cache[(p.shape, p.tobytes())]
    assert tables[("reeb", 2)] is not tables[("reeb", 1)] is shared
    assert tables[("reeb", 2)].lvl == 2
    assert np.array_equal(inside[0], jac)


def test_nijenhuis_on_sections_matches_bare_closures():
    for ex_id, t, p, rng in _cases():
        fields = [xi_field(t, rng.standard_normal(t.dim)),
                  xi_field(t, rng.standard_normal(t.dim)),
                  const_field(rng.standard_normal(t.dim)), t.reeb_any]
        for a in fields:
            for b in fields[:2]:
                stacked = nijenhuis(t, pair(a, b), p)[0]
                oracle = nijenhuis_closures(t, a, b, p)
                assert _close(stacked, oracle), ex_id


def test_gamma_table_matches_levi_civita_plus_corrections():
    for ex_id, t, p, rng in _cases():
        lc = LeviCivitaConnection(t)
        eye = np.eye(t.dim)
        # fault_flipped_b1's table: the c = -1 member with B1 negated
        flipped = t.christoffel_at(p) - b1_table(t, p)
        for c in (-1.0, 0.0, 1.0):
            table = TriadConnection(t, c).gamma_tensor(p)
            # The table lives in the triad's store: a second connection
            # with the same c reads the same object, a flipped B1 another
            # one.
            twin = TriadConnection(t, c).gamma_tensor(p)
            assert twin is table, (ex_id, c)
            assert flipped is not table, (ex_id, c)
            for i in range(t.dim):
                for j in range(t.dim):
                    u, v = eye[i], eye[j]
                    b1 = tensor_B1(t, u, v, p)
                    want = (lc.gamma_apply(p, u, v) + b1
                            + tensor_B2(t, c, u, v, p))
                    assert _close(table[:, i, j], want), (ex_id, c, i, j)
                    if c == -1.0:
                        assert _close(flipped[:, i, j],
                                      lc.gamma_apply(p, u, v) - b1), \
                            (ex_id, i, j)


def test_coframe_jacobian_table_is_the_jet_in_ad_and_the_closure_in_fd():
    """In ``ad`` the table matches -theta dE theta to rounding; in ``fd`` it
    is the closure's stencil Jacobian bit for bit."""
    for engine in (DiffEngine("ad"), DiffEngine("fd")):
        for ex_id, t, p, rng in _cases(engine):
            frame = build_unitary_frame(t, p, seed=3)
            got = frame.jac_coframe_at(p)
            if engine.mode == "ad":
                assert _close(got, coframe_jacobian(frame, p), 1e-12), ex_id
            else:
                want = engine.jacobian(frame.coframe_any, p)
                assert np.array_equal(got, want), ex_id


def _count_seed_reeb_solves(monkeypatch):
    """A list that grows by one for each Reeb solve at a dual whose value
    is a float point or batch."""
    solves = []
    impl = ContactTriad._reeb_impl

    def counted(self, q):
        if isinstance(q, Dual) and isinstance(q.re, np.ndarray):
            solves.append(q.lvl)
        return impl(self, q)

    monkeypatch.setattr(ContactTriad, "_reeb_impl", counted)
    return solves


def test_ad_jacobian_tables_run_the_reeb_solve_at_the_seed_once(monkeypatch):
    """The Jacobians of X, J, g and the frame share the seed's pipeline:
    one Reeb solve at the point, one more at a batch of its shape."""
    solves = _count_seed_reeb_solves(monkeypatch)
    for ex_id in ("r5-perturbed-J", "t3-tight"):
        t = _CAT[ex_id].build(DiffEngine())
        pts = t.sample_points(3, seed=74)
        for q in (pts[0], pts):
            del solves[:]
            frame = build_unitary_frame(t, q, seed=1)
            t.jac_reeb_at(q), t.jac_j_at(q), t.dmetric_at(q)
            frame.jac_frame_at(q), frame.jac_coframe_at(q)
            assert solves == [1], (ex_id, q.shape)


def test_ad_lemma_suite_runs_the_reeb_solve_at_the_seed_once(monkeypatch):
    """Every field the lemma suite differentiates at the point, its drawn
    sections and J-images among them, reads the seed's one Reeb solve, and
    the residuals keep their bits."""
    from triadlab.checks import check_lemma_suite
    t = _CAT["r5-perturbed-J"].build()
    p = t.sample_points(1, seed=3)[0]
    want = list(check_lemma_suite(t, p).values())
    solves = _count_seed_reeb_solves(monkeypatch)
    t = _CAT["r5-perturbed-J"].build()
    got = list(check_lemma_suite(t, p).values())
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert solves == [1]
