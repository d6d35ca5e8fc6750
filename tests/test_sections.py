"""Sections with 1-jets and the einsum-built connection table, against the
closure path they replace in ``ad`` mode."""

import numpy as np

from triadlab import DiffEngine, catalog
from triadlab.connections import (LeviCivitaConnection, TriadConnection,
                                  nijenhuis, tensor_B1, tensor_B2)
from triadlab.contact import (const_field, j_image, j_section, reeb_section,
                              xi_section)
from triadlab.engine import Section
from triadlab.frames import build_unitary_frame

from oracles import metric_pair, nijenhuis_closures

_CAT = catalog()
TOL = 1e-13


def _cases(engine=None):
    """(example id, triad, point, rng) at 2 points of every catalog example."""
    for ex_id, spec in _CAT.items():
        t = spec.build(engine)
        rng = np.random.default_rng(71)
        for p in t.sample_points(2, seed=70):
            yield ex_id, t, p, rng


def _sections(t, rng):
    y = xi_section(t, rng.standard_normal(t.dim))
    z = xi_section(t, rng.standard_normal(t.dim))
    w = const_field(rng.standard_normal(t.dim))
    return {"xi": y, "j-image-xi": j_image(t, y),
            "j-image-const": j_image(t, w), "reeb": reeb_section(t),
            "const": w, "metric-pair": metric_pair(t, y, z),
            "j": j_section(t)}


def _with_coframe(t, p, secs):
    """``secs`` plus the coframe of a unitary frame frozen at p."""
    return dict(secs, coframe=build_unitary_frame(t, p, seed=3)
                .coframe_section())


def _close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.max(np.abs(a - b)) <= TOL * max(1.0, np.max(np.abs(b)))


def test_section_jets_match_dual_jacobians_of_their_closures():
    for ex_id, t, p, rng in _cases():
        for name, sec in _with_coframe(t, p, _sections(t, rng)).items():
            value, jac = sec.jet(p)
            assert _close(value, sec.fn(p)), (ex_id, name)
            assert _close(jac, t.engine.jacobian(sec.fn, p)), (ex_id, name)


def test_engine_reads_jets_only_in_ad_mode_at_float_points():
    d = 3
    p = np.array([0.1, -0.2, 0.3])
    v = np.array([1.0, 2.0, -1.0])
    fake = Section(lambda q: q * q, lambda q: (q * q, np.full((d, d), 7.0)))
    ad, fd = DiffEngine("ad"), DiffEngine("fd")
    assert np.array_equal(ad.jacobian(fake, p), np.full((d, d), 7.0))
    assert np.array_equal(ad.deriv(fake, p, v), np.full(d, 14.0))
    # fd differentiates the closure: d(q*q) along v is 2 q v.
    assert np.allclose(fd.deriv(fake, p, v), 2.0 * p * v, atol=1e-8)
    # At a dual point (a nested pass) the closure runs, not the jet.
    nested = ad.jacobian(lambda q: ad.deriv(fake, q, v), p)
    assert np.allclose(nested, np.diag(2.0 * v), atol=1e-14)


def test_nijenhuis_on_sections_matches_bare_closures():
    for ex_id, t, p, rng in _cases():
        secs = _sections(t, rng)
        fields = [secs["xi"], xi_section(t, rng.standard_normal(t.dim)),
                  secs["const"], secs["reeb"]]
        for a in fields:
            for b in fields[:2]:
                with_jets = nijenhuis(t, a, b, p)
                oracle = nijenhuis_closures(t, a.fn, b.fn, p)
                assert _close(with_jets, oracle), ex_id


def test_fd_derivatives_of_sections_are_those_of_their_closures():
    for ex_id, t, p, rng in _cases(DiffEngine("fd")):
        u = rng.standard_normal(t.dim)
        for name, sec in _with_coframe(t, p, _sections(t, rng)).items():
            got = np.asarray(t.engine.deriv(sec, p, u))
            want = np.asarray(t.engine.deriv(sec.fn, p, u))
            assert got.tobytes() == want.tobytes(), (ex_id, name)


def test_gamma_table_matches_levi_civita_plus_corrections():
    for ex_id, t, p, rng in _cases():
        lc = LeviCivitaConnection(t)
        eye = np.eye(t.dim)
        for b1_sign in (1.0, -1.0):
            for c in (-1.0, 0.0, 1.0):
                table = TriadConnection(t, c, b1_sign=b1_sign).gamma_tensor(p)
                # The table lives in the triad's store: a second connection
                # with the same (c, b1_sign) reads the same object, a
                # flipped B1 another one.
                twin = TriadConnection(t, c, b1_sign=b1_sign).gamma_tensor(p)
                flipped = TriadConnection(t, c, b1_sign=-b1_sign)
                assert twin is table, (ex_id, c, b1_sign)
                assert flipped.gamma_tensor(p) is not table, (ex_id, c)
                for i in range(t.dim):
                    for j in range(t.dim):
                        u, v = eye[i], eye[j]
                        want = (lc.gamma_apply(p, u, v)
                                + b1_sign * tensor_B1(t, u, v, p)
                                + tensor_B2(t, c, u, v, p))
                        assert _close(table[:, i, j], want), (ex_id, c, i, j)


def test_coframe_jacobian_table_is_the_jet_in_ad_and_the_closure_in_fd():
    for engine in (DiffEngine("ad"), DiffEngine("fd")):
        for ex_id, t, p, rng in _cases(engine):
            frame = build_unitary_frame(t, p, seed=3)
            sec = frame.coframe_section()
            want = (sec.jet(p)[1] if engine.mode == "ad"
                    else engine.jacobian(sec.fn, p))
            assert np.array_equal(frame.jac_coframe_at(p), want), ex_id


def test_a_section_builds_its_jet_once_per_point_in_a_row_of_reads():
    builds = []

    def jet(q):
        builds.append(q.tobytes())
        return q * q, np.diag(2.0 * q)

    sec = Section(lambda q: q * q, jet)
    eng = DiffEngine("ad")
    p, q = np.array([0.1, -0.2, 0.3]), np.array([0.4, 0.5, -0.6])
    jac = eng.jacobian(sec, p)
    assert np.array_equal(eng.deriv(sec, p, np.ones(3)), 2.0 * p)
    assert np.array_equal(eng.jacobian(sec, p.copy()), jac)
    assert builds == [p.tobytes()]
    eng.jacobian(sec, q)
    eng.jacobian(sec, p)          # only the last point is kept
    assert builds == [p.tobytes(), q.tobytes(), p.tobytes()]


def test_ad_lemma_suite_builds_fewer_jets_than_it_reads(monkeypatch):
    """Each section the lemma suite's drawn records read is read more than
    once at the point; its jet is built once, and the residuals keep their
    bits.  (The axioms read whole tables and no section.)"""
    reads, builds = [], []
    jet = Section.jet

    def counted(self, p):         # the lists keep every section alive
        reads.append(self)
        if self._last[0] != p.tobytes():
            builds.append(self)
        return jet(self, p)

    from triadlab.checks import check_lemma_suite
    t = _CAT["r5-perturbed-J"].build()
    p = t.sample_points(1, seed=3)[0]
    want = [r.residual for r in check_lemma_suite(t, p)]
    t = _CAT["r5-perturbed-J"].build()
    monkeypatch.setattr(Section, "jet", counted)
    got = [r.residual for r in check_lemma_suite(t, p)]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert len(builds) == len({id(s) for s in builds}) < len(reads)
