"""The drawn records: per-point draws, with the samples as one stacked axis.

Each record that draws fields reads every point's own generator, keyed by
the point's coordinates.  The draws the three records differentiate are
the columns of one field, whose columns and J-images one Jacobian pass
differentiates.  Each stacked column must match the per-sample form of
its bracket, Lie derivative or tensor (``tests/oracles.py``).
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import triadlab
from triadlab import DiffEngine, catalog
from triadlab.checks import check_lemma_suite, draws, field_rng
from triadlab.connections import (field_jet, j_brackets, nijenhuis, tensor_P,
                                  torsion_tensor, triad_connection)
from triadlab.contact import xi_section
from triadlab.engine import columns, lie_endo

from oracles import (j_field, lie_bracket, lie_derivative_endo_fields,
                     nijenhuis_closures, xi_field)

_CAT = catalog()


def test_two_points_of_a_batch_read_different_draws(monkeypatch):
    """Every drawn section of the lemma suite holds one stack of draws per
    point; two points of a batch read different ones, and a point alone
    reads the draws it reads in the batch."""
    seen = []

    def spy(triad, W):
        seen.append(np.asarray(W))
        return xi_section(triad, W)
    monkeypatch.setattr("triadlab.checks.xi_section", spy)
    t = _CAT["r5-perturbed-J"].build()
    pts = t.sample_points(2, seed=7)
    check_lemma_suite(t, pts, seed=7)
    batch = seen[:]
    assert batch
    for W in batch:
        assert W.shape[:2] == (2, t.dim)
        assert not np.array_equal(W[0], W[1])
    del seen[:]
    check_lemma_suite(t, pts[1:], seed=7)
    assert [W.tobytes() for W in seen] == [W[1:].tobytes() for W in batch]


def test_draws_are_keyed_by_seed_record_label_and_point():
    t = _CAT["r3-standard"].build()
    pts = t.sample_points(3, seed=1)
    W = draws(t, pts, 0, "p-antisymmetrized-bracket", (3, 2))
    assert W.shape == (3, 3, 2)
    assert np.array_equal(W[2], draws(t, pts[2], 0,
                                      "p-antisymmetrized-bracket", (3, 2)))
    for other in (draws(t, pts, 1, "p-antisymmetrized-bracket", (3, 2)),
                  draws(t, pts, 0, "torsion-split-values", (3, 2)),
                  draws(t.scaled(2.0), pts, 0, "p-antisymmetrized-bracket",
                        (3, 2))):
        assert not np.isin(W, other).any()


def test_the_point_and_draw_streams_are_pinned():
    """Known answers: the first sample point of r3-standard at seed 0 and
    the first draws of ``field_rng(1, "alpha")``, so that any change to
    either stream shows."""
    p = _CAT["r3-standard"].build().sample_points(1, seed=0)[0]
    assert p.tolist() == [1.0332655545751441, 0.7738632088209076,
                          -0.238285257507465]
    rng = field_rng(1, "alpha")
    assert [rng.gauss(0.0, 1.0) for _ in range(3)] == [
        1.2441634131042938, 0.09252776737553653, -0.020659908805504057]


def test_serving_requests_does_not_load_numpy_random():
    """A fresh interpreter serves an ``ad`` request, an ``fd`` request and a
    controls request with no module of ``numpy.random`` loaded."""
    code = "\n".join([
        "import sys",
        "from triadlab import RunConfig, emit_report, run_suite",
        "for kw in ({}, {'mode': 'fd'}, {'negative_controls': True}):",
        "    emit_report(run_suite(RunConfig('r5-perturbed-J', points=2,"
        " **kw)), 'json')",
        "loaded = [m for m in sys.modules if m.startswith('numpy.random')]",
        "sys.exit('loaded: %s' % loaded if loaded else 0)"])
    src = os.path.dirname(os.path.dirname(os.path.abspath(triadlab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("mode", ["ad", "fd"])
@pytest.mark.parametrize("ex_id", sorted(_CAT))
def test_stacked_columns_match_their_per_sample_references(ex_id, mode):
    """At a 2-point batch with each point's own draws, every column of the
    stacked brackets, Nijenhuis tensor, Lie derivatives of J, P tensor and
    torsion matches the per-sample form on the one-vector fields of that
    column, taken at each point alone: in ``ad`` to 1e-13 of the reference's
    scale, in ``fd`` bit for bit, since each column of a section or a
    J-image is its own stacked matvec."""
    t = _CAT[ex_id].build(DiffEngine(mode))
    eng, d, m = t.engine, t.dim, 2
    pts = t.sample_points(2, seed=51)
    W = np.random.default_rng(52).standard_normal((2, d, 2 * m))
    F = xi_section(t, W)
    J, dJ = t.j_any(pts), t.jac_j_at(pts)
    y, z = np.split(columns(F(pts)), 2)
    conn = triad_connection(t, 0.0)
    (f, jf), (df, djf) = jet = field_jet(t, F, pts)
    stacked = {"brackets": np.array(j_brackets(jet, slice(m), slice(m, None))),
               "nijenhuis": nijenhuis(t, F, pts),
               "lie": lie_endo(f, df, J, dJ),
               "lie-j": lie_endo(jf, djf, J, dJ),
               "tensor-p": tensor_P(t, y, z, pts),
               "torsion": torsion_tensor(conn, pts, y, z)}
    worst = {}
    for k, q in enumerate(pts):
        for i in range(m):
            Y, Z = xi_field(t, W[k, :, i]), xi_field(t, W[k, :, m + i])
            JY, JZ = j_field(t, Y), j_field(t, Z)
            yq, zq = Y(q), Z(q)
            refs = {
                "brackets": (stacked["brackets"][:, i, k], np.array(
                    [lie_bracket(eng, A, B, q)
                     for A, B in ((JY, JZ), (Y, Z), (Y, JZ), (JY, Z))])),
                "nijenhuis": (stacked["nijenhuis"][i, k],
                              nijenhuis_closures(t, Y, Z, q)),
                "tensor-p": (stacked["tensor-p"][i, k],
                             tensor_P(t, yq, zq, q)),
                "torsion": (stacked["torsion"][i, k],
                            torsion_tensor(conn, q, yq, zq)),
            }
            for j, X in ((i, Y), (m + i, Z)):
                refs["lie", j] = (stacked["lie"][j, k],
                                  lie_derivative_endo_fields(eng, X, t.j_any,
                                                             q))
                refs["lie-j", j] = (stacked["lie-j"][j, k],
                                    lie_derivative_endo_fields(
                                        eng, j_field(t, X), t.j_any, q))
            for name, (got, want) in refs.items():
                scale = max(1.0, np.max(np.abs(want)))
                gap = np.max(np.abs(got - want)) / scale
                worst[name] = max(worst.get(name, 0.0), gap)
    bound = 1e-13 if mode == "ad" else 0.0
    assert all(gap <= bound for gap in worst.values()), worst


def test_an_ad_request_makes_one_jacobian_pass_for_the_drawn_records(
        monkeypatch):
    """One r7-standard ``ad`` request at 2 points makes 17 Jacobian passes:
    one for the three drawn records and one base batch for the sample
    points and the map's images.  The pulled triad's J at the translated
    seed reads the base seed's tables at the map's images, so no d lam pass
    runs there, as one did (18) while a translated seed at a batch was not
    read as a seed.  With a pair of passes per drawn record and per point
    set it made 27, with a sample loop per record 59."""
    calls = []
    jacobian = DiffEngine.jacobian

    def counted(self, f, p):
        calls.append(f)
        return jacobian(self, f, p)
    monkeypatch.setattr(DiffEngine, "jacobian", counted)
    report = triadlab.run_suite(triadlab.RunConfig(
        example_id="r7-standard", points=2, mode="ad"))
    assert not any(r["note"] for r in report.records)
    assert len(calls) == 17, len(calls)

