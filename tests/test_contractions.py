"""Table contractions as stacked matmuls: each one against its einsum form,
the run path's einsum calls, and what the frame records build once."""

from collections import Counter

import numpy as np
import pytest

from triadlab import DiffEngine, LeviCivitaConnection, catalog, frames, runner
from triadlab.checks import _frame, _in_frame, _worst
from triadlab.connections import (TriadConnection, b1_table, nabla_j,
                                  nabla_metric)
from triadlab.contact import ContactTriad
from triadlab.engine import lead
from triadlab.frames import build_unitary_frame, connection_one_forms
from triadlab.runner import RunConfig, run_suite

from oracles import (b1_einsum, christoffel_einsum, in_frame_einsum,
                     lead_einsum, nabla_j_einsum, nabla_metric_einsum,
                     nijenhuis_einsum, one_forms_einsum)

SWEEP = (-1.0, 0.0, 1.0)
EXAMPLES = sorted(catalog())


def _close(a, b):
    """Equal to 1e-13 of the reference's scale (at least 1)."""
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.max(np.abs(b)))


@pytest.fixture(params=[(ex, m) for ex in EXAMPLES for m in ("ad", "fd")],
                ids=lambda e: "%s-%s" % e)
def batch(request):
    """A triad of each example in each mode, at a 3-point batch."""
    ex, mode = request.param
    t = catalog()[ex].build(DiffEngine(mode))
    return t, t.sample_points(3, 7)


def test_point_tables_match_their_einsum_forms(batch):
    t, p = batch
    _close(t.christoffel_at(p), christoffel_einsum(t, p))
    _close(t.nijenhuis_at(p), nijenhuis_einsum(t, p))
    _close(b1_table(t, p), b1_einsum(t, p))


def test_covariant_derivative_tables_match_their_einsum_forms(batch):
    """At the Christoffel table and on the table stacked over a c sweep."""
    t, p = batch
    sweep = TriadConnection(t, SWEEP)
    for gamma in (t.christoffel_at(p), sweep.gamma_tensor(p)):
        _close(nabla_j(t, gamma, p), nabla_j_einsum(t, gamma, p))
        _close(nabla_metric(t, gamma, p), nabla_metric_einsum(t, gamma, p))


def test_frame_one_forms_match_their_einsum_form(batch):
    t, p = batch
    frame = build_unitary_frame(t, p, seed=1)
    # a connection on another triad shares the table tag of t's c = 1
    # member, so its one-forms must not take that member's place
    for conn in (LeviCivitaConnection(t), TriadConnection(t, 0.0),
                 TriadConnection(t, SWEEP),
                 TriadConnection(t.scaled(2.0), 1.0), TriadConnection(t, 1.0)):
        _close(connection_one_forms(conn, frame, p),
               one_forms_einsum(conn, frame, p))


def test_slot_contractions_match_their_einsum_forms(batch):
    """``_in_frame`` and ``lead`` on tables of rank 1 to 3, with and without
    a sweep axis in front of the batch's, and distinct bases per slot."""
    t, p = batch
    L, B, Bx = _frame(t, p)
    rng = np.random.default_rng(3)
    d = t.dim
    for lead_axes in ((), (len(SWEEP),)):
        for bases in ((L,), (B, Bx), (L, Bx, B)):
            T = rng.standard_normal(lead_axes + p.shape[:-1]
                                    + (d,) * len(bases))
            ref = in_frame_einsum(T, *bases)
            _close(_in_frame(T, *bases), _worst(ref, len(bases)))
        _close(lead(t.pi_any(p), T), lead_einsum(t.pi_any(p), T))


def test_run_path_takes_no_multi_operand_einsum(monkeypatch):
    """Every example, both modes and both run kinds: no einsum with more than
    two operands or an ``optimize`` path, and no ``einsum_path``."""
    real, real_path = np.einsum, np.einsum_path
    calls, paths = Counter(), []

    def einsum(subscripts, *operands, **kwargs):
        calls[(subscripts, len(operands), "optimize" in kwargs)] += 1
        return real(subscripts, *operands, **kwargs)

    def einsum_path(*args, **kwargs):
        paths.append(args[0])
        return real_path(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", einsum)
    monkeypatch.setattr(np, "einsum_path", einsum_path)
    for ex in EXAMPLES:
        for mode in ("ad", "fd"):
            for controls in (False, True):
                rep = run_suite(RunConfig(example_id=ex, points=2, mode=mode,
                                          negative_controls=controls))
                assert not [r for r in rep.records
                            if r["note"].startswith("error:")], (ex, mode)
    assert calls, "the run path takes its vector contractions with einsum"
    assert [c for c in calls if c[1] > 2 or c[2]] == []
    assert paths == []


@pytest.mark.parametrize("mode", ["ad", "fd"])
def test_frame_records_build_one_forms_and_frame_once(monkeypatch, mode):
    """One ``_frame_records`` call builds the c = 0 one-forms once, for the
    structure equation and the skew-Hermitian record, and runs the
    Gram-Schmidt at the points once, for the frame and its matrix there."""
    t = catalog()["r5-perturbed-J"].build(DiffEngine(mode))
    p = t.sample_points(3, 2)
    builds, at_p = Counter(), []
    cached, gram_schmidt = ContactTriad._cached, frames._gram_schmidt

    def counted(self, tag, q, fn, *store):
        def build(x):
            builds[tag] += 1
            return fn(x)
        return cached(self, tag, q, build, *store)

    def counted_gs(triad, q, *args):
        if isinstance(q, np.ndarray) and q.shape == p.shape:
            at_p.append(q)
        return gram_schmidt(triad, q, *args)

    monkeypatch.setattr(ContactTriad, "_cached", counted)
    monkeypatch.setattr(frames, "_gram_schmidt", counted_gs)
    runner._frame_records(t, SWEEP, p, 0)
    c0 = {tag: n for tag, n in builds.items() if isinstance(tag, tuple)
          and tag[0] == "one-forms" and tag[2] == ("gamma", 0.0)}
    assert list(c0.values()) == [1]
    assert len(at_p) == 1
