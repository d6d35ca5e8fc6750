"""The verification battery: axioms, form holomorphicity, scaling, naturality,
identity suite, and the deliberate fault injections."""

import importlib
import random
import sys
import zlib

import numpy as np
import pytest

import triadlab

from triadlab import ContactTriad, DiffEngine, catalog, standard_triad
from triadlab.catalog import StrictContactMap
from triadlab.checks import (
    CHECKS,
    SAMPLES,
    _frame,
    _j_defect,
    check_axioms,
    check_cr_form,
    check_lemma_suite,
    check_naturality,
    check_scaling,
    family_names,
    fault_flipped_b1,
    fault_levi_civita,
    fault_scale_mismatch,
    fault_wrong_c,
    field_rng,
    pullback_triad,
)
from triadlab.connections import triad_connection
from triadlab.engine import lead, max_residual, tail
from triadlab.runner import RunConfig, _meets_role, run_suite

from oracles import roundtrip_residual

_CAT = catalog()


def test_axioms_pass_across_catalog_and_parameters():
    for ex_id, spec in _CAT.items():
        t = spec.build()
        for p in t.sample_points(2, seed=111):
            for c in (-1.0, 0.0, 1.0):
                for res in check_axioms(t, (c,), p)[0]:
                    assert res.passed, (ex_id, c, res.name, res.residual)
                    assert res.residual <= 1e-8, (ex_id, c, res.name)


def test_axiom_results_carry_anchors_and_points():
    t = standard_triad(1)
    p = np.array([0.1, 0.2, 0.3])
    for res in check_axioms(t, (0.0,), p)[0]:
        assert res.anchor == CHECKS[res.name].anchor
        assert np.array_equal(res.point, p)
        assert res.tolerance > 0


def test_cr_form_zero_parameter_passes():
    for ex_id in ("r3-standard", "t3-tight", "r5-perturbed-J"):
        t = _CAT[ex_id].build()
        p = t.sample_points(1, seed=5)[0]
        reeb, xi = check_cr_form(t, (0.0,), p)[0]
        assert reeb.passed and xi.passed, ex_id


def test_cr_form_detects_nonzero_parameter():
    """The plane residual is an affine function of the parameter: c = 1 must
    leave a defect of order |c| on unit vectors."""
    for ex_id in ("r3-standard", "r3-perturbed-J"):
        t = _CAT[ex_id].build()
        p = t.sample_points(1, seed=6)[0]
        reeb, xi = check_cr_form(t, (1.0,), p)[0]
        assert reeb.passed, ex_id          # Reeb-direction parallelism survives
        assert not xi.passed, ex_id
        assert xi.residual > 0.3, ex_id


def test_scaling_transfer_law():
    for ex_id in ("r3-standard", "r3-perturbed-J"):
        t = _CAT[ex_id].build()
        p = t.sample_points(1, seed=7)[0]
        for a in (2.0, 0.5, 3.0):
            res = check_scaling(t, a, p)
            assert res.passed and res.residual <= 1e-7, (ex_id, a)
        assert check_scaling(t, 1.0, p).residual <= 1e-12, ex_id


def test_scaling_rejects_nonpositive_factor():
    """The check and its control take ``ContactTriad.scaled``'s rule: a
    factor that is not positive and finite raises."""
    t = standard_triad(1)
    for fn in (check_scaling, fault_scale_mismatch):
        for a in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="scale factor"):
                fn(t, a, np.zeros(3))


def test_naturality_all_catalog_maps():
    for ex_id, spec in _CAT.items():
        t = spec.build()
        p = t.sample_points(1, seed=8)[0]
        for cmap in spec.maps:
            for c in (0.0, 1.0):
                res = check_naturality(t, cmap, c, p)
                assert res.passed, (ex_id, cmap.label, c, res.residual)


def test_naturality_refuses_non_strict_map():
    t = standard_triad(1)
    dilation = StrictContactMap(
        label="dilation",
        forward=lambda q: 2.0 * q,
        inverse=lambda q: 0.5 * q,
        differential=lambda q: 2.0 * np.eye(3),
    )
    with pytest.raises(ValueError):
        check_naturality(t, dilation, 0.0, np.array([0.1, 0.2, 0.3]))


def test_pullback_triad_reproduces_structures():
    spec = _CAT["t3-tight"]
    t = spec.build()
    cmap = spec.maps[-1]
    pulled = pullback_triad(t, cmap)
    for p in t.sample_points(3, seed=9):
        q = cmap.forward(p)
        dphi = cmap.differential(p)
        assert np.max(np.abs(dphi.T @ t.lam_any(q) - pulled.lam_any(p))) < 1e-12
        want_j = np.linalg.solve(dphi, t.j_any(q) @ dphi)
        assert np.max(np.abs(pulled.j_any(p) - want_j)) < 1e-10


@pytest.mark.parametrize("mode", ["ad", "fd"])
def test_a_pulled_triad_reads_the_base_triads_lam_tables(monkeypatch, mode):
    """phi^* lam = lam, so the pulled triad makes no Reeb solve of its own
    once the base triad has solved at the batch, its seed or its stencil."""
    spec = _CAT["r5-perturbed-J"]
    t = spec.build(DiffEngine(mode))
    pts = t.sample_points(3, seed=4)
    check_axioms(t, (0.0,), pts)
    reeb_impl, solvers = ContactTriad._reeb_impl, []

    def counted(triad, q):
        solvers.append(triad)
        return reeb_impl(triad, q)

    monkeypatch.setattr(ContactTriad, "_reeb_impl", counted)
    for cmap in spec.maps:
        assert check_naturality(t, cmap, 0.0, pts).passed.all()
        pulled = pullback_triad(t, cmap)
        assert pulled.reeb_any(pts) is t.reeb_any(pts)
    assert not any(triad is not t for triad in solvers)


def test_lemma_suite_names_and_pass():
    for ex_id in ("r3-standard", "t3-tight", "r5-perturbed-J"):
        t = _CAT[ex_id].build()
        p = t.sample_points(1, seed=10)[0]
        results = check_lemma_suite(t, p, seed=5)
        assert (tuple(r.name for r in results)
                == family_names("check_lemma_suite"))
        for r in results:
            assert r.passed, (ex_id, r.name, r.residual)
            assert r.residual <= 1e-7, (ex_id, r.name)


def test_fault_wrong_parameter_always_fires():
    for ex_id, spec in _CAT.items():
        t = spec.build()
        p = t.sample_points(1, seed=11)[0]
        res = fault_wrong_c(t, p)
        assert not res.passed, ex_id
        assert res.residual >= 1e-3, ex_id


def test_fault_scale_mismatch_always_fires():
    for ex_id in ("r3-standard", "t3-tight", "r5-perturbed-J"):
        t = _CAT[ex_id].build()
        p = t.sample_points(1, seed=12)[0]
        res = fault_scale_mismatch(t, 2.0, p)
        assert not res.passed and res.residual >= 1e-3, ex_id


def test_fault_flipped_correction_needs_nonintegrable_plane():
    """Five-dimensional twisted triad fires; any three-dimensional triad is
    silent because the plane Nijenhuis part vanishes identically there."""
    t5 = _CAT["r5-perturbed-J"].build()
    p5 = t5.sample_points(1, seed=13)[0]
    assert fault_flipped_b1(t5, p5).residual >= 1e-3
    t3 = _CAT["r3-perturbed-J"].build()
    p3 = t3.sample_points(1, seed=13)[0]
    assert fault_flipped_b1(t3, p3).residual < 1e-10


def test_fault_levi_civita_hermitian_defect():
    t5 = _CAT["r5-perturbed-J"].build()
    p5 = t5.sample_points(1, seed=14)[0]
    assert fault_levi_civita(t5, p5).residual >= 1e-3


@pytest.mark.parametrize("mode", ["ad", "fd"])
def test_a_flipped_b1_fails_the_hermitian_axiom_and_semi_j_linearity(
        mode, monkeypatch):
    """With B1's sign flipped in every family member, Gamma moves by
    delta = -2 B1 and nabla J by tail(delta, J)^T - lead(J, delta)^T, which
    nabla J is linear in.  So on r5-perturbed-J the hermitian axiom, at every
    c, and the semi-connection's J-linearity read the J-defect of that move,
    and it breaks them at every point."""
    t = _CAT["r5-perturbed-J"].build(DiffEngine(mode))
    pts = t.sample_points(4, seed=9)
    b1 = triadlab.connections.b1_table
    delta, J = -2.0 * b1(t, pts), t.j_any(pts)
    move = tail(delta, J).swapaxes(-1, -2) - lead(J, delta).swapaxes(-1, -2)
    want = _j_defect(move, t.pi_any(pts), *_frame(t, pts))
    monkeypatch.setattr("triadlab.connections.b1_table",
                        lambda triad, p: -b1(triad, p))
    got = [{r.name: r for r in group}["axiom-hermitian"]
           for group in check_axioms(t, (-1.0, 0.0, 1.0), pts)]
    got.append({r.name: r for r in check_lemma_suite(t, pts)}[
        "semi-connection-j-linearity"])
    for res in got:
        assert np.allclose(res.residual, want, rtol=1e-9, atol=0), \
            (res.name, res.residual, want)
        assert not res.passed.any(), (res.name, res.residual)


# (control, the identity kernel it shares, the check it pairs with)
CONTROL_KERNELS = [
    ("fault-flipped-correction", "_torsion_table", "axiom-xi-torsion"),
    ("fault-wrong-family-parameter", "_coupling_gap", "axiom-cr-coupling"),
    ("fault-levi-civita-not-complex-linear", "_j_defect",
     "semi-connection-j-linearity"),
    ("fault-scale-mismatch", "_gamma_gap", "scaling-transfer"),
    ("control-structure-equation-dropped-torsion", "structure_gap",
     "structure-equation"),
]


@pytest.mark.parametrize("control, kernel, check", CONTROL_KERNELS)
def test_each_control_runs_the_identity_kernel_of_its_check(
        control, kernel, check, monkeypatch):
    """A spy on the kernel, under every name the package binds it, sees a
    call from the control's family and one from its check's.  Zeroed, the
    kernel silences the control and zeroes the check's residual, except that
    fault-flipped-correction keeps the quarter-N value it compares the
    torsion with: it halves, and still fires."""
    mods = [importlib.import_module("triadlab." + m)
            for m in ("checks", "frames", "runner")]
    real = next(getattr(m, kernel) for m in mods if hasattr(m, kernel))
    callers, zero = set(), []

    def spy(*args):
        frame = sys._getframe(1)
        while frame is not None:
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        return real(*args) * 0.0 if zero else real(*args)

    for m in mods:
        if getattr(m, kernel, None) is real:
            monkeypatch.setattr(m, kernel, spy)

    def records():
        return {(r["name"], r["point_index"]): r
                for controls in (False, True)
                for r in run_suite(RunConfig("r5-perturbed-J", points=2,
                                             negative_controls=controls)
                                   ).records if r["name"] in (control, check)}

    healthy = records()
    assert {CHECKS[control].family, CHECKS[check].family} <= callers
    zero.append(True)
    zeroed = records()
    assert sorted(zeroed) == sorted(healthy) and len(healthy) == 4
    for key, r in zeroed.items():
        assert _meets_role(healthy[key]), key
        if r["name"] == check:
            assert r["residual"] == 0.0, key
        elif control == "fault-flipped-correction":
            half = 0.5 * healthy[key]["residual"]
            assert abs(r["residual"] - half) <= 1e-9 * half and _meets_role(r)
        else:
            assert not _meets_role(r), key


def test_a_reversed_c_axis_fails_the_coupling_axiom(monkeypatch):
    """Reading the sweep's c values in reverse order pairs c = -1 with the
    table of c = 1 and back, which the coupling axiom must catch."""
    c_axis = triadlab.checks._c_axis
    monkeypatch.setattr("triadlab.checks._c_axis",
                        lambda conn, ndim: c_axis(conn, ndim)[::-1])
    for ex_id in ("r3-standard", "r5-perturbed-J"):
        t = _CAT[ex_id].build()
        pts = t.sample_points(3, seed=8)
        lo, mid, hi = ({r.name: r for r in group}["axiom-cr-coupling"]
                       for group in check_axioms(t, (-1.0, 0.0, 1.0), pts))
        assert not lo.passed.any() and not hi.passed.any(), ex_id
        assert mid.passed.all(), ex_id


def test_a_nan_j_fails_the_axioms_and_cr_form_with_nan_residuals():
    t = _nan_j(standard_triad(1))
    pts = t.sample_points(2, seed=2)
    for res in check_axioms(t, (0.0,), pts)[0] + check_cr_form(
            t, (0.0,), pts)[0]:
        assert np.isnan(res.residual).all() and not res.passed.any(), \
            res.name


def test_field_rng_takes_only_integer_seeds_at_least_zero():
    """The seed rule of ``sample_points``: -1 raises ValueError, not
    ``OverflowError``, and a fractional or bool seed is not truncated."""
    for seed in (-1, 1.5, True, "3"):
        with pytest.raises(ValueError, match="seed"):
            field_rng(seed, "alpha")


def _gauss(rng, n=4):
    return [rng.gauss(0.0, 1.0) for _ in range(n)]


def test_field_rng_deterministic_and_tag_sensitive():
    """The same seed and tags give the same draws; changing one tag, a
    string, a number or one bit of an array, or dropping one, changes
    them."""
    p = np.array([0.25, -0.5, 1.0])
    q = p.copy()
    q[1] = np.nextafter(q[1], 0.0)
    a = _gauss(field_rng(3, "alpha", 2.0, p))
    assert a == _gauss(field_rng(3, "alpha", 2.0, p))
    for tags in (("beta", 2.0, p), ("alpha", 3.0, p), ("alpha", 2.0, q),
                 ("alpha", 2.0)):
        assert _gauss(field_rng(3, *tags)) != a, tags


def test_field_rng_keeps_every_bit_of_the_seed():
    """Seeds that differ only above bit 31 draw different vectors: the key
    is the seed's little-endian 32-bit words, then each tag's bytes (here
    the CRC-32 of a string), as one ``bytes`` seed of ``random.Random``."""
    a = _gauss(field_rng(1, "alpha"))
    b = _gauss(field_rng(2**32 + 1, "alpha"))
    assert a != b
    tag = zlib.crc32(b"alpha").to_bytes(4, "little")
    assert a == _gauss(random.Random((1).to_bytes(4, "little") + tag))
    assert b == _gauss(random.Random((2**32 + 1).to_bytes(8, "little") + tag))


def _nan_christoffel(triad):
    """Replace the triad's Christoffel table by an all-NaN one."""
    table = np.full((triad.dim,) * 3, np.nan)
    triad.christoffel_at = lambda p: table
    return triad


def test_a_warm_lemma_suite_makes_two_jacobian_passes(monkeypatch):
    """With every table built, the lemma suite makes two Jacobian passes,
    in both modes and at a point or a batch: one of the field whose 5
    ``SAMPLES`` columns hold the draws the three drawn records
    differentiate, beside their J-images, and one of d lam for
    ``reeb-parallel-two-form``."""
    jacobian = DiffEngine.jacobian
    calls = []

    def counted(self, f, p):
        calls.append(f)
        return jacobian(self, f, p)
    for mode in ("ad", "fd"):
        t = _CAT["r5-perturbed-J"].build(triadlab.DiffEngine(mode=mode))
        for p in (t.sample_points(1, 3)[0], t.sample_points(2, 3)):
            check_lemma_suite(t, p)
            monkeypatch.setattr(DiffEngine, "jacobian", counted)
            del calls[:]
            check_lemma_suite(t, p)
            monkeypatch.undo()
            assert len(calls) == 2, (mode, calls)
            assert calls[0](p).shape == p.shape + (5 * SAMPLES, 2), mode
            assert calls[1] == t.dlam_any, mode


def test_a_doubled_nijenhuis_table_leaves_the_quarter_n_torsion_alone():
    """With the triad's Nijenhuis table doubled, the records that read it
    against other tables fail, and the quarter-N torsion, which takes N
    from the brackets of fields, keeps its residual to the bit.
    ``nijenhuis-j-shuffle`` is homogeneous in N, so it passes either way."""
    spec = _CAT["r5-perturbed-J"]
    p = spec.build().sample_points(2, 3)
    clean = {r.name: r for r in check_lemma_suite(spec.build(), p)}
    t = spec.build()
    table = t.nijenhuis_at
    t.nijenhuis_at = lambda q: 2.0 * table(q)
    doubled = {r.name: r for r in check_lemma_suite(t, p)}
    for name in ("lc-j-derivative-pairing", "nijenhuis-reeb-slots"):
        assert clean[name].passed.all() and not doubled[name].passed.any(), \
            name
    name = "semi-connection-torsion-quarter-n"
    assert clean[name].passed.all()
    assert doubled[name].residual.tobytes() == clean[name].residual.tobytes()


@pytest.mark.parametrize("table, entry, name", [
    ("nijenhuis_at", (1, 7, 6), "nijenhuis-j-shuffle"),
    ("nabla_j_at", (1, 3, 5), "lc-j-antilinear-cancellation"),
])
def test_a_one_coefficient_table_defect_fails_at_every_seed(table, entry,
                                                             name):
    """A defect of 8 x tolerance in one coefficient whose slots lie in the
    distribution (the y-axes of r9-standard) fails the record that reads
    the table, at every seed.  Contracted with three Gaussian draws per
    sample instead, it shows only through the product of the draws'
    components: that reads this N defect below tolerance at seed 189, and
    this nabla J defect at seeds 0, 3, 5, 8 and 9.
    """
    for seed in list(range(12)) + [189]:
        t = _CAT["r9-standard"].build()
        defect = np.zeros((t.dim,) * 3)
        defect[entry] = 8 * CHECKS[name].tolerance
        clean = getattr(t, table)
        setattr(t, table, lambda p: clean(p) + defect)
        p = t.sample_points(1, seed)[0]
        res = {r.name: r for r in check_lemma_suite(t, p, seed=seed)}[name]
        assert not res.passed, (seed, res.residual)


def test_nan_residuals_fail_in_axioms_and_lemma_suite():
    t = _nan_christoffel(_CAT["r5-perturbed-J"].build())
    p = t.sample_points(1, seed=15)[0]
    axioms = check_axioms(t, (0.0,), p)[0]
    assert len(axioms) == 6
    for res in axioms:
        assert np.isnan(res.residual) and not res.passed, res.name
    # These four identities never read the Christoffel table.
    christoffel_free = {"two-form-j-invariance", "reeb-lie-j-symmetry",
                        "nijenhuis-reeb-slots", "nijenhuis-j-shuffle"}
    for res in check_lemma_suite(t, p, seed=10):
        if res.name in christoffel_free:
            assert res.passed, res.name
        else:
            assert np.isnan(res.residual) and not res.passed, res.name


def test_nan_residuals_fail_in_scaling_naturality_and_frames():
    from triadlab.frames import build_unitary_frame, skew_hermitian_check

    spec = _CAT["r5-perturbed-J"]
    t = _nan_christoffel(spec.build())
    p = t.sample_points(1, seed=16)[0]
    res = check_scaling(t, 2.0, p)
    assert np.isnan(res.residual) and not res.passed
    res = check_naturality(t, spec.maps[0], 0.0, p)
    assert np.isnan(res.residual) and not res.passed
    frame = build_unitary_frame(t, p)
    conn = triad_connection(t, 0.0)
    assert np.isnan(skew_hermitian_check(conn, frame, p))


def _nan_j(triad):
    """The triad (lam, J) with J all NaN."""
    nan_j = lambda q: np.full(np.shape(q)[:-1] + (triad.dim,) * 2, np.nan)
    return ContactTriad(triad.dim, triad.lam, nan_j, triad.domain,
                        engine=triad.engine, label=triad.label)


def test_nan_map_fails_the_strictness_guard():
    t = standard_triad(1)
    nan_map = StrictContactMap(
        label="nan-map",
        forward=lambda q: q + np.array([0.0, np.nan, 0.0]),
        inverse=lambda q: q,
        differential=lambda q: np.eye(3),
    )
    p = np.array([0.1, 0.2, 0.3])
    assert np.isnan(nan_map.strictness_residual(t, [p]))
    assert np.isnan(roundtrip_residual(nan_map, [p]))
    with pytest.raises(ValueError):
        check_naturality(t, nan_map, 0.0, p)


def test_max_residual_keeps_nan_and_reports_write_it_unevaluable():
    from triadlab.runner import RESIDUAL_UNEVALUABLE, _canon, _summarize

    assert max_residual(0.0, 2.0, 1.0) == 2.0
    assert np.isnan(max_residual(0.0, np.nan, 1.0))
    assert np.isnan(max_residual(np.nan, 0.0))
    records = [{"name": "axiom-hermitian", "residual": r, "passed": False}
               for r in (0.0, np.nan, 1.0)]
    assert np.isnan(_summarize(records)["axiom-hermitian"]["max_residual"])
    assert _canon(np.nan) == "%.12e" % RESIDUAL_UNEVALUABLE
    assert _canon(np.inf) == "%.12e" % RESIDUAL_UNEVALUABLE
    assert _canon(-np.inf) == "%.12e" % -RESIDUAL_UNEVALUABLE


@pytest.mark.parametrize("mode", ["ad", "fd"])
def test_the_families_on_one_triad_and_batch_build_one_cholesky_frame(
        monkeypatch, mode):
    """The axioms, ``cr-form``, scaling and the lemma suite read their
    g-orthonormal frame from the triad's store."""
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda a: calls.append(a.shape) or cholesky(a))
    t = _CAT["r5-perturbed-J"].build(DiffEngine(mode))
    pts = t.sample_points(3, seed=7)
    check_axioms(t, (0.0,), pts)
    check_cr_form(t, (0.0,), pts)
    check_scaling(t, 2.0, pts)
    check_lemma_suite(t, pts)
    assert calls == [(3, 5, 5)]
