"""Suite orchestration and command-line contract: config validation, record
ordering, byte-stable reports, the frozen schema, and exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import triadlab
from triadlab.checks import CHECKS
from triadlab.cli import main
from triadlab.engine import FD_STEP, DiffEngine, max_residual
from triadlab.runner import (
    RESIDUAL_UNEVALUABLE,
    ConfigError,
    Report,
    RunConfig,
    _canon,
    _projected_nijenhuis_scale,
    _render_records,
    _summarize,
    emit_report,
    run_suite,
)

SMALL = dict(example_id="r3-standard", c_values=(0.0,), points=2, seed=3)
SWEEP = (-1.0, 0.0, 1.0)


def test_config_validation_rejects_bad_inputs():
    RunConfig(**SMALL).validate()
    with pytest.raises(ConfigError):
        RunConfig(example_id="nope").validate()
    with pytest.raises(ConfigError):
        RunConfig(example_id="r3-standard", c_values=()).validate()
    with pytest.raises(ConfigError):
        RunConfig(example_id="r3-standard", points=0).validate()
    with pytest.raises(ConfigError):
        RunConfig(example_id="r3-standard", mode="symbolic").validate()
    with pytest.raises(ConfigError):
        RunConfig(example_id="r3-standard", fd_step=0.0).validate()
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError):
            RunConfig(example_id="r3-standard", c_values=(0.0, bad)).validate()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            RunConfig(example_id="r3-standard", mode="fd",
                      fd_step=bad).validate()
    with pytest.raises(ConfigError):
        RunConfig(example_id="r3-standard", seed=-1).validate()


def test_config_takes_the_seed_rule_of_sample_points():
    """``RunConfig.validate`` rejects exactly the seeds ``sample_points``
    rejects, as a config error, and reads a numpy integer as the int it
    holds."""
    for seed in (-3, 1.5, True, np.bool_(True), "3", None):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig(example_id="r3-standard", seed=seed).validate()
    RunConfig(example_id="r3-standard", seed=np.int64(3)).validate()


def test_config_takes_the_mode_and_step_rule_of_the_engine():
    """``RunConfig.validate`` rejects exactly the modes and ``fd`` steps
    ``DiffEngine`` rejects, as a config error with the engine's message."""
    for mode, step in (("symbolic", FD_STEP), ("fd", 0.0), ("fd", -1e-4),
                       ("ad", float("nan")), ("fd", True), ("fd", "1e-4")):
        with pytest.raises(ValueError) as engine_error:
            DiffEngine(mode, step)
        with pytest.raises(ConfigError) as config_error:
            RunConfig(example_id="r3-standard", mode=mode,
                      fd_step=step).validate()
        assert str(config_error.value) == str(engine_error.value)
    RunConfig(example_id="r3-standard", mode="fd",
              fd_step=np.float64(1e-3)).validate()


def test_the_report_format_is_emit_reports_alone():
    """A run's config holds no format, so a report cannot say one format
    and be written in another; ``emit_report`` rejects an unknown one."""
    with pytest.raises(TypeError):
        RunConfig(example_id="r3-standard", fmt="csv")
    with pytest.raises(ConfigError):
        emit_report(run_suite(RunConfig(**SMALL)), "xml")


@pytest.mark.parametrize("field, bad", [("points", "3"), ("points", 2.0),
                                        ("seed", 1.5), ("seed", "1"),
                                        ("c_values", (0.0, "a")),
                                        ("c_values", (0.0, None)),
                                        ("fd_step", "1e-4"), ("fd_step", True),
                                        ("negative_controls", "no"),
                                        ("c_values", 0.0), ("seed", True),
                                        ("points", True),
                                        ("c_values", [True]),
                                        ("example_id", ["r3-standard"]),
                                        ("example_id", {"r3-standard": 1})])
def test_config_validation_rejects_values_of_the_wrong_type(field, bad):
    """A config error, not a TypeError or ValueError from deep in the run,
    and no bool read as a number."""
    cfg = RunConfig(**dict(SMALL, **{field: bad}))
    with pytest.raises(ConfigError):
        cfg.validate()
    with pytest.raises(ConfigError):
        run_suite(cfg)


def test_a_one_shot_c_sweep_is_copied_before_it_is_validated():
    """A generator of c values runs its whole sweep, as its tuple does."""
    rep = run_suite(RunConfig(example_id="r3-standard", points=1,
                              c_values=(c for c in [0.0])))
    assert rep.ok and rep.config["c_values"] == [0.0]
    assert not any(r["note"] for r in rep.records)
    assert rep.records == run_suite(RunConfig(
        example_id="r3-standard", points=1, c_values=(0.0,))).records


def test_config_validation_accepts_numpy_scalars():
    RunConfig(**dict(SMALL, points=np.int64(2), seed=np.uint32(3),
                     c_values=(np.float64(0.0), 1))).validate()


def test_config_validation_rejects_c_values_with_one_variant():
    """Two c values that print alike would give records of one key."""
    for cs in ((1e-7, 1.0000001e-7), (0.5, 0.5), (-1.0, 0.0, -1.0)):
        with pytest.raises(ConfigError, match="same variant"):
            RunConfig(example_id="r3-standard", c_values=cs).validate()
    RunConfig(example_id="r3-standard", c_values=(0.0, -0.0)).validate()
    RunConfig(example_id="r3-standard", c_values=(1e-7, 1.1e-7)).validate()


def test_cli_c_values_with_one_variant_is_usage_error(capsys):
    base = ["check", "--example", "r3-standard", "--points", "1"]
    assert main(base + ["--c", "1e-7,1.0000001e-7"]) == 2
    assert "same variant" in capsys.readouterr().err
    assert main(base + ["--c", "0,-0"]) == 0


def test_nan_j_gives_error_records_not_a_hang(monkeypatch):
    """An all-NaN J once made the axioms' draws redraw forever; now their
    tables read NaN, which is recorded as an error."""
    cat = triadlab.catalog()
    spec = cat["r3-standard"]

    def nan_j_triad(engine=None):
        t = spec.build(engine)
        nan_j = lambda q: np.full(np.shape(q)[:-1] + (3, 3), np.nan)
        return triadlab.ContactTriad(t.dim, t.lam, nan_j, t.domain,
                                     engine=engine, label=t.label)

    cat["r3-standard"] = dataclasses.replace(spec, build=nan_j_triad)
    monkeypatch.setattr("triadlab.runner.catalog", lambda: cat)
    rep = run_suite(RunConfig(**SMALL))
    assert not rep.ok
    axioms = [r for r in rep.records if r["name"].startswith("axiom-")]
    assert len(axioms) == 2 * 6
    for r in axioms:
        assert r["note"] == "error: residual is not finite"
        assert not r["passed"]


def test_run_suite_small_config_passes():
    rep = run_suite(RunConfig(**SMALL))
    assert rep.ok
    assert rep.records
    keys = [(r["name"], r["variant"], r["point_index"]) for r in rep.records]
    assert keys == sorted(keys)
    # summary tallies must agree with the raw records
    for name, s in rep.summary.items():
        mine = [r for r in rep.records if r["name"] == name]
        assert s["count"] == len(mine)
        assert s["passed"] == sum(r["passed"] for r in mine)
        assert s["max_residual"] == max(r["residual"] for r in mine)
    assert rep.example["id"] == "r3-standard"
    assert rep.engine["mode"] == "ad"


def test_run_suite_twenty_point_sweep():
    rep = run_suite(RunConfig(example_id="r3-standard", c_values=(0.0,),
                              points=20, seed=42))
    assert rep.ok


def test_negative_mode_every_control_fires():
    rep = run_suite(RunConfig(example_id="r3-standard",
                              negative_controls=True))
    assert rep.ok
    assert rep.records
    assert all(not r["passed"] for r in rep.records)
    names = {r["name"] for r in rep.records}
    # the plane Nijenhuis tensor vanishes in dimension three, so the two
    # J-sensitive faults are (correctly) not scheduled on this example
    assert "fault-flipped-correction" not in names
    assert "fault-wrong-family-parameter" in names
    assert "fault-scale-mismatch" in names
    assert "control-structure-equation-dropped-torsion" in names


def test_negative_mode_includes_j_faults_when_twisted():
    rep = run_suite(RunConfig(example_id="r5-perturbed-J", points=2,
                              negative_controls=True))
    assert rep.ok
    names = {r["name"] for r in rep.records}
    assert "fault-flipped-correction" in names
    assert "fault-levi-civita-not-complex-linear" in names


def test_check_errors_become_records_not_crashes(monkeypatch, mode="ad"):
    def boom(*a, **kw):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr("triadlab.runner.check_axioms", boom)
    rep = run_suite(RunConfig(mode=mode, **dict(SMALL, c_values=SWEEP)))
    assert not rep.ok
    bad = [r for r in rep.records if r["note"].startswith("error:")]
    assert len(bad) == 2 * 6 * 3  # two points, six axiom names, three c
    assert len({(r["name"], r["variant"], r["point_index"])
                for r in bad}) == len(bad)
    assert {r["variant"] for r in bad} == {"c=-1", "c=0", "c=1"}
    for r in bad:
        assert r["residual"] == RESIDUAL_UNEVALUABLE
        assert r["tolerance"] == CHECKS[r["name"]].tolerance
        assert not r["passed"]
        assert "synthetic failure" in r["note"]


def test_check_errors_become_records_not_crashes_in_fd(monkeypatch):
    """In fd the family raises on the batch, then at every point."""
    test_check_errors_become_records_not_crashes(monkeypatch, "fd")


# -- the check registry ----------------------------------------------------

# r5-perturbed-J has a nonzero projected Nijenhuis tensor, so its control
# runs schedule the two J-sensitive controls as well.
REGISTRY_RUN = dict(example_id="r5-perturbed-J", points=1)
FAMILIES = sorted({spec.family for spec in CHECKS.values()})


def _family_run(family, mode="ad"):
    controls = any(s.control for s in CHECKS.values() if s.family == family)
    return RunConfig(negative_controls=controls, mode=mode, **REGISTRY_RUN)


def test_every_registry_entry_is_emitted_as_declared():
    emitted = set()
    for controls in (False, True):
        rep = run_suite(RunConfig(negative_controls=controls, **REGISTRY_RUN))
        for r in rep.records:
            spec = CHECKS[r["name"]]
            assert spec.control == controls, r["name"]
            assert r["tolerance"] == spec.tolerance, r["name"]
            assert r["anchor"] == spec.anchor, r["name"]
            emitted.add(r["name"])
    assert emitted == set(CHECKS)


@pytest.mark.parametrize("family", FAMILIES)
def test_raising_family_records_the_names_it_emits(monkeypatch, family,
                                                   mode="ad"):
    """The names a family declares are the names its function returns."""
    healthy = Counter(r["name"] for r
                      in run_suite(_family_run(family, mode)).records
                      if CHECKS[r["name"]].family == family)

    def boom(*a, **kw):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr("triadlab.runner." + family, boom)
    rep = run_suite(_family_run(family, mode))
    errors = Counter(r["name"] for r in rep.records
                     if r["note"].startswith("error:"))
    assert healthy and errors == healthy
    assert not rep.ok


@pytest.mark.parametrize("family", FAMILIES)
def test_raising_family_records_the_names_it_emits_in_fd(monkeypatch, family):
    test_raising_family_records_the_names_it_emits(monkeypatch, family, "fd")


def _nan_christoffel(monkeypatch):
    from triadlab.contact import ContactTriad

    monkeypatch.setattr(ContactTriad, "christoffel_at",
                        lambda self, p: np.full((self.dim,) * 3, np.nan))


def test_nan_control_is_not_a_control_that_fired(monkeypatch):
    _nan_christoffel(monkeypatch)
    rep = run_suite(RunConfig(example_id="r3-standard", points=1,
                              negative_controls=True))
    nan = [r for r in rep.records if np.isnan(r["residual"])]
    assert nan and all(not r["passed"] for r in rep.records)
    for r in nan:
        assert r["note"] == "error: residual is not finite", r["name"]
    assert not rep.ok
    text = emit_report(rep, "json").decode()
    assert "%.12e" % RESIDUAL_UNEVALUABLE in text
    rows = emit_report(rep, "csv").decode().splitlines()[1:]
    assert "nan" not in "\n".join(rows).lower()
    for row, r in zip(rows, rep.records):
        residual = row.split(",")[3]
        if np.isnan(r["residual"]):
            assert residual == "%.12e" % RESIDUAL_UNEVALUABLE, row


def test_summary_keeps_a_nan_residual_between_finite_ones():
    def rec(residual, idx):
        return {"name": "axiom-hermitian", "variant": "c=0",
                "point_index": idx, "residual": residual, "tolerance": 1e-8,
                "passed": residual <= 1e-8, "anchor": "a", "point": [0.0],
                "note": ""}

    for residuals in ([1e-9, np.nan, 2e-9], [np.nan, 3e-9], [1e-9, np.nan],
                      [2e-9, 1e-9, 0.0], [0.0, -0.0]):
        records = [rec(x, i) for i, x in enumerate(residuals)]
        got = _summarize(records)["axiom-hermitian"]["max_residual"]
        want = max_residual(0.0, *residuals)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    records = [rec(x, i) for i, x in enumerate([1e-9, np.nan, 2e-9])]
    rep = Report(config={}, engine={}, example={}, records=records,
                 summary=_summarize(records), ok=False)
    doc = json.loads(emit_report(rep, "json"))
    assert doc["summary"]["axiom-hermitian"]["max_residual"] == \
        RESIDUAL_UNEVALUABLE


def test_raising_control_is_not_a_control_that_fired(monkeypatch):
    def boom(*a, **kw):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr("triadlab.runner.fault_scale_mismatch", boom)
    rep = run_suite(RunConfig(example_id="r3-standard", points=1,
                              negative_controls=True))
    assert all(not r["passed"] for r in rep.records)
    assert not rep.ok


def test_nan_nijenhuis_scale_schedules_the_j_controls(monkeypatch):
    monkeypatch.setattr("triadlab.runner._projected_nijenhuis_scale",
                        lambda *a, **kw: float("nan"))
    rep = run_suite(RunConfig(example_id="r3-standard", points=1,
                              negative_controls=True))
    names = {r["name"] for r in rep.records}
    assert "fault-flipped-correction" in names
    assert "fault-levi-civita-not-complex-linear" in names


def test_json_report_is_byte_deterministic():
    a = emit_report(run_suite(RunConfig(**SMALL)), "json")
    b = emit_report(run_suite(RunConfig(**SMALL)), "json")
    assert a == b
    assert a.endswith(b"\n")
    assert b'"fd_step":%.12e' % FD_STEP in a


RECORD_KEYS = ["anchor", "name", "note", "passed", "point", "point_index",
               "residual", "tolerance", "variant"]


def _hand_record(name, residual, point, note="", tolerance=1e-9,
                 variant="c=0", point_index=0):
    return {"name": name, "variant": variant, "point_index": point_index,
            "residual": residual, "tolerance": tolerance,
            "passed": residual <= tolerance, "anchor": "anchor of " + name,
            "point": point, "note": note}


def test_record_template_writes_the_canonical_bytes():
    shared = [0.25, -1.5, 3.0]
    records = [
        _hand_record("nan", float("nan"), shared,
                     note="error: residual is not finite"),
        _hand_record("inf", float("inf"), shared),
        _hand_record("-inf", float("-inf"), list(shared)),
        _hand_record("negative-zero", -0.0, [0.0, -0.0, 1.0]),
        _hand_record("zero", 0.0, [-0.0, 0.0, 1.0], tolerance=-0.0),
        _hand_record("zero", 0.0, [0.0, 0.0, 1.0], tolerance=0.0,
                     point_index=1),
        _hand_record("subnormal", 5e-324, [5e-324, 1e300, -1e-300]),
        _hand_record("huge", 1e300, [float("nan"), float("inf"), 2.0],
                     note='a "quoted" \\ back\\slash\nand a new line'),
        _hand_record("unicode", 1e-12, shared, note="Γ ∇^π λ — naïve",
                     variant="séparé"),
        _hand_record("axiom-hermitian", RESIDUAL_UNEVALUABLE, shared,
                     note="error: RuntimeError('synthetic \"failure\"')"),
    ]
    assert _render_records(records) == _canon(records)
    assert _render_records([]) == _canon([]) == "[]"


@pytest.mark.parametrize("kind", ["fd", "ad-controls", "raising"])
def test_json_report_is_the_canonical_form_of_its_dict(monkeypatch, kind):
    if kind == "raising":
        def boom(*a, **kw):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr("triadlab.runner.check_axioms", boom)
        rep = run_suite(RunConfig(mode="fd", **SMALL))
        assert any(r["note"].startswith("error:") for r in rep.records)
    else:
        rep = run_suite(RunConfig(
            example_id="r5-perturbed-J", points=2, seed=5,
            mode=kind[:2], negative_controls=kind == "ad-controls"))
    assert rep.records
    for r in rep.records:
        assert sorted(r) == RECORD_KEYS
    want = (_canon(rep.to_dict()) + "\n").encode("utf-8")
    assert emit_report(rep, "json") == want


def test_json_report_reparses_with_sorted_keys():
    rep = run_suite(RunConfig(**SMALL))
    doc = json.loads(emit_report(rep, "json"))
    assert list(doc) == sorted(doc)
    assert doc["schema_version"] == "1"
    assert doc["ok"] is True
    assert len(doc["records"]) == len(rep.records)
    for got, want in zip(doc["records"], rep.records):
        assert list(got) == sorted(got)
        assert got["name"] == want["name"]
        assert got["residual"] == pytest.approx(want["residual"], rel=1e-11,
                                                abs=1e-300)


def test_report_schema_matches_frozen_golden():
    def skeleton(obj):
        if isinstance(obj, bool):
            return "bool"
        if isinstance(obj, int):
            return "int"
        if isinstance(obj, float):
            return "float"
        if isinstance(obj, str):
            return "str"
        if obj is None:
            return "null"
        if isinstance(obj, dict):
            return {k: skeleton(v) for k, v in sorted(obj.items())}
        if isinstance(obj, (list, tuple)):
            return [skeleton(obj[0])] if len(obj) else []
        raise TypeError(type(obj))

    here = os.path.dirname(__file__)
    with open(os.path.join(here, "golden", "report_schema.json")) as fh:
        golden = json.load(fh)
    rep = run_suite(RunConfig(**SMALL))
    assert skeleton(rep.to_dict()) == golden


def test_csv_report_shape():
    rep = run_suite(RunConfig(**SMALL))
    text = emit_report(rep, "csv").decode("utf-8")
    lines = text.splitlines()
    assert lines[0] == "name,variant,point_index,residual,tolerance,passed"
    assert len(lines) == 1 + len(rep.records)
    for line in lines[1:]:
        cols = line.split(",")
        assert len(cols) == 6
        float(cols[3])
        float(cols[4])
        assert cols[5] in ("true", "false")
    assert emit_report(run_suite(RunConfig(**SMALL)), "csv").decode() == text


# -- command line ----------------------------------------------------------

CLI_FAST = ["check", "--example", "r3-standard", "--c", "0",
            "--points", "1", "--seed", "4"]


def test_cli_check_writes_json_to_stdout(capsys):
    assert main(CLI_FAST) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["config"]["example"] == "r3-standard"


def test_cli_check_csv_format(capsys):
    assert main(CLI_FAST + ["--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("name,variant,point_index,residual")


def test_cli_empty_parameter_sweep_is_usage_error(capsys):
    assert main(["check", "--example", "r3-standard", "--c", ""]) == 2
    assert "at least one c" in capsys.readouterr().err


def test_cli_non_finite_parameter_or_step_is_usage_error(capsys):
    base = ["check", "--example", "r3-standard", "--points", "1"]
    for extra in (["--c", "nan"], ["--c", "0,inf"],
                  ["--mode", "fd", "--fd-step", "inf"]):
        assert main(base + extra) == 2, extra
        assert "finite" in capsys.readouterr().err


def test_cli_negative_seed_is_usage_error(capsys):
    assert main(["check", "--example", "r3-standard", "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def _assert_control_gate_reads_the_batch_tables(monkeypatch, mode):
    jacobian = triadlab.DiffEngine.jacobian
    config = dict(example_id="r5-perturbed-J", points=4, seed=1, mode=mode,
                  negative_controls=True)

    def count_jacobians():
        calls = []

        def counted(self, f, p):
            calls.append(p)
            return jacobian(self, f, p)

        with monkeypatch.context() as m:
            m.setattr(triadlab.DiffEngine, "jacobian", counted)
            run_suite(RunConfig(**config))
        return len(calls)

    gated = count_jacobians()
    monkeypatch.setattr("triadlab.runner._projected_nijenhuis_scale",
                        lambda *a, **kw: 1.0)
    assert gated == count_jacobians()


def test_fd_control_gate_reads_the_batch_tables(monkeypatch):
    """In ``fd`` the gate reads the tables the batched controls read, so it
    adds no Jacobian to a controls run."""
    _assert_control_gate_reads_the_batch_tables(monkeypatch, "fd")


def test_ad_control_gate_reads_the_batch_tables(monkeypatch):
    """So does it in ``ad``, which runs the controls on the batch too."""
    _assert_control_gate_reads_the_batch_tables(monkeypatch, "ad")


def test_projected_nijenhuis_scale_rules_in_only_r5_perturbed_j():
    """The J-sensitive controls run where Pi N(Pi ., Pi .) is not zero."""
    for mode in ("ad", "fd"):
        for ex_id, spec in triadlab.catalog().items():
            t = spec.build(triadlab.DiffEngine(mode=mode))
            scale = _projected_nijenhuis_scale(t, t.sample_points(2, 7))
            assert (scale > 1e-3) == (ex_id == "r5-perturbed-J"), (mode, ex_id)


def test_cli_unparseable_parameter_is_usage_error(capsys):
    assert main(["check", "--example", "r3-standard", "--c", "zero"]) == 2
    assert "could not parse" in capsys.readouterr().err


def test_cli_unknown_example_is_usage_error(capsys):
    assert main(["check", "--example", "mystery", "--points", "1"]) == 2
    assert "list-examples" in capsys.readouterr().err


def test_cli_list_examples(capsys):
    assert main(["list-examples"]) == 0
    out = capsys.readouterr().out
    for ex_id in ("r3-standard", "r5-standard", "r7-standard", "r9-standard",
                  "t3-tight", "r3-perturbed-J", "r5-perturbed-J"):
        assert ex_id in out


def test_cli_describe_check(capsys):
    assert main(["describe-check", "scaling-transfer"]) == 0
    assert "scaling-transfer" in capsys.readouterr().out
    assert main(["describe-check", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "unknown check" in err and "axiom-hermitian" in err


def test_cli_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_cli_missing_required_argument(capsys):
    assert main(["check"]) == 2


def test_cli_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_cli_out_file_and_determinism(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "sub" / "b.json"
    assert main(CLI_FAST + ["--out", str(p1)]) == 0
    assert main(CLI_FAST + ["--out", str(p2)]) == 0
    assert capsys.readouterr().out == ""
    assert p1.read_bytes() == p2.read_bytes()
    json.loads(p1.read_bytes())


def test_cli_out_respects_report_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("TRIADLAB_REPORT_DIR", str(tmp_path))
    assert main(CLI_FAST + ["--out", "nested/report.json"]) == 0
    assert (tmp_path / "nested" / "report.json").exists()


def test_cli_out_that_cannot_be_written_is_usage_error(tmp_path, capsys):
    """A directory, or a path under a plain file, is a usage error (exit 2)
    with one error line, not a traceback and exit 1."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (tmp_path, blocker / "report.json"):
        assert main(CLI_FAST + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write the report to "), err
        assert "Traceback" not in err


def test_cli_closed_stdout_is_usage_error(monkeypatch, capsys):
    """A reader that closed the pipe (``triadlab check ... | true``) gets one
    error line and exit 2, not a traceback and exit 1; stdout then points
    at devnull, so the flush at exit cannot fail again."""
    fd = os.open(os.devnull, os.O_WRONLY)

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return fd

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    try:
        assert main(CLI_FAST) == 2
    finally:
        os.close(fd)
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the report to stdout"), err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_failing_suite_exits_one(monkeypatch, capsys):
    fake = Report(config={}, engine={}, example={}, records=[], summary={},
                  ok=False)
    monkeypatch.setattr("triadlab.cli.run_suite", lambda cfg: fake)
    assert main(CLI_FAST) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_cli_check_defaults_are_the_run_config_defaults(capsys):
    # exit 1: cr-form-xi fails by design at c = -1 and c = 1
    assert main(["check", "--example", "r3-standard"]) == 1
    want = emit_report(run_suite(RunConfig("r3-standard")), "json")
    assert capsys.readouterr().out.encode("utf-8") == want


def test_cli_negative_controls_healthy(capsys):
    assert main(["check", "--example", "r3-standard",
                 "--negative-controls"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_cli_runs_as_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(triadlab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "triadlab.cli",
                           "list-examples"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    for ex_id in triadlab.catalog():
        assert ex_id in proc.stdout


def test_cli_fd_r5_perturbed_j_meets_the_bracket_tolerance_at_a_wide_seed(
        capsys):
    """With an fd stencil along each drawn field, the antisymmetrized
    bracket of this example read 3.1e-8 at point 5, over its tolerance;
    read from the fd Jacobians of the point it is rounding-sized."""
    assert main(["check", "--example", "r5-perturbed-J", "--mode", "fd",
                 "--points", "6", "--seed", "1486393352", "--c", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    got = [r["residual"] for r in doc["records"]
           if r["name"] == "p-antisymmetrized-bracket"]
    assert len(got) == 6 and max(got) <= 1e-10
