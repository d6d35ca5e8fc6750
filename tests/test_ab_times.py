"""``tools/ab_times.py`` loads two checkouts into one process as separate
packages; the copies must serve a request exactly as the package does, and
the family split must account for each request's time."""

import importlib.util
import os
import sys

import triadlab
from triadlab.checks import CHECKS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _ab_times():
    path = os.path.join(ROOT, "tools", "ab_times.py")
    spec = importlib.util.spec_from_file_location("ab_times", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_copies_side_by_side_give_the_same_report_bytes(tmp_path,
                                                             monkeypatch):
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    ab = _ab_times()
    first = ab.load_copy(ROOT, "tl_side_a", str(tmp_path))
    second = ab.load_copy(ROOT, "tl_side_b", str(tmp_path))
    assert first.runner is not second.runner
    assert first.runner.run_suite is not triadlab.run_suite
    request = dict(example_id="r5-perturbed-J", points=2, seed=9, mode="fd",
                   c_values=(-1.0, 0.0, 1.0))
    reports = [ab.serve(pkg, request)[1] for pkg in (first, second)]
    want = triadlab.emit_report(triadlab.run_suite(
        triadlab.RunConfig(**request)), "json")
    assert reports[0] == reports[1] == want


def test_the_family_split_names_the_registry_families_of_the_run_kind(
        tmp_path, monkeypatch):
    """Over one round, each side's split names exactly the registry's
    families of the workload's run kind and the lines outside them, each
    called, and its lines add up to nearly all of that side's time."""
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    ab = _ab_times()
    base = ab.load_copy(ROOT, "tl_split_base", str(tmp_path))
    head = ab.load_copy(ROOT, "tl_split_head", str(tmp_path))
    for workload, control, extra in (
            ("controls-catalog", True, "_projected_nijenhuis_scale"),
            ("fd-wide", False, "_base_batch")):
        out = ab.compare(base, head, workload, rounds=1, seed=1)
        want = ({spec.family for spec in CHECKS.values()
                 if spec.control == control}
                | {"emit_report", ab.OUTSIDE, extra})
        assert set(out["families"]) == set(out["calls"]) == want, workload
        for side, total in enumerate((out["base_s"], out["head_s"])):
            assert all(calls[side] > 0 for calls in out["calls"].values())
            share = sum(s[side] for s in out["families"].values()) / total
            assert 0.95 <= share <= 1.0, (workload, side, share)
        assert out["identical_reports"] == out["requests"]
