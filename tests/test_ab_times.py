"""``tools/ab_times.py`` loads two checkouts into one process as separate
packages; the copies must serve a request exactly as the package does."""

import importlib.util
import os
import sys

import triadlab

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
