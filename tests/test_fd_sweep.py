"""``tools/fd_sweep.py`` gates on check failures and on controls."""

import dataclasses
import importlib.util
import os

from triadlab import catalog
from triadlab.checks import CHECKS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fd_sweep():
    path = os.path.join(ROOT, "tools", "fd_sweep.py")
    spec = importlib.util.spec_from_file_location("fd_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_control_that_does_not_fire_fails_the_sweep(monkeypatch, capsys):
    sweep = _fd_sweep()
    assert sweep.main(["--seeds", "3"]) == 0
    assert "controls fired" in capsys.readouterr().out
    # a check that passes, declared a control, is a control that is silent
    monkeypatch.setitem(CHECKS, "axiom-hermitian", dataclasses.replace(
        CHECKS["axiom-hermitian"], control=True))
    assert sweep.main(["--seeds", "3"]) == 1


def test_a_failing_check_fails_the_sweep(monkeypatch, capsys):
    """A check held to a tolerance that no residual meets fails, and so does
    the sweep; ``cr-form-xi`` at c != 0 stays outside the count."""
    sweep = _fd_sweep()
    monkeypatch.setitem(CHECKS, "two-form-j-invariance", dataclasses.replace(
        CHECKS["two-form-j-invariance"], tolerance=-1.0))
    assert sweep.main(["--seeds", "3"]) == 1
    out = capsys.readouterr().out
    assert "two-form-j-invariance" in out and "cr-form-xi" not in out


def test_each_example_names_the_seed_and_point_of_its_worst_record(capsys):
    sweep = _fd_sweep()
    assert sweep.main(["--seeds", "3", "5"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    worst = {row[0]: row for row in rows if row and row[0] in catalog()}
    assert len(worst) == len(catalog())
    for ex, row in worst.items():
        assert row[3] in ("3", "5") and 0 <= int(row[4]) < sweep.POINTS, row
        assert row[5] in CHECKS, row
