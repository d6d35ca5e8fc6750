"""``tools/refactor_gate.py`` counts the source lines of a checkout and
compares two checkouts' reports."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MODULE = '''"""Module docstring,
over two lines."""

# a comment alone
import os  # a comment after code


def f(x):
    """One-line docstring."""
    # an indented comment
    y = """a string that is
not a docstring"""
    return x


class C:
    """Class
    docstring."""

    z = (1,
         # a comment inside brackets
         2)
'''


def _refactor_gate():
    path = os.path.join(ROOT, "tools", "refactor_gate.py")
    spec = importlib.util.spec_from_file_location("refactor_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_blanks_docstrings_and_comments(tmp_path):
    gate = _refactor_gate()
    pkg = tmp_path / "src" / "triadlab"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "mod.py").write_text(MODULE)
    (pkg / "sub" / "two.py").write_text("a = 1\n\n# note\nb = 2\n")
    (pkg / "notes.txt").write_text("not python\n")
    assert gate.code_lines(MODULE) == {5, 8, 11, 12, 13, 16, 20, 22}
    # mod.py: 22 lines, 16 non-blank, 8 code; two.py: 4, 3 and 2
    assert gate.source_lines(str(tmp_path)) == (26, 19, 10)



def _report(mode):
    record = {"name": "axiom-metric", "variant": "", "point_index": 0,
              "residual": 1e-15, "tolerance": 1e-8, "passed": True}
    return {"config": {"mode": mode}, "ok": True,
            "records": [record, dict(record, point_index=1)]}


def _set(field, value):
    return lambda rep: rep["records"][0].__setitem__(field, value)


@pytest.mark.parametrize("change, code", [
    (None, 0),
    (_set("residual", 1e-15 + 5e-14), 0),
    (_set("residual", 1e-15 + 5e-13), 1),
    (_set("passed", False), 1),
    (lambda rep: rep["records"].pop(), 1),
    (_set("tolerance", 1e-7), 1),
    (lambda rep: rep.__setitem__("ok", False), 1),
], ids=["identical", "move-5e-14", "move-5e-13", "flipped-passed",
        "dropped-record", "changed-tolerance", "changed-ok"])
def test_compare_fails_on_a_verdict_a_record_a_field_or_a_large_move(
        change, code, capsys):
    """compare() exits 1 on a changed verdict, record list or non-residual
    field, or on a residual move above 1e-13, and lists every report that
    is not byte-identical."""
    gate = _refactor_gate()
    base = {"ex seed=11 ad": _report("ad"), "ex seed=11 fd": _report("fd")}
    head = json.loads(json.dumps(base))
    if change:
        change(head["ex seed=11 ad"])
    assert gate.compare({k: json.dumps(v) for k, v in base.items()},
                        {k: json.dumps(v) for k, v in head.items()}) == code
    out = capsys.readouterr().out
    same = 1 if change else 2
    assert "byte-identical reports: %d of 2" % same in out
    assert ("not byte-identical: ex seed=11 ad" in out) == bool(change)
