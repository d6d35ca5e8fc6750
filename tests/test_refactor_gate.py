"""``tools/refactor_gate.py`` counts the source lines of a checkout."""

import importlib.util
import os

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
