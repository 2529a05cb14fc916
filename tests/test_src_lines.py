"""tools/src_lines.py, the line counter of a package's Python files.

Covers:
  - on a small package: the wc -l total, and code, docstring, comment and
    blank lines; a blank line inside a docstring counts in both, a comment
    after code counts as code, and a string that is no docstring as code
"""
import importlib.util
from pathlib import Path

SRC_LINES_PY = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", SRC_LINES_PY)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

MODULE = '''"""Module doc.

More."""
import os  # why

# a comment
def f():
    """One line."""
    return 1
x = """a
b"""
'''


def test_counts_each_kind_of_line(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("y = 2\n\n")
    (tmp_path / "notes.txt").write_text("not counted\n")
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "wc 13 code 6 docstring 4 comment 1 blank 3\n"
