from __future__ import annotations

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "src_lines", Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

SAMPLE = '''"""Module docstring
over two lines."""
import os  # a trailing comment leaves a code line

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring.
        """
        text = """a string
        that is not a docstring"""
        return (text,
                os.sep)
'''


def test_code_lines_skip_blank_lines_comments_and_docstrings():
    # import, class, def, the two lines of the string and the two of the return
    assert src_lines.code_lines(SAMPLE) == 7


def test_main_prints_raw_and_code_lines_per_tree(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert src_lines.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out == f"{tmp_path / 'pkg'}: 20 raw lines, 8 code lines\n"
