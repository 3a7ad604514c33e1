"""tools/code_lines.py: the code-line count quoted for src/kkinetics."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Shape:
    """A class docstring."""

    sides = 4

    def area(self, side):
        """A function docstring
        over
        three lines."""
        text = """a string that is
        not a docstring"""
        return (side
                * side)
'''


def test_counts_code_lines_and_skips_blanks_comments_and_docstrings():
    # import, class, sides, def, the two lines of text and the two of return
    assert _tool().code_lines(SAMPLE) == 8


def test_reports_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n\ny = 2\n")
    assert _tool().main([str(tmp_path)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines == [["a.py", "8"], ["b.py", "2"], ["total", "10"]]
