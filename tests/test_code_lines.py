"""``tools/code_lines.py``, the code-line count reported for the package."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment


# a comment line
class Shape:
    """Class docstring."""

    sides = 4

    def area(self):
        """Method docstring
        over three lines.
        """
        return math.pi

    async def later(self):
        """Async function docstring."""
        return None


TEXT = """a multi-line string
that is not a docstring
counts on each of its three lines"""
'''
# import, class, sides, def, return, async def, return, and TEXT's 3 lines
FIXTURE_CODE_LINES = 10


def test_skips_docstrings_comments_and_blank_lines(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert code_lines.code_lines(path) == FIXTURE_CODE_LINES


def test_main_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\n\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a", "2"], ["b", "1"], ["total", "3"]]
