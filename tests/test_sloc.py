"""Code-line counting of tools/sloc.py: docstrings, comments and blanks left out;
and the line-length limit of the source it counts."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "sloc.py"
spec = importlib.util.spec_from_file_location("sloc", TOOL)
sloc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sloc)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


# A comment line.
class Point:
    """Class docstring."""

    def norm(self):
        """Function
        docstring."""
        text = """a string that is
        not a docstring"""
        return os.path.join(
            text,
        )
'''


def test_counts_code_lines_only():
    # import, class, def, the two-line string, and the three-line return.
    assert sloc.code_lines(SOURCE) == 8


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    assert sloc.main([str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split() for row in rows] == [
        ["8", str(tmp_path / "a.py")],
        ["1", str(tmp_path / "b.py")],
        ["9", "total"],
    ]


def test_no_source_line_is_over_100_characters():
    source = TOOL.parent.parent / "src"
    long_lines = [
        f"{path.relative_to(source)}:{number}"
        for path in sorted(source.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 100
    ]
    assert long_lines == []
