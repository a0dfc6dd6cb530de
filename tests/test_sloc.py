"""Code-line and code-token counting of tools/sloc.py: docstrings, comments,
blanks and layout left out; its comparison with a git revision; and the
line-length limit of the source it counts."""

import importlib.util
import subprocess
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


def test_counts_code_lines_and_tokens_only():
    # Lines: import, class, def, the two-line string, and the three-line
    # return.  Tokens: import os (2), class Point : (3), def norm ( self ) :
    # (6), text = "..." (3), return os . path . join ( (7), text , (2), ) (1).
    assert sloc.code_size(SOURCE) == (8, 24)


def test_joining_lines_leaves_the_token_count():
    split = "total = (\n    1\n    + 2\n)\n"
    assert sloc.code_size(split) == (4, 7)
    assert sloc.code_size("total = (1 + 2)\n") == (1, 7)


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    assert sloc.main([str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split() for row in rows] == [
        ["8", "24", str(tmp_path / "a.py")],
        ["1", "3", str(tmp_path / "b.py")],
        ["9", "27", "total"],
    ]


def test_against_a_revision_counts_edited_added_and_deleted_files(
    tmp_path, monkeypatch, capsys
):
    def git(*args):
        identity = ["-c", "user.name=sloc", "-c", "user.email=sloc@example.com"]
        subprocess.run(
            ["git", *identity, "-c", "commit.gpgsign=false", *args],
            cwd=tmp_path,
            check=True,
            capture_output=True,
        )

    package = tmp_path / "pkg"
    package.mkdir()
    (package / "edited.py").write_text("x = 1\n")
    (package / "deleted.py").write_text("y = (1 +\n     2)\n")
    (tmp_path / "outside.py").write_text("w = 0\n")
    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "base")
    (package / "edited.py").write_text("x = 1\nz = x + 2\n")
    (package / "deleted.py").unlink()
    (package / "added.py").write_text(SOURCE)
    monkeypatch.chdir(tmp_path)
    assert sloc.main(["--against", "HEAD", "pkg"]) == 0
    rows = [row.split() for row in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["0", "0", "8", "24", "+8", "+24", "pkg/added.py"],
        ["2", "7", "0", "0", "-2", "-7", "pkg/deleted.py"],
        ["1", "3", "2", "8", "+1", "+5", "pkg/edited.py"],
        ["3", "10", "10", "32", "+7", "+22", "total"],
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
