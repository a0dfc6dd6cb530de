"""The documentation runs: every script in demos/ runs to completion as a
program, using public names only, as every bundled optimizer module is
built from public names; every Python example in README.md runs and
prints what its comments show; and every test, file and ``bench`` command the
README cites exists."""

import ast
import fnmatch
import importlib
import io
import os
import re
import runpy
import shlex
import tokenize
from pathlib import Path

import pytest

from numopt.bench import _build_parser

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
OPTIMIZERS = sorted((ROOT / "src" / "numopt" / "optimizers").glob("[!_]*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced(language):
    """The bodies of README.md's ```` ```language ```` blocks."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def code():
    """README.md's code: its fenced blocks and the spans between backticks."""
    prose = re.sub(r"^```.*?^```$", "", README, flags=re.M | re.S)
    return fenced(r"\w*") + re.findall(r"`([^`]+)`", prose)


EXAMPLES = fenced("python")


def repository_files():
    """Every file's path relative to the root, hidden folders left out."""
    for folder, folders, names in os.walk(ROOT):
        folders[:] = [name for name in folders if not name.startswith(".")]
        for name in names:
            yield Path(folder, name).relative_to(ROOT).as_posix()


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_imports_only_public_names(path):
    imports = [
        node
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numopt"
    ]
    assert imports, "a demo shows numopt, so it imports from it"
    for node in imports:
        public = importlib.import_module(node.module).__all__
        for alias in node.names:
            assert alias.name in public, f"line {node.lineno}: {node.module}.{alias.name}"


@pytest.mark.parametrize("path", OPTIMIZERS, ids=lambda path: path.stem)
def test_bundled_optimizer_imports_no_private_name(path):
    """A bundled optimizer uses the kit a user's optimizer has, so it imports
    no underscore name.  The module ``_common`` is the kit's home, whose
    public names it may import."""
    private = [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("block", EXAMPLES, ids=[f"example{i}" for i in range(len(EXAMPLES))])
def test_readme_example_prints_what_its_comments_show(block, capsys):
    """Each Python block of README.md runs statement by statement; a
    top-level ``print(...)  # shown`` prints exactly what follows its ``#``."""
    comments = {
        token.start[0]: token.string.lstrip("#").strip()
        for token in tokenize.generate_tokens(io.StringIO(block).readline)
        if token.type == tokenize.COMMENT
    }
    namespace = {}
    for statement in ast.parse(block).body:
        exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
        printed = capsys.readouterr().out
        call = statement.value if isinstance(statement, ast.Expr) else None
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "print":
            assert printed.strip() == comments[statement.lineno], ast.unparse(statement)


def test_every_test_the_readme_names_is_defined():
    defined = {
        node.name
        for folder in ("tests", "perfbench")
        for path in (ROOT / folder).glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    cited = set(re.findall(r"\b(test_\w+|Test[A-Z]\w*)\b(?!\.py)", README))
    assert cited
    assert sorted(cited - defined) == []


def test_every_file_the_readme_names_is_in_the_repository():
    files = list(repository_files())
    cited = {
        path
        for span in code()
        for path in re.findall(r"[\w./*-]+\.(?:py|json)\b", span)
    }
    assert cited
    missing = [
        path
        for path in sorted(cited)
        if not fnmatch.filter(files, path) + fnmatch.filter(files, "*/" + path)
    ]
    assert missing == []


def test_every_bench_command_in_the_readme_parses():
    commands = [
        line
        for block in fenced("sh")
        for line in block.splitlines()
        if line.startswith("bench ")
    ]
    assert commands
    for line in commands:
        _build_parser().parse_args(shlex.split(line)[1:])
