"""Every script in demos/ runs to completion as a program, using public names only."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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
