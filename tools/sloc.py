"""Code lines and code tokens per Python file: docstrings, comments and blank lines excluded.

    python3 tools/sloc.py [PATH ...]

Each PATH is a file or a directory searched for ``*.py`` files; the default
is ``src``.  Prints one ``<lines> <tokens> <file>`` row per file, then the
totals.  A code token is any token but a comment, a docstring or layout
(newlines, indents, dedents), so joining or splitting lines leaves the token
count as it was.  A line counts when a code token starts, ends or runs
through it, so a statement spread over three lines counts three.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_spans(source):
    """The (start, end) positions of module, class and function docstrings."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                start = first.lineno, first.col_offset
                spans.append((start, (first.end_lineno, first.end_col_offset)))
    return spans


def code_size(source):
    """The number of lines of ``source`` that hold code, and of its code tokens."""
    docstrings = docstring_spans(source)
    lines, tokens = set(), 0
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT or any(
            start <= token.start and token.end <= end for start, end in docstrings
        ):
            continue
        tokens += 1
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines), tokens


def python_files(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or ["src"]
    total_lines = total_tokens = 0
    for path in python_files(paths):
        lines, tokens = code_size(path.read_text())
        total_lines += lines
        total_tokens += tokens
        print(f"{lines:6d} {tokens:7d} {path}")
    print(f"{total_lines:6d} {total_tokens:7d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
