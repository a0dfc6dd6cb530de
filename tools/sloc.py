"""Code lines and code tokens per Python file: docstrings, comments and blank lines excluded.

    python3 tools/sloc.py [PATH ...]
    python3 tools/sloc.py --against REF [PATH ...]

Each PATH is a file or a directory searched for ``*.py`` files; the default
is ``src``.  Prints one ``<lines> <tokens> <file>`` row per file, then the
totals.  With ``--against``, run from inside a git repository, each row is
``<lines> <tokens>`` at the git revision REF (read with ``git show``), the
same in the working tree, the difference, then the file; a file missing on
one side counts as 0 there.  A code token is any token but a comment, a
docstring or layout (newlines, indents, dedents), so joining or splitting
lines leaves the token count as it was.  A line counts when a code token
starts, ends or runs through it, so a statement spread over three lines
counts three.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
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


def git(*args):
    return subprocess.run(["git", *args], stdout=subprocess.PIPE, text=True, check=True).stdout


def sizes_at(ref, paths):
    """{file: code_size} of the ``*.py`` files under ``paths`` at git ``ref``."""
    names = git("ls-tree", "-r", "--name-only", ref, "--", *paths).splitlines()
    return {
        name: code_size(git("show", f"{ref}:./{name}")) for name in names if name.endswith(".py")
    }


def print_sizes(paths):
    total_lines = total_tokens = 0
    for path in python_files(paths):
        lines, tokens = code_size(path.read_text())
        total_lines += lines
        total_tokens += tokens
        print(f"{lines:6d} {tokens:7d} {path}")
    print(f"{total_lines:6d} {total_tokens:7d} total")


def print_comparison(ref, paths):
    before = sizes_at(ref, paths)
    after = {
        os.path.relpath(path): code_size(path.read_text())
        for path in python_files(paths)
        if path.is_file()
    }
    totals = [0, 0, 0, 0]
    rows = []
    for name in sorted(before.keys() | after.keys()):
        sizes = [*before.get(name, (0, 0)), *after.get(name, (0, 0))]
        totals = [total + size for total, size in zip(totals, sizes)]
        rows.append((name, sizes))
    for name, (old_lines, old_tokens, new_lines, new_tokens) in [*rows, ("total", totals)]:
        print(
            f"{old_lines:6d} {old_tokens:7d} {new_lines:6d} {new_tokens:7d} "
            f"{new_lines - old_lines:+6d} {new_tokens - old_tokens:+7d} {name}"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description="Code lines and tokens per Python file.")
    parser.add_argument("--against", metavar="REF", help="compare with this git revision")
    parser.add_argument("paths", nargs="*", default=["src"], metavar="PATH")
    args = parser.parse_args(argv)
    if args.against is None:
        print_sizes(args.paths)
    else:
        print_comparison(args.against, args.paths)
    return 0

if __name__ == "__main__":
    sys.exit(main())
