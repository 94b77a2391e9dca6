"""Count the code lines of the package: lines that hold a token, leaving out
comments, blank lines and docstrings.

A docstring is the string expression that opens a module, class or
function body. A statement that spans several lines counts each of them.

Usage: ``python tools/code_lines.py [PATH ...]`` (default ``src``). Prints
one line per file, then the total.
"""
from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold a token outside a docstring."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    files = sorted(f for arg in argv or ["src"] for f in
                   ([pathlib.Path(arg)] if arg.endswith(".py") else pathlib.Path(arg).rglob("*.py")))
    total = 0
    for f in files:
        n = code_lines(f.read_text())
        total += n
        print(f"{n:6d} {f}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
