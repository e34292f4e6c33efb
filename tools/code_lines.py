"""Count the code-only lines of Python files: lines that hold a token of
code, leaving out blank lines, comments and docstrings (a module's,
class's or function's leading string, found with ``ast``). A line that a
multi-line string or bracket spans counts once per line it covers.

    python tools/code_lines.py src/nichebench

prints each file's total and code-only line counts, then the sum.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str, filename: str = "<source>") -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = docstring_lines(ast.parse(source, filename))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    paths = [Path(arg) for arg in argv]
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = code = 0
    for path in files:
        source = path.read_text(encoding="utf-8")
        n, c = len(source.splitlines()), code_lines(source, str(path))
        total, code = total + n, code + c
        print(f"{path}: {n} lines, {c} code-only")
    print(f"total: {total} lines, {code} code-only")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
