#!/usr/bin/env python3
"""Print the code lines of each module under src/fareytight, then the total.

A code line is a line that holds a token of code: docstrings (the first
statement of a module, class or function, when it is a string),
comments and blank lines are left out, and a line of code that ends in
a comment counts.  A token that spans lines, such as a string that is
not a docstring, counts on each line it spans.

    python3 scripts/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fareytight"
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> int:
    counts = {path.stem: code_lines(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    for name, lines in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print("%s\t%d" % (name, lines))
    print("total\t%d" % sum(counts.values()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
