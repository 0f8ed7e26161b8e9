"""Line counts of the package's modules, in the two measures its size is tracked by.

    python3 tools/loc.py [DIR]

Prints, for each module of DIR (default: ``src/searchphase`` beside this
script) and in total, its ``wc -l`` line count and its code lines: the
lines that hold a token of code, so no blank line, no comment, and no
docstring (the string statement that opens a module, class or function,
found with ``ast``).
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(wc -l lines, code lines) of a module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docstrings)
    return source.count("\n"), len(code)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    pkg = args[0] if args else os.path.join(ROOT, "src", "searchphase")
    total = [0, 0]
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for name in sorted(n for n in os.listdir(pkg) if n.endswith(".py")):
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            lines, code = count(fh.read())
        total = [total[0] + lines, total[1] + code]
        print(f"{name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total[0]:>6} {total[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
