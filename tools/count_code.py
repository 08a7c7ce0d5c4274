"""Lines of code of each `src/detadapt` module, without docstrings, comments
or blank lines.

    python3 tools/count_code.py [FILE ...]

With no FILE it counts every module of `src/detadapt` and a total. A line
counts if it holds code: it is not blank, not a comment alone and not part
of a docstring (the first statement of a module, class or function, when it
is a string). The lines inside a string that spans lines count as code, so a
blank or `#` line there is code. Only the standard library's `ast` reads the
source.
"""

from __future__ import annotations

import ast
import os
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "detadapt")


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _string_interior_lines(tree: ast.Module) -> set[int]:
    """The lines after the first of each string literal that spans lines."""
    lines = set()
    for node in ast.walk(tree):
        # only a string constant spans lines
        if isinstance(node, (ast.Constant, ast.JoinedStr)) and node.end_lineno > node.lineno:
            lines.update(range(node.lineno + 1, node.end_lineno + 1))
    return lines


def count_code(source: str) -> int:
    """The lines of `source` that hold code (see the module docstring)."""
    tree = ast.parse(source)
    docstrings, interior = _docstring_lines(tree), _string_interior_lines(tree)
    count = 0
    for number, line in enumerate(source.splitlines(), start=1):
        if number in docstrings:
            continue
        text = line.strip()
        if number in interior or (text and not text.startswith("#")):
            count += 1
    return count


def main(argv: list[str] | None = None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        paths = sorted(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
                       if name.endswith(".py"))
    total = 0
    for path in paths:
        with open(path) as fh:
            count = count_code(fh.read())
        total += count
        print(f"{count:6d}  {os.path.basename(path)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
