"""Lines of code of each `src/detadapt` module, without docstrings, comments
or blank lines.

    python3 tools/count_code.py [--defs] [FILE ...]

With no FILE it counts every module of `src/detadapt` and a total. With
`--defs` it prints, before each file's count, each top-level function and
class of the file with its own count, decorators included. A line
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


def _code_lines(source: str, tree: ast.Module) -> set[int]:
    """The numbers of the lines of `source` that hold code (see the module docstring)."""
    docstrings, interior = _docstring_lines(tree), _string_interior_lines(tree)
    lines = set()
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if number not in docstrings and (number in interior
                                         or (text and not text.startswith("#"))):
            lines.add(number)
    return lines


def count_code(source: str) -> int:
    """The lines of `source` that hold code (see the module docstring)."""
    return len(_code_lines(source, ast.parse(source)))


def count_definitions(source: str) -> list[tuple[str, int]]:
    """Each top-level function and class of `source`, in order, and its lines
    of code, from its first decorator to its end."""
    tree = ast.parse(source)
    lines = _code_lines(source, tree)
    counts = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            counts.append((node.name, len([n for n in lines if first <= n <= node.end_lineno])))
    return counts


def main(argv: list[str] | None = None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    defs = "--defs" in paths
    paths = [path for path in paths if path != "--defs"]
    if not paths:
        paths = sorted(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
                       if name.endswith(".py"))
    total = 0
    for path in paths:
        with open(path) as fh:
            source = fh.read()
        if defs:
            for name, count in count_definitions(source):
                print(f"{count:6d}    {name}")
        count = count_code(source)
        total += count
        print(f"{count:6d}  {os.path.basename(path)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
