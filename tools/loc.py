"""Count the lines of a Python package by kind: for each module and for the
whole package, the line count (as `wc -l` gives it), then its code,
docstring, comment and blank lines, which add up to it.

A docstring line is a line of a module, class or function docstring (as
`ast.get_docstring` finds it). A comment line starts with `#` once its
indent is stripped. A code line is any other non-blank line.

Run from the repository root: `python3 tools/loc.py [package dir]`, by
default `src/ctfbench`.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

COLUMNS = ("lines", "code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that module, class and function docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """`source`'s line count and its code, docstring, comment and blank lines."""
    docs = _docstring_lines(ast.parse(source))
    counts = dict.fromkeys(COLUMNS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        stripped = line.strip()
        kind = ("docstring" if number in docs else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
    counts["lines"] = source.count("\n")
    return counts


def main(argv: list[str]) -> None:
    package = Path(argv[0] if argv else "src/ctfbench")
    total = dict.fromkeys(COLUMNS, 0)
    print(f"{'module':<16}" + "".join(f"{c:>10}" for c in COLUMNS))
    for path in sorted(package.glob("*.py")):
        counts = count(path.read_text())
        for c in COLUMNS:
            total[c] += counts[c]
        print(f"{path.name:<16}" + "".join(f"{counts[c]:>10}" for c in COLUMNS))
    print(f"{'total':<16}" + "".join(f"{total[c]:>10}" for c in COLUMNS))


if __name__ == "__main__":
    main(sys.argv[1:])
