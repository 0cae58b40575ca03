"""Print the package's two size measures: all lines, and code lines outside docstrings.

For every ``src/fedfreq/*.py`` file, and for their total, it prints the
line count (what ``wc -l`` counts) and the number of non-blank lines that
lie outside module, class and function docstrings, found with ``ast``.
Comments count as code lines.

Usage, from the repository root::

    python tools/src_lines.py
    python tools/src_lines.py ../parent/src/fedfreq   # another tree
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedfreq"
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers spanned by every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def measure(path: Path) -> tuple[int, int]:
    """``(lines, code lines)`` of one source file."""
    text = path.read_text()
    skip = docstring_lines(ast.parse(text, filename=str(path)))
    lines = text.splitlines()
    code = sum(1 for n, line in enumerate(lines, start=1) if line.strip() and n not in skip)
    return len(lines), code


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    files = sorted(package.glob("*.py"))
    if not files:
        raise SystemExit(f"no .py files under {package}")
    print(f"{'file':<16} {'lines':>6} {'code':>6}")
    total_lines = total_code = 0
    for path in files:
        lines, code = measure(path)
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total_lines:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
