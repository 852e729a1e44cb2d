"""Count the lines of each module of src/revcat: raw lines and code lines.

A code line is a line that is not blank, not comment-only and not inside a
docstring (the first string statement of a module, class or function body,
found with ``ast``).  The raw count is the number of newlines, as ``wc -l``
counts.  Comparing the two columns before and after a change shows whether a
saving came from code or from docs.

    python3 scripts/loc.py
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "revcat"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers spanned by the docstrings in tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(raw lines, code lines) of one Python source file."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    code = sum(
        1 for i, line in enumerate(text.split("\n"), 1)
        if line.strip() and not line.strip().startswith("#") and i not in docs
    )
    return text.count("\n"), code


def main() -> None:
    rows = [(p.name, *count(p)) for p in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'raw':>5}  {'code':>5}")
    for name, raw, code in rows:
        print(f"{name:<{width}}  {raw:>5}  {code:>5}")


if __name__ == "__main__":
    main()
