#!/usr/bin/env python3
"""Count the lines of each module of the package as code, docstring, comment and blank.

Usage: python scripts/src_lines.py

Reads ``src/poisson_lab/*.py`` of the checkout the script sits in and prints
one row per module and a total row.  A docstring is a string statement that
comes first in a module, class or function body, all its lines; a comment
line holds only a comment; a blank line is an empty (or whitespace-only) line
outside a docstring; every other line is code.  The columns add up to
``wc -l``'s count.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "poisson_lab"
_KINDS = ("code", "docstring", "comment", "blank")


def count(path: Path) -> dict:
    """{kind: lines} of the module at ``path``, for each of ``_KINDS``."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    comments = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(text).readline)
                if tok.type == tokenize.COMMENT and not tok.line[: tok.start[1]].strip()}
    out = dict.fromkeys(_KINDS, 0)
    for i, line in enumerate(lines, 1):
        if i in docs:
            out["docstring"] += 1
        elif not line.strip():
            out["blank"] += 1
        elif i in comments:
            out["comment"] += 1
        else:
            out["code"] += 1
    return out


def main() -> int:
    rows = [(p.name, count(p)) for p in sorted(_SRC.glob("*.py"))]
    rows.append(("total", {k: sum(c[k] for _, c in rows) for k in _KINDS}))
    print(f"{'module':<14}{'lines':>7}" + "".join(f"{k:>11}" for k in _KINDS))
    for name, c in rows:
        print(f"{name:<14}{sum(c.values()):>7}" + "".join(f"{c[k]:>11}" for k in _KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
