#!/usr/bin/env python3
"""Line counts of a Python package, split into four classes.

    python3 tools/src_lines.py [package_dir]

For each module under ``package_dir`` (``src/roagrow`` by default), sorted
by path, and for their total, prints the lines in four classes:

* ``docstring``: the lines of a module, class or function docstring;
* ``comment``: a line whose only token is a comment;
* ``blank``: a line with no token, outside a docstring;
* ``code``: every other line, those of a multi-line string that is not a
  docstring included.

A change that only removes comments or docstrings moves no code line, which
this split makes visible.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLASSES = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def classify(source: str) -> dict:
    """``{class: count}`` for the lines of ``source``."""
    n_lines = len(source.splitlines())
    docs = docstring_lines(ast.parse(source))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(CLASSES, 0)
    for line in range(1, n_lines + 1):
        kind = ("docstring" if line in docs else "code" if line in code
                else "comment" if line in comment else "blank")
        counts[kind] += 1
    return counts


def package_counts(package_dir) -> list:
    """``[(relpath, counts), ...]`` for every module, sorted by path, then
    ``("total", counts)``."""
    package_dir = Path(package_dir)
    rows = []
    total = dict.fromkeys(CLASSES, 0)
    for path in sorted(package_dir.rglob("*.py")):
        counts = classify(path.read_text(encoding="utf-8"))
        rows.append((path.relative_to(package_dir).as_posix(), counts))
        for kind in CLASSES:
            total[kind] += counts[kind]
    return rows + [("total", total)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("package_dir", nargs="?", default=ROOT / "src" / "roagrow")
    args = ap.parse_args(argv)
    rows = package_counts(args.package_dir)
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}} {'total':>6} " + " ".join(f"{k:>9}" for k in CLASSES))
    for name, counts in rows:
        print(f"{name:<{width}} {sum(counts.values()):>6} "
              + " ".join(f"{counts[k]:>9}" for k in CLASSES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
