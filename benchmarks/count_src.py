"""Line census of the package source, one row per module.

    python3 benchmarks/count_src.py [--json] [DIR]

Counts the lines of every ``*.py`` file under ``DIR`` (default: this
checkout's ``src/hybridqkd``) as docstring, comment, blank or code:

* docstring: the lines a module, class or function docstring spans
  (found with ``ast``);
* comment: a line outside a docstring whose only token is a comment
  (found with ``tokenize``);
* blank: a line outside a docstring holding only whitespace;
* code: every other line.

Deleting a comment or trimming a docstring shrinks the total but not the
code count, so a change that claims to simplify the code should quote
the code lines.  Prints a table, or with ``--json`` one JSON object.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import tokenize
from pathlib import Path

_DEFAULT = Path(__file__).resolve().parent.parent / "src" / "hybridqkd"
_KINDS = ("total", "docstring", "comment", "blank", "code")


def _docstring_lines(tree: ast.Module) -> set:
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


def count(source: str) -> dict:
    """The census of one module's source text."""
    lines = source.splitlines()
    docstring = _docstring_lines(ast.parse(source))
    code_rows = set()
    comment_rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment_rows.add(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            code_rows.update(range(tok.start[0], tok.end[0] + 1))
    out = dict.fromkeys(_KINDS, 0)
    out["total"] = len(lines)
    for row, text in enumerate(lines, 1):
        if row in docstring:
            kind = "docstring"
        elif row in comment_rows and row not in code_rows:
            kind = "comment"
        elif not text.strip():
            kind = "blank"
        else:
            kind = "code"
        out[kind] += 1
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dir", nargs="?", type=Path, default=_DEFAULT)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    rows = {path.name: count(path.read_text(encoding="utf-8"))
            for path in sorted(args.dir.rglob("*.py"))}
    rows["all"] = {k: sum(r[k] for r in rows.values()) for k in _KINDS}
    if args.json:
        print(json.dumps(rows, indent=2))
        return
    print(f"{'module':<14}" + "".join(f"{k:>11}" for k in _KINDS))
    for name, row in rows.items():
        print(f"{name:<14}" + "".join(f"{row[k]:>11,}" for k in _KINDS))


if __name__ == "__main__":
    main()
