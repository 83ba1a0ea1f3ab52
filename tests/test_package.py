"""Package-wide checks: every exported name exists, every private name
a module defines is read somewhere in the package, and the source line
census of ``benchmarks/count_src.py`` adds up."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "hybridqkd"
MODULES = sorted(path.stem for path in SOURCE.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(
        "hybridqkd" if name == "__init__" else f"hybridqkd.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def test_private_names_are_read():
    # a refactor that leaves a private constant or helper with no reader
    # fails here
    defined, read = {}, set()
    for path in SOURCE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined
    assert {name: module for name, module in defined.items()
            if name not in read} == {}


def test_line_census_adds_up():
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "count_src.py"), "--json"],
        check=True, capture_output=True, text=True).stdout
    rows = json.loads(out)
    totals = rows.pop("all")
    assert sorted(rows) == sorted(f"{name}.py" for name in MODULES)
    for name, row in rows.items():
        kinds = row["docstring"] + row["comment"] + row["blank"] + row["code"]
        assert kinds == row["total"], name
        # the lines ``wc -l`` counts
        assert row["total"] == (SOURCE / name).read_bytes().count(b"\n"), name
    for kind, total in totals.items():
        assert total == sum(row[kind] for row in rows.values()), kind
