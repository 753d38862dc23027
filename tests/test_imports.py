"""No module of the package imports a name it neither uses nor exports, and
no public name the package defines goes unreferenced."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "isolab"


def _all_assignments(tree):
    return [
        node for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]


def unused_imports(source: str):
    """Names bound by import statements that no expression reads and
    ``__all__`` does not list, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [a.asname or a.name.split(".")[0] for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in _all_assignments(tree):
        exported = set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used | exported]


def test_scan_reports_an_unused_import():
    source = "from fractions import Fraction\nimport os, sys\n__all__ = ['sys']\n"
    assert unused_imports(source) == ["Fraction", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def public_definitions(tree):
    """The public functions and classes a module defines, and the public
    methods of its classes."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f.name for f in node.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    return names


def references(tree):
    """Every name, attribute and string constant a module holds, except the
    entries of its ``__all__``; a string counts because names are also looked
    up with ``getattr``."""
    exports = {id(c) for node in _all_assignments(tree) for c in ast.walk(node.value)}
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in exports:
            refs.add(node.value)
    return refs


def unreferenced(defining, referencing):
    """Public names defined in the ``defining`` sources that neither they nor
    the ``referencing`` sources refer to, in source order."""
    trees = [ast.parse(source) for source in defining]
    refs = set().union(*(references(ast.parse(source)) for source in referencing), *map(references, trees))
    return [name for tree in trees for name in public_definitions(tree) if name not in refs]


def test_scan_reports_an_unreferenced_definition():
    module = (
        "__all__ = ['used', 'dead', 'Box']\n"
        "def used(): pass\n"
        "def dead(): pass\n"
        "class Box:\n"
        "    def read(self): pass\n"
        "    def spare(self): pass\n"
    )
    caller = "import m\nm.used(m.Box().read())\n"
    assert unreferenced([module], [caller]) == ["dead", "spare"]
    assert unreferenced([module], [caller, "getattr(m, 'dead')\n"]) == ["spare"]


def test_no_unreferenced_public_definitions():
    readers = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    assert unreferenced(
        [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))],
        [p.read_text(encoding="utf-8") for p in readers],
    ) == []
