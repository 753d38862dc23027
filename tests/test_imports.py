"""No module of the package imports a name it neither uses nor exports, and
no public name the package defines goes unreferenced."""

import ast
import builtins
import importlib
import typing
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
    methods of its classes, as (name, is_method)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append((node.name, False))
        if isinstance(node, ast.ClassDef):
            names += [(f.name, True) for f in node.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    return names


def references(tree):
    """The bare names a module reads, and the attributes and string
    constants it holds, except the entries of its ``__all__``; a string
    counts because names are also looked up with ``getattr``."""
    exports = {id(c) for node in _all_assignments(tree) for c in ast.walk(node.value)}
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in exports:
            attributes.add(node.value)
    return names, attributes


def unreferenced(defining, referencing):
    """Public names defined in the ``defining`` sources that neither they nor
    the ``referencing`` sources refer to, in source order.  A method counts
    as referenced only through an attribute or a string: a bare name is a
    function, a class or a local variable, such as ``zero = [0]``."""
    trees = [ast.parse(source) for source in defining]
    refs = [references(ast.parse(source)) for source in referencing] + [references(tree) for tree in trees]
    names = set().union(*(n for n, _ in refs))
    attributes = set().union(*(a for _, a in refs))
    return [
        name for tree in trees for name, method in public_definitions(tree)
        if name not in attributes and (method or name not in names)
    ]


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
    assert unreferenced([module], [caller, "from m import dead\ndead()\n"]) == ["spare"]
    assert unreferenced([module], [caller, "spare = [0]\nprint(spare)\n"]) == ["dead", "spare"]


def test_no_unreferenced_public_definitions():
    readers = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    assert unreferenced(
        [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))],
        [p.read_text(encoding="utf-8") for p in readers],
    ) == []


def module_bindings(tree) -> set:
    """Names the module binds at its top level, in ``if`` and ``try`` blocks
    included (so an ``if TYPE_CHECKING:`` import counts)."""
    bound = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.If, ast.Try)):
            stack += node.body + node.orelse + getattr(node, "finalbody", [])
            stack += [s for h in getattr(node, "handlers", []) for s in h.body]
    return bound


def annotations(tree):
    """Every annotation of the module: of arguments, returns and annotated
    assignments, at any depth.  A string annotation is parsed as the
    expression it names."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unbound_annotation_names(source: str):
    """Names read in an annotation that the module binds nowhere at its top
    level and that are not builtins, as (line, name) in source order."""
    tree = ast.parse(source)
    bound = module_bindings(tree) | set(dir(builtins))
    out = []
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            out += [(annotation.lineno, n) for n in names if n not in bound]
    return sorted(set(out))


def test_scan_reports_an_unbound_annotation_name():
    source = (
        "from typing import TYPE_CHECKING, Optional\n"
        "if TYPE_CHECKING:\n"
        "    from . import covers_prym as cp\n"
        "Alias = int\n"
        "def f(a: cp.Divisor, b: sb.Base, *c: Alias, **d: 'Missing') -> Optional[Local]:\n"
        "    from . import spectral_base as sb\n"
        "class Box:\n"
        "    field: 'Box'\n"
        "    other: Gone\n"
    )
    assert unbound_annotation_names(source) == [(5, "Local"), (5, "Missing"), (5, "sb"), (9, "Gone")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_annotation_names_are_bound_at_module_level(path):
    assert unbound_annotation_names(path.read_text(encoding="utf-8")) == []


def type_checking_namespace(module) -> dict:
    """The module's globals plus what its ``if TYPE_CHECKING:`` blocks import."""
    namespace = dict(vars(module))
    for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            exec(compile(ast.Module(body=node.body, type_ignores=[]), module.__file__, "exec"), namespace)
    return namespace


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_annotations_resolve_with_the_type_checking_imports(path):
    module = importlib.import_module(f"isolab.{path.stem}")
    namespace = type_checking_namespace(module)
    for obj in vars(module).values():
        if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
            methods = [m for m in vars(obj).values() if callable(m)] if isinstance(obj, type) else []
            for target in [obj, *methods]:
                typing.get_type_hints(target, globalns=namespace)
