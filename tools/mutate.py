"""Mutation runner: does a test selection notice a small change to a function?

    python3 tools/mutate.py FILE FUNCTION [FUNCTION ...] -- PYTEST_ARGS ...

For example, from the root of a source checkout:

    python3 tools/mutate.py src/isolab/exact_algebra.py _survey RingMatrix.rref \\
        -- tests/test_exact_algebra.py -x -q

``FILE`` is a module of the checkout, each ``FUNCTION`` a top-level function
or a ``Class.method`` in it.  The checkout is copied once to a temporary
directory.  For each function, one mutant at a time is written into the copy
and ``python -m pytest PYTEST_ARGS`` runs there, with ``src/`` of the copy on
``PYTHONPATH``.  A mutant is killed when pytest fails or runs longer than
``TIMEOUT`` seconds, and survives when it passes.  Each test run's address
space is capped at ``MEMORY`` bytes (``RLIMIT_AS``), so a mutant that makes
the tests allocate without bound fails with ``MemoryError`` and is killed
instead of exhausting the machine's memory.  The mutants, each one change
inside the function:

* a binary or augmented operator swapped (+ and -, * and //, / and *,
  % and //, ** and *, << and >>, & and |);
* a comparison negated (== and !=, < and >=, <= and >, is and is not,
  in and not in), ``and`` and ``or`` swapped, ``-x`` made ``+x`` and
  ``not x`` made ``x``;
* an integer constant made one larger and one smaller.

The module is rewritten with ``ast.unparse``; the unmutated rewrite must pass
the selection first.  When hypothesis is installed, a plugin loads a profile
without the shrink phase: a failing example found is the same, and a killed
mutant is not held up minimising it.  The report gives killed/total per
function and every survivor with its line and column.  A survivor needs a
test, or a reason why it is an equivalent mutant.  Exit status 0 when every
mutant is killed, 1 when one survives, 2 when the run could not start.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Callable, Iterator, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BINARY = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
}
NEGATED = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.LtE: ast.Gt,
    ast.Gt: ast.LtE, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}
#: Seconds one test run may take; a run that takes longer kills its mutant.
TIMEOUT = 300.0
#: Bytes of address space one test run may map; a run that needs more fails
#: with MemoryError, which kills its mutant.
MEMORY = 2 * 1024**3
IGNORED = (".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", "out")
PLUGIN = """\
try:
    from hypothesis import Phase, settings
except ImportError:
    pass
else:
    settings.register_profile("mutate", phases=[Phase.explicit, Phase.reuse, Phase.generate])
    settings.load_profile("mutate")
"""

#: One mutant: the index of its node in ``ast.walk`` of the function, and the
#: change applied to a copy of that node, which returns the new node.
Mutant = Tuple[int, Callable[[ast.AST], ast.AST]]


def find_function(tree: ast.Module, qualname: str) -> ast.AST:
    scope = tree.body
    node = None
    for part in qualname.split("."):
        node = next((n for n in scope if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part), None)
        if node is None:
            raise SystemExit(f"mutate: no {qualname!r} in the module")
        scope = node.body
    if not isinstance(node, ast.FunctionDef):
        raise SystemExit(f"mutate: {qualname!r} is not a function")
    return node


def _set(field: str, value) -> Callable[[ast.AST], ast.AST]:
    def apply(node):
        setattr(node, field, value)
        return node
    return apply


def _set_op(position: int, op) -> Callable[[ast.AST], ast.AST]:
    def apply(node):
        node.ops[position] = op()
        return node
    return apply


def mutants(function: ast.AST) -> Iterator[Mutant]:
    for index, node in enumerate(ast.walk(function)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINARY:
            yield index, _set("op", BINARY[type(node.op)]())
        elif isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in NEGATED:
                    yield index, _set_op(k, NEGATED[type(op)])
        elif isinstance(node, ast.BoolOp):
            yield index, _set("op", ast.Or() if isinstance(node.op, ast.And) else ast.And())
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            yield index, _set("op", ast.UAdd())
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield index, lambda n: n.operand
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for step in (1, -1):
                yield index, _set("value", node.value + step)


def mutated_source(source: str, qualname: str, mutant: Mutant) -> Tuple[str, str]:
    """The module with one mutant applied, and a description of the change."""
    tree = ast.parse(source)
    function = find_function(tree, qualname)
    index, apply = mutant
    node = list(ast.walk(function))[index]
    before = ast.unparse(node)
    replacement = apply(copy.deepcopy(node))
    for parent in ast.walk(function):
        for field, value in ast.iter_fields(parent):
            if value is node:
                setattr(parent, field, replacement)
            elif isinstance(value, list) and any(v is node for v in value):
                value[[id(v) for v in value].index(id(node))] = replacement
    after = ast.unparse(replacement)
    return ast.unparse(tree), f"line {node.lineno} col {node.col_offset + 1}: {before} -> {after}"


def cap_memory() -> None:
    """Run in the test run's child before pytest starts: cap its address
    space at ``MEMORY`` bytes, or at a lower hard limit already in place."""
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY if hard == resource.RLIM_INFINITY else min(MEMORY, hard), hard))


def run_tests(workdir: str, pytest_args: List[str]) -> Tuple[bool, float]:
    """Whether the selection passes in ``workdir``, and its wall time."""
    path = os.pathsep.join([os.path.join(workdir, "src"), os.path.dirname(workdir)])
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-p", "mutate_plugin", *pytest_args],
            cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT,
            preexec_fn=cap_memory,
        )
        passed = done.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - start


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print("usage: mutate.py FILE FUNCTION ... -- PYTEST_ARGS ...", file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="mutate.py")
    parser.add_argument("file", help="the module, relative to the checkout root")
    parser.add_argument("functions", nargs="+", help="top-level functions or Class.method names")
    args = parser.parse_args(argv[:split])
    pytest_args = argv[split + 1:]
    with open(os.path.join(ROOT, args.file), encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source)
    plans = {name: list(mutants(find_function(tree, name))) for name in args.functions}

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        workdir = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, workdir, ignore=shutil.ignore_patterns(*IGNORED))
        with open(os.path.join(tmp, "mutate_plugin.py"), "w", encoding="utf-8") as handle:
            handle.write(PLUGIN)
        target = os.path.join(workdir, args.file)

        def write(text: str) -> None:
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text)

        write(ast.unparse(tree))
        passed, seconds = run_tests(workdir, pytest_args)
        if not passed:
            print("mutate: the selection fails on the unmutated module", file=sys.stderr)
            return 2
        print(f"baseline passes in {seconds:.1f} s", flush=True)
        survived = False
        for name, plan in plans.items():
            survivors = []
            for mutant in plan:
                text, label = mutated_source(source, name, mutant)
                write(text)
                passed, seconds = run_tests(workdir, pytest_args)
                print(f"  {name} {label}: {'SURVIVED' if passed else 'killed'} ({seconds:.1f} s)", flush=True)
                if passed:
                    survivors.append(label)
            survived = survived or bool(survivors)
            print(f"{name}: {len(plan) - len(survivors)}/{len(plan)} killed", flush=True)
            for label in survivors:
                print(f"    survivor: {label}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
