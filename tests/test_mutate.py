"""The mutants ``tools/mutate.py`` makes of a function, and its report of a
function that has none."""

import ast
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutate.py"
SPEC = importlib.util.spec_from_file_location("mutate", TOOL)
mutate = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutate)


def labels(source: str):
    function = mutate.find_function(ast.parse(source), "f")
    return [mutate.mutated_source(source, "f", m)[1] for m in mutate.mutants(function)]


def test_a_bare_truth_test_is_negated():
    source = "def f(rest):\n    if rest:\n        raise ValueError\n"
    (mutant,) = mutate.mutants(mutate.find_function(ast.parse(source), "f"))
    text, label = mutate.mutated_source(source, "f", mutant)
    assert label == "line 2 col 8: rest -> not rest"
    assert "if not rest:" in text


@pytest.mark.parametrize(
    "statement,expected",
    [
        ("while x.ready(): pass", "x.ready() -> not x.ready()"),
        ("assert x", "x -> not x"),
        ("return 'a' if x else 'b'", "x -> not x"),
        ("if x == y: pass", "x == y -> x != y"),
        ("if x and y: pass", "x and y -> x or y"),
        ("if not x: pass", "not x -> x"),
    ],
)
def test_only_a_test_that_is_not_already_negatable_gains_a_not(statement, expected):
    (label,) = labels(f"def f(x, y):\n    {statement}\n")
    assert label.split(": ", 1)[1] == expected


def test_a_function_with_no_mutants_is_reported_and_fails(capsys):
    status = mutate.main(["src/isolab/covers_prym.py", "SymFiber.sigma", "--", "tests/test_readme.py", "-q"])
    assert status == 1
    assert capsys.readouterr().out.splitlines()[-1] == "SymFiber.sigma: no mutants"
