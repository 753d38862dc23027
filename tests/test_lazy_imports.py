"""Each CLI command loads only the modules it runs, and ``isolab.<name>``
imports a submodule on first access.  Every run is a fresh interpreter,
since the test process has already imported the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from isolab import cli

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = {
    "cli", "covers_prym", "exact_algebra", "lie_isogeny", "moduli_invariants", "serialize", "spectral_base", "verify",
}

#: Group -> the submodules that a run of any of its commands loads.  The
#: README's "modules loaded" table lists these sets (``tests/test_readme.py``).
GROUP_MODULES = {
    "iso": {"cli", "exact_algebra", "lie_isogeny", "serialize"},
    "base": {"cli", "exact_algebra", "serialize", "spectral_base"},
    "cover": {"cli", "covers_prym", "serialize"},
    "divisor": {"cli", "covers_prym", "serialize"},
    "invariants": {"cli", "moduli_invariants"},
    "higgs": {"cli", "exact_algebra", "lie_isogeny", "moduli_invariants", "serialize", "spectral_base"},
    # every module but serialize, which the suite never uses
    "verify": SUBMODULES - {"serialize"},
}

#: Standard-library modules that no command loads: no command needs
#: dataclasses or inspect, and inspect alone pulls in ast, dis and tokenize.
HEAVY = ("dataclasses", "inspect")
#: Groups that do no arithmetic in the polynomial tower load no rationals
#: either (``fractions`` imports ``decimal``).
TOWER_FREE = {"cover", "divisor", "invariants"}
RATIONALS = ("fractions", "decimal")

FIBER = {"base_label": "x", "kind": "regular", "points": [{"label": f"y{k}", "mult": 1} for k in range(1, 5)]}
BRANCH = {
    "base_label": "x",
    "kind": "generic_branch",
    "points": [{"label": "y1", "mult": 2}, {"label": "y2", "mult": 1}, {"label": "y3", "mult": 1}],
}
PAIR = {"base_label": "x", "kind": "regular", "points": [{"label": "p1", "mult": 1}, {"label": "p2", "mult": 1}]}
DOUBLE = {"base_label": "x", "kind": "generic_branch", "points": [{"label": "q1", "mult": 2}]}
SPLIT = [["1", "0", "0", "0"], ["0", "-1", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]]
IDENTITY = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
QUARTIC = {"a2": ["1/2", "-3"], "a3": ["0", "5/3"], "a4": "4"}

#: "group command" -> a document that the command accepts with exit 0; one
#: for every entry of ``cli.COMMANDS``.
DOCUMENTS = {
    "iso apply": {"map": "d_iso3", "a": SPLIT},
    "iso alpha": {"a": SPLIT},
    "iso hodge": {"q": IDENTITY},
    "base map-so4": {"a1": ["0", "1"], "a2": "-2"},
    "base map-so6": QUARTIC,
    "base oracle": {"kind": "so4", "a1": "1", "a2": "-3"},
    "base genericity": QUARTIC,
    "cover product": {"fiber1": PAIR, "fiber2": DOUBLE},
    "cover sym": {"fiber": FIBER},
    "cover ramcheck": {"fiber": BRANCH},
    "divisor push": {"fiber": FIBER, "divisor": {"y1": 1, "y2": -1}},
    "divisor norm": {"covering": "sigma", "fiber": FIBER, "divisor": {"[y1,y2]": 1, "[y3,y4]": -1}},
    "divisor prym-test": {"covering": "pi", "entries": [{"fiber": BRANCH, "divisor": {"y1": 2, "y2": -2}}]},
    "invariants map": {"d1": 1, "d2": 0, "g": 2},
    "invariants mw": {"d1": 1, "d2": 0, "g": 2, "group": "so22"},
    "invariants lift": {"group": "so33", "b1": 1, "b2": 1},
    "invariants count": {"isogeny": "rank2", "g": 2},
    "invariants census": {"group": "so22", "g": 2},
    "higgs assemble-so22": {
        "n1_degree": 1, "n2_degree": 0, "beta1": "1", "gamma1": "2", "beta2": "3", "gamma2": "4",
    },
}


def group_runs(group):
    """(argv, document) of every command of ``group``; ``verify all`` runs
    with ``--samples 0`` and no document."""
    if group == "verify":
        return [(["verify", "all", "--samples", "0"], None)]
    return [(path.split(), doc) for path, doc in DOCUMENTS.items() if path.split()[0] == group]


RUN_ONE = """
import io, json, sys
sys.stdin = io.StringIO(sys.argv[2])
from isolab.cli import main
code = main(json.loads(sys.argv[1]))
stdlib = [m for m in sys.argv[3:] if m in sys.modules]
print(json.dumps([code, sorted(m[7:] for m in sys.modules if m.startswith("isolab.")), stdlib]), file=sys.stderr)
"""

ATTRIBUTES = """
import json, pkgutil, sys
import isolab
roots = [isolab.ValidationError.__module__, isolab.Record.__module__]
loaded = sorted(m for m in sys.modules if m.startswith("isolab."))
rationals = [m for m in ("fractions", "decimal") if m in sys.modules]
kernel = [getattr(isolab, n) is getattr(isolab.exact_algebra, n)
          for n in ("ValidationError", "Record", "RingMatrix", "UniPoly")]
names = sorted(info.name for info in pkgutil.iter_modules(isolab.__path__))
found = [getattr(isolab, m) is sys.modules["isolab." + m] for m in names]
try:
    isolab.no_such_module
    error = None
except AttributeError as exc:
    error = str(exc)
print(json.dumps({
    "loaded": loaded, "roots": roots, "rationals": rationals, "kernel": kernel,
    "names": names, "found": found, "error": error, "all": isolab.__all__,
}))
"""


def fresh_python(code, *args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("ISOLAB_SEED", None)
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_every_command_has_a_document():
    assert set(DOCUMENTS) == set(cli.COMMANDS)
    assert {path.split()[0] for path in cli.COMMANDS} | {"verify"} == set(GROUP_MODULES)


@pytest.mark.parametrize("group", sorted(GROUP_MODULES))
def test_command_group_loads_only_its_modules(group):
    """Each command of the group, in its own process."""
    forbidden = HEAVY + (RATIONALS if group in TOWER_FREE else ())
    for argv, doc in group_runs(group):
        proc = fresh_python(RUN_ONE, json.dumps(argv), json.dumps(doc), *forbidden)
        code, loaded, stdlib = json.loads(proc.stderr.splitlines()[-1])
        assert code == 0, (argv, proc.stderr)
        assert (argv, set(loaded), stdlib) == (argv, GROUP_MODULES[group], [])


def test_package_attributes_import_submodules_on_first_access():
    proc = fresh_python(ATTRIBUTES)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["loaded"] == []
    assert report["roots"] == ["isolab", "isolab"]
    assert report["rationals"] == []
    assert report["kernel"] == [True] * 4
    assert set(report["names"]) == SUBMODULES
    assert all(report["found"])
    assert report["error"] == "module 'isolab' has no attribute 'no_such_module'"
    assert report["all"] == ["RingMatrix", "UniPoly", "ValidationError"]
