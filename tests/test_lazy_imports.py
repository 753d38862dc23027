"""Each CLI command loads only the modules it runs, and ``isolab.<name>``
imports a submodule on first access.  Every case runs in a fresh
interpreter, since the test process has already imported the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = {
    "cli", "covers_prym", "exact_algebra", "lie_isogeny", "moduli_invariants", "serialize", "spectral_base", "verify",
}
FIBER = {"base_label": "x", "kind": "regular", "points": [{"label": f"y{k}", "mult": 1} for k in range(1, 5)]}

#: "group command" argv, its document, and the submodules the run loads.
GROUP_RUNS = {
    "iso": (
        ["iso", "apply"],
        {"map": "d_iso3", "a": [["1", "0", "0", "0"], ["0", "-1", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]]},
        {"cli", "exact_algebra", "lie_isogeny", "serialize"},
    ),
    "base": (
        ["base", "map-so6"],
        {"a2": "-5", "a3": "0", "a4": "4"},
        {"cli", "exact_algebra", "serialize", "spectral_base"},
    ),
    "cover": (["cover", "sym"], {"fiber": FIBER}, {"cli", "covers_prym", "exact_algebra", "serialize"}),
    "divisor": (
        ["divisor", "push"],
        {"fiber": FIBER, "divisor": {"y1": 1, "y2": -1}},
        {"cli", "covers_prym", "exact_algebra", "serialize"},
    ),
    "invariants": (
        ["invariants", "map"],
        {"d1": 1, "d2": 0, "g": 2},
        {"cli", "exact_algebra", "moduli_invariants"},
    ),
    "higgs": (
        ["higgs", "assemble-so22"],
        {"n1_degree": 1, "n2_degree": 0, "beta1": "1", "gamma1": "2", "beta2": "3", "gamma2": "4"},
        {"cli", "exact_algebra", "lie_isogeny", "moduli_invariants", "serialize", "spectral_base"},
    ),
    # every module but serialize, which the suite never uses
    "verify": (["verify", "all", "--samples", "0"], None, SUBMODULES - {"serialize"}),
}

# The run also reports whether it loaded dataclasses or inspect: no command
# needs them, and inspect alone pulls in ast, dis and tokenize.
RUN_ONE = """
import io, json, sys
sys.stdin = io.StringIO(sys.argv[2])
from isolab.cli import main
code = main(json.loads(sys.argv[1]))
heavy = [m for m in ("dataclasses", "inspect") if m in sys.modules]
print(json.dumps([code, sorted(m[7:] for m in sys.modules if m.startswith("isolab.")), heavy]), file=sys.stderr)
"""

ATTRIBUTES = """
import json, pkgutil, sys
import isolab
loaded = sorted(m for m in sys.modules if m.startswith("isolab."))
names = sorted(info.name for info in pkgutil.iter_modules(isolab.__path__))
found = [getattr(isolab, m) is sys.modules["isolab." + m] for m in names]
try:
    isolab.no_such_module
    error = None
except AttributeError as exc:
    error = str(exc)
print(json.dumps({"loaded": loaded, "names": names, "found": found, "error": error, "all": isolab.__all__}))
"""


def fresh_python(code, *args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("ISOLAB_SEED", None)
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("group", sorted(GROUP_RUNS))
def test_command_group_loads_only_its_modules(group):
    argv, doc, expected = GROUP_RUNS[group]
    proc = fresh_python(RUN_ONE, json.dumps(argv), json.dumps(doc))
    code, loaded, heavy = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    assert set(loaded) == expected
    assert heavy == []


def test_package_attributes_import_submodules_on_first_access():
    proc = fresh_python(ATTRIBUTES)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["loaded"] == ["isolab.exact_algebra"]
    assert set(report["names"]) == SUBMODULES
    assert all(report["found"])
    assert report["error"] == "module 'isolab' has no attribute 'no_such_module'"
    assert report["all"] == ["RingMatrix", "UniPoly", "ValidationError"]
