"""Differential test of the matrix kernels between two source trees.

    python3 tools/kernel_diff.py PARENT_TREE CHANGE_TREE

Each tree is a source checkout with the package under ``src/``.  One child
process imports ``isolab`` from the parent tree and runs ``DRIVER``
(``verify.run_all`` at seeds 0 and 7, then every ``matrix-laws`` op of seeds
0-9, built by ``perfbench/workloads.py`` of this checkout) with each call of
the ``RingMatrix`` methods in ``METHODS`` and of the functions in
``FUNCTIONS`` recorded: its arguments, pickled, and the type and ``repr`` of
its result, or the type and text of the error it raised.  Calls made inside
a recorded call are recorded too.  A second child imports ``isolab`` from the
change tree, replays each recorded call there and reports its result the
same way.  The tool prints the number of calls of each kernel and the
differences (the first ``SHOWN`` in full), and exits 1 when some call
differs.

Both children register ``copyreg`` reducers that rebuild a ``RingMatrix``
from its ``entries`` and a ``UniPoly`` from its variable and coefficients,
through the public constructors, so a pickle depends on neither tree's
stored form, and a tree whose classes do not pickle can still be recorded.
A function is patched in every loaded isolab module that binds it, since
``from .exact_algebra import ...`` binds the name in the importing module.
Standard library only.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from typing import List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
SHOWN = 20

METHODS = (
    "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__eq__", "scale", "transpose", "trace", "is_zero",
    "is_symmetric", "block", "det", "inverse", "nullspace", "char_poly",
)
FUNCTIONS = ("exterior_square", "pfaffian", "kronecker")

#: Runs in the recording child, with ``isolab``, ``sys`` and ``PERFBENCH`` bound.
DRIVER = """
from isolab import verify
for seed in (0, 7):
    verify.run_all(seed=seed)
sys.path.insert(0, PERFBENCH)
import workloads
for seed in range(10):
    for case in workloads.matrix_laws_cases(isolab, seed):
        workloads.matrix_laws_op(isolab, "", case)
"""

#: Shared by both children: the reducers, and ``call``, which returns the
#: value of a call, the error it raised, and its outcome as [type, repr] or
#: ["raise " + error type, error text].
COMMON = """
import copyreg, json, pickle, sys
import isolab
ea = isolab.exact_algebra
copyreg.pickle(ea.RingMatrix, lambda m: (ea.RingMatrix, (m.entries,)))
copyreg.pickle(ea.UniPoly, lambda p: (ea.UniPoly, (p.var, p.coeffs)))

def call(fn, args, kwargs):
    try:
        value = fn(*args, **kwargs)
    except Exception as exc:
        return None, exc, ["raise " + type(exc).__name__, str(exc)]
    return value, None, [type(value).__qualname__, repr(value)]
"""

#: Writes the calls, pickled in the order they start, and one JSON line per
#: call, [name, *outcome, repr of the arguments], in the same order.
RECORDER = COMMON + """
methods, functions, calls_path, results_path, PERFBENCH, driver = json.loads(sys.argv[1])
for name in ("lie_isogeny", "spectral_base", "moduli_invariants", "verify"):
    getattr(isolab, name)
calls, results = open(calls_path, "wb"), open(results_path, "w")
busy, pending, written, started = [], {}, [0], [0]

def recorder(name, fn):
    def recorded(*args, **kwargs):
        if busy:  # pickling or printing an argument or a result
            return fn(*args, **kwargs)
        busy.append(name)
        index, started[0] = started[0], started[0] + 1
        pickle.dump((name, args, kwargs), calls, pickle.HIGHEST_PROTOCOL)
        label = repr(args)[:300]
        busy.pop()
        value, error, outcome = call(fn, args, kwargs)
        pending[index] = json.dumps([name, *outcome, label])
        while written[0] in pending:  # calls inside this one finished first
            results.write(pending.pop(written[0]) + "\\n")
            written[0] += 1
        if error is not None:
            raise error
        return value
    return recorded

for name in methods:
    setattr(ea.RingMatrix, name, recorder(name, getattr(ea.RingMatrix, name)))
for name in functions:
    fn = getattr(ea, name)
    wrapped = recorder(name, fn)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("isolab") and getattr(module, name, None) is fn:
            setattr(module, name, wrapped)
exec(driver, {"isolab": isolab, "sys": sys, "PERFBENCH": PERFBENCH})
calls.close()
results.close()
"""

#: Replays the calls and writes one JSON line per call, [name, *outcome].
REPLAYER = COMMON + """
functions, calls_path, results_path = json.loads(sys.argv[1])
with open(calls_path, "rb") as calls, open(results_path, "w") as results:
    while True:
        try:
            name, args, kwargs = pickle.load(calls)
        except EOFError:
            break
        fn = getattr(ea, name) if name in functions else getattr(ea.RingMatrix, name)
        results.write(json.dumps([name, *call(fn, args, kwargs)[2]]) + "\\n")
"""


def _child(tree: str, code: str, payload) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.abspath(tree), "src")
    env.pop("ISOLAB_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(payload)],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, env=env, cwd=tree,
    )
    if proc.returncode != 0:
        raise SystemExit(f"kernel_diff: the run on {tree} failed:\n{proc.stderr[-4000:]}")


def run(parent: str, change: str, driver: str = DRIVER) -> Tuple[Counter, int, List[tuple]]:
    """The calls per kernel, the number of calls that differ, and the first
    ``SHOWN`` of them as (index, name, arguments, parent outcome, change
    outcome)."""
    counts, differing, shown = Counter(), 0, []
    with tempfile.TemporaryDirectory() as folder:
        calls, left, right = (os.path.join(folder, name) for name in ("calls.pickle", "parent.jsonl", "change.jsonl"))
        _child(parent, RECORDER, [METHODS, FUNCTIONS, calls, left, PERFBENCH, driver])
        _child(change, REPLAYER, [FUNCTIONS, calls, right])
        with open(left, encoding="utf-8") as recorded, open(right, encoding="utf-8") as replayed:
            for index, (a, b) in enumerate(itertools.zip_longest(recorded, replayed)):
                if a is None or b is None:
                    raise SystemExit("kernel_diff: the change replayed a different number of calls")
                name, *want, label = json.loads(a)
                got = json.loads(b)[1:]
                counts[name] += 1
                if want != got:
                    differing += 1
                    if len(shown) < SHOWN:
                        shown.append((index, name, label, want, got))
    return counts, differing, shown


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    counts, differing, shown = run(*args)
    for name, count in sorted(counts.items()):
        print(f"{name}: {count} calls")
    print(f"{sum(counts.values())} calls")
    for index, name, label, want, got in shown:
        print(f"call {index}: {name} {label}")
        print(f"  parent: {json.dumps(want)[:500]}")
        print(f"  change: {json.dumps(got)[:500]}")
    print(f"{differing} differences")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
