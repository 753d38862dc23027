"""Differential test of the matrix and polynomial kernels between two source trees.

    python3 tools/kernel_diff.py PARENT_TREE CHANGE_TREE

Each tree is a source checkout with the package under ``src/``.  One child
process imports ``isolab`` from the parent tree and runs ``DRIVER``
(``verify.run_all`` at seeds 0 and 7, every ``matrix-laws`` and
``oracle-high`` op of seeds 0-9, built by ``perfbench/workloads.py`` of this
checkout, and ``spectral_base.genericity_report`` on seeded sections of
degree 0-3, so that ``poly_gcd`` is called) with each call of the
``RingMatrix`` methods in ``METHODS`` and of the functions in ``FUNCTIONS``
recorded: its arguments, pickled, and the
type and ``repr`` of its result, or the type and text of the error it
raised.  Calls made inside a recorded call are recorded too.  A second
child imports ``isolab`` from the change tree, replays each recorded call
there and reports its result the same way.  The tool prints the number of
calls of each kernel and the differences (the first ``SHOWN`` in full), and
exits 1 when some call differs.

``__init__`` in ``METHODS`` records the constructor, as ``RingMatrix``, and a
classmethod such as ``blocks`` is recorded without its class; a method that
the parent tree lacks is not recorded.  A name in ``FUNCTIONS`` is a function
of ``exact_algebra``, or a dotted path from the package, such as
``lie_isogeny.d_iso2`` or ``lie_isogeny.HiggsBlockField.as_matrix``, so a map
built on the kernels is compared whole as well as call by call: the
polynomial kernels ``resultant``, ``poly_gcd``, ``products`` and
``pairwise_sum_poly`` are recorded, and so are the oracles that call them.
A call replays the keyword arguments it was recorded with, so a keyword
that the change tree drops shows as a difference.

Both children register ``copyreg`` reducers that rebuild a ``RingMatrix``
from its ``entries`` and a ``UniPoly`` from its variable and coefficients,
through the public constructors, so a pickle depends on neither tree's
stored form, and a tree whose classes do not pickle can still be recorded.
A lambda or nested function, such as the map given to ``linear_image``, is
pickled as its compiled code, closure and module, and rebuilt in the change
tree's module.  A function is patched in every loaded isolab module that
binds it, since ``from .exact_algebra import ...`` binds the name in the
importing module.  Standard library only.
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
    "__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__eq__", "scale", "scaled_rows", "transpose",
    "trace", "is_zero", "is_symmetric", "block", "blocks", "linear_image", "det", "inverse", "eigenvectors", "char_poly",
)
FUNCTIONS = (
    "resultant", "poly_gcd", "products", "pairwise_sum_poly", "exterior_square", "pfaffian", "kronecker",
    "lie_isogeny.d_iso2", "lie_isogeny.hodge_split", "lie_isogeny.HiggsBlockField.as_matrix",
    "spectral_base.so4_oracle", "spectral_base.so6_oracle", "covers_prym.ramification_check", "covers_prym.twist_ledger",
)

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
    for case in workloads.oracle_high_cases(isolab, seed):
        workloads.oracle_high_op(isolab, "", case)
import random
rng = random.Random("kernel_diff genericity")
for _ in range(40):
    isolab.spectral_base.genericity_report(isolab.spectral_base.BaseSL4(*(verify.rand_section(rng, 3) for _ in range(3))))
"""

#: Shared by both children: the reducers, ``resolve``, which returns the
#: owner (a class or module) and attribute of a name in ``FUNCTIONS``, and
#: ``call``, which returns the value of a call, the error it raised, and its
#: outcome as [type, repr] or ["raise " + error type, error text].
COMMON = """
import copyreg, importlib, json, marshal, pickle, sys, types
import isolab
ea = isolab.exact_algebra
copyreg.pickle(ea.RingMatrix, lambda m: (ea.RingMatrix, (m.entries,)))
copyreg.pickle(ea.UniPoly, lambda p: (ea.UniPoly, (p.var, p.coeffs)))

def rebuild(module, code, cells, defaults, name):
    namespace = importlib.import_module(module).__dict__ if module else {}
    closure = tuple(types.CellType(c) for c in cells) or None
    return types.FunctionType(marshal.loads(code), namespace, name, defaults, closure)

class Pickler(pickle.Pickler):
    def reducer_override(self, obj):
        if isinstance(obj, types.FunctionType) and "<" in obj.__qualname__:  # a lambda or nested function
            cells = tuple(c.cell_contents for c in obj.__closure__ or ())
            return rebuild, (obj.__module__, marshal.dumps(obj.__code__), cells, obj.__defaults__, obj.__name__)
        return NotImplemented

def resolve(name):
    path = name.split(".") if "." in name else ["exact_algebra", name]
    owner = importlib.import_module("isolab." + path[0])
    for part in path[1:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]

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

def recorder(name, fn, skip=0):  # the first ``skip`` arguments are neither pickled nor shown
    def recorded(*args, **kwargs):
        if busy:  # pickling or printing an argument or a result
            return fn(*args, **kwargs)
        busy.append(name)
        index, started[0] = started[0], started[0] + 1
        Pickler(calls, pickle.HIGHEST_PROTOCOL).dump((name, args[skip:], kwargs))
        label = repr(args[skip:])[:300]
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

def patch(owner, attr, name):
    raw = owner.__dict__.get(attr)
    if raw is None:  # not in this tree
        return
    if isinstance(raw, classmethod):
        setattr(owner, attr, staticmethod(recorder(name, getattr(owner, attr))))
    elif isinstance(owner, type):
        setattr(owner, attr, recorder(name, raw))
    else:
        wrapped = recorder(name, raw)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("isolab") and getattr(module, attr, None) is raw:
                setattr(module, attr, wrapped)

for name in methods:
    if name == "__init__":  # the constructor: the outcome is the matrix built
        init = ea.RingMatrix.__init__
        made = recorder("RingMatrix", lambda self, *args, **kwargs: (init(self, *args, **kwargs), self)[1], skip=1)
        ea.RingMatrix.__init__ = lambda self, *args, **kwargs: made(self, *args, **kwargs) and None
    else:
        patch(ea.RingMatrix, name, name)
for name in functions:
    patch(*resolve(name), name)
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
        if name == "RingMatrix":
            fn = ea.RingMatrix
        else:
            fn = getattr(*resolve(name)) if name in functions else getattr(ea.RingMatrix, name)
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
