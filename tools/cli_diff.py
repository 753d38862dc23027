"""Differential test of the command line between two source trees.

    python3 tools/cli_diff.py PARENT_TREE CHANGE_TREE

Each tree is a source checkout with the package under ``src/``.  For each
tree one child process imports ``isolab.cli`` from that tree and runs
``cli.main`` in process over the same list of calls:

* the documents of the benchmark's ``cli-cold`` mix (two cycles each for
  seeds 0-2, built by ``perfbench/workloads.py`` of this checkout);
* each of those documents with every field, at any depth, replaced in turn
  by each value of ``REPLACEMENTS``;
* help and usage errors: ``--help``, an unknown group, and for each group
  its ``--help``, a missing command, an unknown command, and for each
  command its ``--help`` and an unknown option after and before it;
* ``verify all --samples 1``;
* the ``iso hodge`` documents of ``HODGE_FORMS``, each with orientation 1
  and -1, for the order in which a form and an orientation are refused.

It compares exit code, stdout and stderr call by call, prints the call
count, a digest of each side and every difference, and exits 1 when some
call differs.  Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from typing import Any, Iterator, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

from workloads import _cli_documents  # noqa: E402

SEEDS = (0, 1, 2)
CYCLES = 2
REPLACEMENTS = ("x?", [], {}, None, True, 1.5, [["x?"]])
#: Gram matrices refused by ``iso hodge``: degenerate 4x4, degenerate 2x2
#: (refused as degenerate before its shape) and a non-degenerate 3x3.
HODGE_FORMS = ([["0"] * 4] * 4, [["0", "0"], ["0", "0"]], [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])

#: Runs in the child: reads the calls from the JSON file named by its
#: argument and prints, per call, [exit code, stdout, stderr] as one JSON list.
RUNNER = """
import contextlib, io, json, sys
from isolab.cli import main
results = []
with open(sys.argv[1], encoding="utf-8") as handle:
    work = json.load(handle)
for argv, text in work:
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(text)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ["SystemExit", exc.code]
    results.append([code, out.getvalue(), err.getvalue()])
sys.stdout = sys.__stdout__
print(json.dumps(results))
"""


def replaced(doc: Any) -> Iterator[Any]:
    """``doc`` with one field or array element, at any depth, replaced by
    each of ``REPLACEMENTS`` in turn."""
    if isinstance(doc, dict):
        slots = list(doc)
    elif isinstance(doc, list):
        slots = range(len(doc))
    else:
        return
    for slot in slots:
        for value in REPLACEMENTS:
            copy = doc.copy()
            copy[slot] = value
            yield copy
        for inner in replaced(doc[slot]):
            copy = doc.copy()
            copy[slot] = inner
            yield copy


def calls() -> List[Tuple[List[str], str]]:
    documents = []
    for seed in SEEDS:
        rng = random.Random(f"{seed}:cli-cold")
        for _ in range(CYCLES):
            documents += _cli_documents(rng)
    out = []
    for argv, doc in documents:
        out.append((argv, json.dumps(doc)))
        out += [(argv, json.dumps(variant)) for variant in replaced(doc)]
    commands = sorted({tuple(argv[:2]) for argv, _ in documents} | {("verify", "all")})
    out += [(["--help"], ""), (["no-such-group"], ""), ([], "")]
    for group in sorted({g for g, _ in commands}):
        out += [([group, "--help"], ""), ([group], ""), ([group, "no-such-command"], "")]
    for command in commands:
        out += [([*command, "--help"], ""), ([*command, "--no-such-option"], ""), (["--no-such-option", *command], "")]
    out.append((["verify", "all", "--samples", "1"], ""))
    for q in HODGE_FORMS:
        out += [(["iso", "hodge", "--orientation", sign], json.dumps({"q": q})) for sign in ("1", "-1")]
    return out


def start(tree: str, calls_path: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.abspath(tree), "src")
    env.pop("ISOLAB_SEED", None)
    pipe = subprocess.PIPE
    return subprocess.Popen(
        [sys.executable, "-c", RUNNER, calls_path],
        stdin=subprocess.DEVNULL, stdout=pipe, stderr=pipe, text=True, env=env, cwd=tree,
    )


def collect(tree: str, proc: subprocess.Popen) -> list:
    out, err = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"cli_diff: the run on {tree} failed:\n{err[-4000:]}")
    return json.loads(out)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    work = calls()
    with tempfile.TemporaryDirectory() as folder:
        calls_path = os.path.join(folder, "calls.json")
        with open(calls_path, "w", encoding="utf-8") as handle:
            json.dump(work, handle)
        procs = [start(tree, calls_path) for tree in args]  # the two trees run side by side
        parent, change = (collect(tree, proc) for tree, proc in zip(args, procs))
    differences = [i for i, (a, b) in enumerate(zip(parent, change)) if a != b]
    for i in differences:
        argv, text = work[i]
        print(f"call {i}: {argv} {text[:200]}")
        print(f"  parent: {json.dumps(parent[i])[:500]}")
        print(f"  change: {json.dumps(change[i])[:500]}")
    for name, results in (("parent", parent), ("change", change)):
        digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
        codes = Counter(json.dumps(code) for code, _, _ in results)
        tally = ", ".join(f"exit {code}: {n}" for code, n in sorted(codes.items()))
        print(f"{name}: {len(results)} calls ({tally}), sha256 {digest}")
    print(f"{len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
