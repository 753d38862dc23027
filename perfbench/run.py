"""isolab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload oracle-high --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client runs ops in a closed loop (no threads, at most one
child process at a time) for ``--seconds`` and checks every op's output.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the run is traced instead and carries the per-layer
metrics (see perfbench/README.md).  The lines before it record the run
context and a summary with units and sample counts.  Exit status: 0 when
every op was correct, 1 when some op failed, 2 when the run could not
start.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from spans import Recorder, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ISOLAB_MODULES = ("exact_algebra", "spectral_base", "lie_isogeny", "covers_prym", "moduli_invariants", "serialize", "cli")
SETUP_REPEATS = 5
STARTUP_PROBE_REPEATS = 5

#: Reported times are scaled to the machine speed at which one speed probe
#: takes this long (see "Machine speed" in README.md).
REFERENCE_PROBE_MS = 4.0
PROBE_INTERVAL_S = 0.25
PROBE_WINDOW = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The run cannot start: there is no package to import."""


def import_isolab():
    """A fresh import of the package from ``src/`` (earlier imports are
    dropped, so each set-up pays the package's own import cost)."""
    if not os.path.isfile(os.path.join(SRC, "isolab", "__init__.py")):
        raise SetupError(f"no isolab package under {SRC}")
    for name in [m for m in sys.modules if m == "isolab" or m.startswith("isolab.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    package = importlib.import_module("isolab")
    for module in ISOLAB_MODULES:
        importlib.import_module(f"isolab.{module}")
    return package


def set_up(workload, seed: int):
    """Import the package and build the inputs and expected outputs
    ``SETUP_REPEATS`` times.  Returns the last set-up and the median set-up
    time, unscaled and scaled by speed probes taken just before each one."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        probe = statistics.median(speed_probe_ms() for _ in range(3))
        start = time.perf_counter()
        isolab = import_isolab()
        cases = workload.make_cases(isolab, seed)
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * REFERENCE_PROBE_MS / probe)
    return isolab, cases, statistics.median(raw), statistics.median(scaled)


def speed_probe_ms() -> float:
    """Fixed work that uses only the standard library, in ms: about half
    plain integer bytecode and half Fraction arithmetic, the two kinds of
    work the package does.  Its time tracks how fast the machine runs
    Python right now."""
    start = time.perf_counter()
    total = 0
    for i in range(35_000):
        total += i * i
    acc = Fraction(0)
    for k in range(1, 400):
        acc += Fraction(k % 7 - 3, k % 5 + 1) * Fraction(k % 11 + 1, 3)
    return 1000 * (time.perf_counter() - start)


class Loop:
    """Closed-loop op runner: latencies, failures, an output digest and, in
    timed runs, speed probes taken between ops."""

    def __init__(self, isolab, cases, op):
        self.isolab, self.cases, self.op = isolab, cases, op
        self.latencies: List[float] = []
        self.failed = 0
        self.digest = hashlib.sha256()
        self.probes: List[float] = []
        # per op: median of the last PROBE_WINDOW probes taken before it
        self.op_probes: List[float] = []

    def step(self, index: int) -> None:
        case = self.cases[index % len(self.cases)]
        start = time.perf_counter()
        try:
            ok, output = self.op(self.isolab, ROOT, case)
        except Exception:  # noqa: BLE001 - an op that raises is a failed op
            ok, output = False, None
            if not self.failed:
                traceback.print_exc()
        self.latencies.append(time.perf_counter() - start)
        if not ok:
            self.failed += 1
            print(f"op {index} failed: {json.dumps(case.inputs, default=str)[:500]}", file=sys.stderr)
        self.digest.update(json.dumps([index, output], sort_keys=True).encode())

    def for_seconds(self, seconds: float, cycle: int) -> "Loop":
        """Run until ``seconds`` have passed, then finish the current cycle of
        the op mix, so every run measures the same mix."""
        deadline = time.perf_counter() + seconds
        recent = collections.deque(maxlen=PROBE_WINDOW)
        next_probe = 0.0
        index = 0
        while index % cycle or index == 0 or time.perf_counter() < deadline:
            if time.perf_counter() >= next_probe:
                self.probes.append(speed_probe_ms())
                recent.append(self.probes[-1])
                next_probe = time.perf_counter() + PROBE_INTERVAL_S
            self.step(index)
            self.op_probes.append(statistics.median(recent))
            index += 1
        return self


def percentile90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(workload, latencies: List[float], failed: int, setup_s: float) -> Dict[str, float]:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-cold" else resource.RUSAGE_SELF
    return {
        "setup_s": setup_s,
        "ops_per_s": (len(latencies) - failed) / sum(latencies),
        "p50_ms": 1000 * statistics.median(latencies),
        "p90_ms": 1000 * percentile90(latencies),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def _child_seconds(code: str) -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start


def startup_probes() -> Dict[str, float]:
    """Median wall time of a bare interpreter and, beyond it, of
    ``import isolab.cli``; one child process at a time."""
    bare, loaded = [], []
    for _ in range(STARTUP_PROBE_REPEATS):
        bare.append(_child_seconds("pass"))
        loaded.append(_child_seconds("import isolab.cli"))
    interpreter = statistics.median(bare)
    return {"cli.interpreter_s": interpreter, "cli.import_s": statistics.median(loaded) - interpreter}


def traced_run(workload, isolab, cases, seconds: float, spans_path: str = None):
    """Whole cycles of in-process ops.  Each op runs once untraced and then
    once traced, so the overhead ratio compares the same ops under the same
    warm-up and machine load.  Returns the per-layer metrics, the traced
    loop and the untraced loop."""
    ops = workload.cycle * max(1, round(seconds * workload.trace_cycles_per_s))
    plain = Loop(isolab, cases, workload.traced_op)
    traced = Loop(isolab, cases, workload.traced_op)
    recorder = Recorder()
    for index in range(ops):
        plain.step(index)
        recorder.op = index
        recorder.install(isolab)
        try:
            traced.step(index)
        finally:
            recorder.uninstall()
    degrees = {i: cases[i % len(cases)].meta.get("degree") for i in range(ops)}
    metrics = layer_metrics(recorder, degrees)
    metrics["trace_overhead_ratio"] = sum(plain.latencies) / sum(traced.latencies)
    if spans_path:
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        recorder.write(spans_path)
    return metrics, traced, plain


def run_context() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu_model)
    except OSError:
        pass
    src_digest = hashlib.sha256()
    for folder, _, files in sorted(os.walk(os.path.join(SRC, "isolab"))):
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(folder, name), "rb") as handle:
                src_digest.update(name.encode() + b"\0" + handle.read())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "loadavg_start": list(os.getloadavg()),
        "isolab_commit": _git_commit(),
        "isolab_src_sha256": src_digest.hexdigest(),
    }


def _git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            return next((l.split()[0] for l in handle if l.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    context = run_context()
    try:
        isolab, cases, setup_raw, setup_s = set_up(workload, args.seed)
    except Exception as exc:  # noqa: BLE001 - report why the run cannot start
        print(f"perfbench: set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    summary = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    if args.trace:
        spans_path = os.path.join(HERE, "out", f"spans-{workload.name}-seed{args.seed}.jsonl")
        values, loop, plain = traced_run(workload, isolab, cases, args.seconds, spans_path)
        values.update(startup_probes())
        failed = loop.failed + plain.failed
        attempted = len(loop.latencies) + len(plain.latencies)
        summary.update(traced_ops=len(loop.latencies), spans=os.path.relpath(spans_path, ROOT))
    else:
        loop = Loop(isolab, cases, workload.op).for_seconds(args.seconds, workload.cycle)
        scaled = [t * REFERENCE_PROBE_MS / p for t, p in zip(loop.latencies, loop.op_probes)]
        values = end_to_end(workload, scaled, loop.failed, setup_s)
        failed, attempted = loop.failed, len(loop.latencies)
        raw = end_to_end(workload, loop.latencies, loop.failed, setup_raw)
        summary.update(
            samples=attempted,
            beyond_p90=sum(1 for t in scaled if 1000 * t > values["p90_ms"]),
            setup_repeats=SETUP_REPEATS,
            failed_ratio={"value": failed / attempted, "unit": "ratio"},
            speed_probe_ms={
                "median": statistics.median(loop.probes),
                "count": len(loop.probes),
                "reference": REFERENCE_PROBE_MS,
            },
            unscaled={name: raw[name] for name in ("setup_s", "ops_per_s", "p50_ms", "p90_ms")},
        )
    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
    summary["digest"] = loop.digest.hexdigest()
    context["loadavg_end"] = list(os.getloadavg())
    print(json.dumps({"context": context}))
    print(json.dumps({"summary": summary}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_dim_max"):
        return "rows"
    if name.endswith("_bits_max"):
        return "bits"
    if name.endswith("ratio"):
        return "ratio"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
