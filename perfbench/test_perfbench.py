"""Checks of the benchmark itself (run with ``python3 -m pytest perfbench``):
the correctness gate can fail, traced runs repeat exactly, and a checkout
without the package refuses to run."""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WRONG = {
    "oracle-high": ("sextic", ["0"]),
    "matrix-laws": ("sextic", ["0"]),
    "cli-cold": ("report", {"command": "base map-so4"}),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_counts_a_wrong_expected_value_as_failed(name):
    workload = WORKLOADS[name]
    isolab = run.import_isolab()
    good = workload.make_cases(isolab, 5)[0]
    key, value = WRONG[name]
    bad = dataclasses.replace(good, expected={**good.expected, key: value})
    loop = run.Loop(isolab, [good, bad], workload.op)
    loop.step(0)
    loop.step(1)
    assert (len(loop.latencies), loop.failed) == (2, 1)


def _traced_counts(name):
    workload = WORKLOADS[name]
    isolab, cases, _, _ = run.set_up(workload, 3)
    metrics, traced, plain = run.traced_run(workload, isolab, cases, seconds=0.01)
    assert traced.failed == plain.failed == 0
    counts = {k: v for k, v in metrics.items() if k.endswith((".calls", "_dim_max", "_bits_max"))}
    return counts, traced.digest.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_repeat_counts_and_outputs(name):
    first, second = _traced_counts(name), _traced_counts(name)
    assert first == second
    assert any(first[0].values())


def test_refuses_to_run_without_the_package(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix-laws", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
