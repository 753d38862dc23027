"""Spans around the public functions of isolab, recorded from outside.

``install`` replaces each traced function in every isolab module namespace
that holds it (modules bind them with ``from .exact_algebra import ...``,
and a patched module attribute is also what calls inside that module
resolve to), plus the ``RingMatrix.char_poly``/``det``/``inverse``
methods.  Functions are grouped under one span name per layer metric.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span or -1, ``op`` the op index.  A call whose enclosing span has
the same name (direct recursion inside one layer) is counted but folded
into that span, which keeps the span list small and changes no layer time.
"""

from __future__ import annotations

import json
import statistics
from fractions import Fraction
from time import perf_counter
from typing import Dict, List, Tuple

SPAN_NAMES: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "exact_algebra": {
        "exact_algebra.resultant": ("resultant",),
        "exact_algebra.exact_div": ("exact_div",),
        "exact_algebra.poly_sqrt": ("poly_sqrt",),
        "exact_algebra.pfaffian": ("pfaffian",),
    },
    "spectral_base": {
        "spectral_base.so6_oracle": ("so6_oracle",),
        "spectral_base.so4_oracle": ("so4_oracle",),
        "spectral_base.base_map": ("so4_base", "so6_base"),
    },
    "lie_isogeny": {
        "lie_isogeny.group_maps": ("iso2_group", "iso3_group"),
        "lie_isogeny.derivative_maps": ("d_iso2", "d_iso3"),
        "lie_isogeny.alpha_block": ("alpha_block",),
        "lie_isogeny.hodge_split": ("hodge_split",),
        "lie_isogeny.build_block_higgs_so33": ("build_block_higgs_so33",),
        "lie_isogeny.forms": ("q4", "q6"),
    },
    "moduli_invariants": {
        "moduli_invariants.assemble_so22": ("assemble_so22",),
        "moduli_invariants.counting": ("preimage_count", "component_census"),
    },
    "covers_prym": {
        "covers_prym": (
            "fiber_product", "self_product_minus_diagonal", "symmetrize", "ramification_check",
            "correspondence_push", "norm", "prym_test", "mumford_divisor", "sigma_orbit_split",
            "twist_ledger",
        ),
    },
    "serialize": {
        "serialize.parse": (
            "poly_from_json", "matrix_from_json", "fiber_from_json", "divisor_from_json", "key_from_string",
        ),
        "serialize.emit": (
            "scalar_to_json", "poly_to_json", "matrix_to_json", "fiber_to_json", "pair_fiber_to_json",
            "sym_fiber_to_json", "divisor_to_json", "key_to_string",
        ),
    },
    "cli": {"cli.main": ("main",)},
}

METHOD_SPANS = {"char_poly": "exact_algebra.char_poly", "det": "exact_algebra.det", "inverse": "exact_algebra.inverse"}

MODULES = ("exact_algebra", "spectral_base", "lie_isogeny", "covers_prym", "moduli_invariants", "serialize", "verify", "cli")


def _coeff_bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    coeffs = getattr(x, "coeffs", ())
    return max((_coeff_bits(c) for c in coeffs), default=0)


class Recorder:
    """In-memory spans, call counts and resultant sizes of one traced run."""

    def __init__(self):
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.calls: Dict[str, int] = {}
        self.sylvester_dim_max = 0
        self.coeff_bits_max = 0
        self.op = -1
        self._stack: List[Tuple[str, int]] = []  # (name, index of its reserved span slot)
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, spans, calls = self._stack, self.spans, self.calls
        is_resultant = name == "exact_algebra.resultant"

        def traced(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            stack.append((name, index))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, stack[-1][1] if stack else -1, self.op)
            if is_resultant:
                dims = sum(max(getattr(a, "degree", 0), 0) for a in args[:2])
                self.sylvester_dim_max = max(self.sylvester_dim_max, dims)
                self.coeff_bits_max = max(self.coeff_bits_max, _coeff_bits(result))
            return result

        return traced

    def install(self, isolab) -> None:
        """Wrap every traced function in every module namespace holding it."""
        modules = [getattr(isolab, m) for m in MODULES]
        for home, groups in SPAN_NAMES.items():
            owner = getattr(isolab, home)
            for name, attrs in groups.items():
                for attr in attrs:
                    original = getattr(owner, attr)
                    wrapped = self._wrap(name, original)
                    for module in modules:
                        if getattr(module, attr, None) is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapped)
        matrix = isolab.exact_algebra.RingMatrix
        for attr, name in METHOD_SPANS.items():
            original = matrix.__dict__[attr]
            self._restore.append((matrix, attr, original))
            setattr(matrix, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``s`` (time of spans with no enclosing span of the
        same name), ``self_s`` (duration minus the time covered by child
        spans) and ``calls``."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = out.setdefault(name, {"s": 0.0, "self_s": 0.0})
            row["self_s"] += end - start - covered[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row["s"] += end - start
        for name, count in self.calls.items():
            out.setdefault(name, {"s": 0.0, "self_s": 0.0})["calls"] = count
        return out

    def durations_by_op(self, name: str) -> Dict[int, float]:
        """Total duration of the ``name`` spans of each op."""
        per_op: Dict[int, float] = {}
        for _, start, end, parent, op in (s for s in self.spans if s[0] == name):
            per_op[op] = per_op.get(op, 0.0) + end - start
        return per_op

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps([name, start, end, parent, op]) + "\n")


def layer_metrics(rec: Recorder, degrees: Dict[int, int]) -> Dict[str, float]:
    """The per-layer metric values of one traced run; ``degrees`` maps an op
    index to its section degree (None outside oracle-high)."""
    agg = rec.aggregate()

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    m: Dict[str, float] = {
        "exact_algebra.resultant.calls": get("exact_algebra.resultant", "calls"),
        "exact_algebra.resultant.s": get("exact_algebra.resultant", "s"),
        "exact_algebra.resultant.sylvester_dim_max": rec.sylvester_dim_max,
        "exact_algebra.resultant.coeff_bits_max": rec.coeff_bits_max,
        "exact_algebra.exact_div.s": get("exact_algebra.exact_div", "s"),
        "exact_algebra.poly_sqrt.s": get("exact_algebra.poly_sqrt", "s"),
    }
    for short in ("char_poly", "pfaffian", "det"):
        m[f"exact_algebra.{short}.calls"] = get(f"exact_algebra.{short}", "calls")
        m[f"exact_algebra.{short}.s"] = get(f"exact_algebra.{short}", "s")
    m["exact_algebra.inverse.calls"] = get("exact_algebra.inverse", "calls")
    m["spectral_base.so6_oracle.s"] = get("spectral_base.so6_oracle", "s")
    m["spectral_base.so6_oracle.self_s"] = get("spectral_base.so6_oracle", "self_s")
    m["spectral_base.so4_oracle.s"] = get("spectral_base.so4_oracle", "s")
    m["spectral_base.base_map.s"] = get("spectral_base.base_map", "s")
    per_op = rec.durations_by_op("spectral_base.so6_oracle")
    for d in (1, 2, 3, 4, 6):
        times = [t for op, t in per_op.items() if degrees.get(op) == d]
        m[f"spectral_base.so6_oracle.d{d}.p50_ms"] = 1000 * statistics.median(times) if times else 0.0
    for short in ("group_maps", "derivative_maps", "alpha_block", "hodge_split", "build_block_higgs_so33"):
        m[f"lie_isogeny.{short}.s"] = get(f"lie_isogeny.{short}", "s")
    m["lie_isogeny.forms.calls"] = get("lie_isogeny.forms", "calls")
    m["moduli_invariants.assemble_so22.s"] = get("moduli_invariants.assemble_so22", "s")
    m["moduli_invariants.counting.s"] = get("moduli_invariants.counting", "s")
    m["covers_prym.calls"] = get("covers_prym", "calls")
    m["covers_prym.s"] = get("covers_prym", "s")
    m["serialize.parse.s"] = get("serialize.parse", "s")
    m["serialize.emit.s"] = get("serialize.emit", "s")
    m["cli.main.s"] = get("cli.main", "s")
    return m
