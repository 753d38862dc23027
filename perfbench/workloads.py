"""Seeded inputs, expected outputs and the per-op correctness gate of the
three isolab workloads.

Inputs come from the benchmark's own generators, never from
``isolab.verify``, so a workload does not change when the verification
suite does.  Expected values are written from the closed-form base maps
(b1 = 2 a2, b2 = a2^2 - 4 a4, pf = a3 for rank 3; b1 = 2 (a1 + a2),
pf = a1 - a2 for rank 2) with the benchmark's own list arithmetic, or, for
the CLI, from the in-process report computed during set-up.  Every op
returns ``(ok, output)``; ``output`` is a JSON-able record of what the
package computed, hashed into the run digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Sequence, Tuple

ORACLE_DEGREES = (1, 2, 3, 4, 6)

#: Coefficient heights of an oracle-high triple.  A degree-d triple takes
#: the first 3(d + 1) of them in a seeded order with seeded signs, so every
#: coefficient is nonzero and the cost of a degree band does not depend on
#: the seed.
HEIGHTS = tuple(
    Fraction(p, q)
    for p, q in (
        (1, 1), (3, 2), (2, 3), (5, 4), (4, 3), (1, 2), (3, 4), (2, 1), (4, 1), (1, 3), (5, 3),
        (3, 1), (1, 4), (5, 2), (2, 5), (4, 5), (3, 5), (1, 5), (5, 1), (4, 1), (3, 2),
    )
)


@dataclass(frozen=True)
class Case:
    """One op's input, with its metadata (such as the section degree) and the
    expected values the op's outputs are checked against."""

    inputs: Dict[str, Any]
    expected: Dict[str, Any]
    meta: Dict[str, Any] = field(default_factory=dict)


# -- plain rational arithmetic ------------------------------------------------


def rational(rng: random.Random, span: int = 4, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-span, span), rng.randint(1, 4))
        if value or not nonzero:
            return value


def section(rng: random.Random, degree: int) -> List[Fraction]:
    """Coefficients of a section of exactly ``degree``, lowest first."""
    return [rational(rng) for _ in range(degree)] + [rational(rng, nonzero=True)]


def height_triple(rng: random.Random, degree: int) -> List[List[Fraction]]:
    """Three sections of exactly ``degree`` with coefficients from HEIGHTS."""
    n = degree + 1
    coeffs = [rng.choice((1, -1)) * h for h in HEIGHTS[: 3 * n]]
    rng.shuffle(coeffs)
    return [coeffs[k * n : (k + 1) * n] for k in range(3)]


def _strip(p: Sequence[Fraction]) -> List[Fraction]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(p, q):
    n = max(len(p), len(q))
    return [(p[k] if k < len(p) else 0) + (q[k] if k < len(q) else 0) for k in range(n)]


def pscale(p, c):
    return [c * x for x in p]


def pmul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def zcanon(p: Sequence[Fraction]) -> Any:
    """Canonical form of a polynomial in z: a constant is its string, any
    other polynomial the list of its coefficient strings."""
    p = _strip(p)
    if len(p) <= 1:
        return str(p[0] if p else Fraction(0))
    return [str(c) for c in p]


def canon(x) -> Any:
    """Canonical form of a package scalar or polynomial, matching ``zcanon``
    nested one level for polynomials in eta."""
    if isinstance(x, Fraction):
        return str(x)
    coeffs = x.coeffs
    if len(coeffs) <= 1:
        return canon(coeffs[0]) if coeffs else "0"
    return [canon(c) for c in coeffs]


def sextic_expected(a2, a3, a4) -> List[Any]:
    """eta^6 + 2 a2 eta^4 + (a2^2 - 4 a4) eta^2 - a3^2."""
    zero = [Fraction(0)]
    b2 = padd(pmul(a2, a2), pscale(a4, -4))
    coeffs = [pscale(pmul(a3, a3), -1), zero, b2, zero, pscale(a2, 2), zero, [Fraction(1)]]
    return [zcanon(c) for c in coeffs]


def quartic_expected(a1, a2) -> List[Any]:
    """eta^4 + 2 (a1 + a2) eta^2 + (a1 - a2)^2."""
    zero = [Fraction(0)]
    diff = padd(a1, pscale(a2, -1))
    coeffs = [pmul(diff, diff), zero, pscale(padd(a1, a2), 2), zero, [Fraction(1)]]
    return [zcanon(c) for c in coeffs]


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def transpose(a):
    return [list(r) for r in zip(*a)]


def unimodular(rng: random.Random, n: int, steps: int) -> Tuple[list, list]:
    """A determinant-1 matrix built from elementary shears, and its inverse."""
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    m, inv = ident, ident
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rational(rng, 3, nonzero=True)
        shear = [row[:] for row in ident]
        shear[i][j] = c
        back = [row[:] for row in ident]
        back[i][j] = -c
        m, inv = matmul(m, shear), matmul(back, inv)
    return m, inv


def _matrix_json(m) -> List[List[str]]:
    return [[str(e) for e in row] for row in m]


def symmetric_traceless(rng: random.Random, n: int = 4) -> list:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rational(rng, 6)
    rows[n - 1][n - 1] -= sum(rows[i][i] for i in range(n))
    return rows


# -- oracle-high ---------------------------------------------------------------


def oracle_high_cases(isolab, seed: int, count: int = 100) -> List[Case]:
    """Triples whose three sections have exactly degree d, d cycling through
    ORACLE_DEGREES, so that every op index has a fixed degree."""
    sb, UniPoly = isolab.spectral_base, isolab.exact_algebra.UniPoly
    rng = random.Random(f"{seed}:oracle-high")
    cases = []

    def poly(coeffs):
        return UniPoly("z", coeffs)

    for k in range(count):
        d = ORACLE_DEGREES[k % len(ORACLE_DEGREES)]
        a2, a3, a4 = height_triple(rng, d)
        cases.append(
            Case(
                inputs={
                    "base": sb.BaseSL4(poly(a2), poly(a3), poly(a4)),
                    "pair": sb.BaseSL2Pair(poly(a2), poly(a4)),
                },
                expected={
                    "sextic": sextic_expected(a2, a3, a4),
                    "quartic": quartic_expected(a2, a4),
                    "pf": {s: zcanon(pscale(a3, s)) for s in (1, -1)},
                },
                meta={"degree": d},
            )
        )
    return cases


def oracle_high_op(isolab, root: str, case: Case):
    """Certify so6_base against so6_oracle and so4_base against so4_oracle,
    both orientation signs, against the closed-form expected curves."""
    sb = isolab.spectral_base
    base, pair, exp = case.inputs["base"], case.inputs["pair"], case.expected
    sextic = canon(sb.so6_oracle(base))
    quartic = canon(sb.so4_oracle(pair))
    ok = sextic == exp["sextic"] and quartic == exp["quartic"]
    for sign in (1, -1):
        mapped = sb.so6_base(base, sign)
        ok = ok and canon(mapped.sextic()) == sextic and canon(mapped.pf) == exp["pf"][sign]
        ok = ok and canon(sb.so4_base(pair, sign).quartic()) == quartic
    return ok, {"sextic": sextic, "quartic": quartic}


# -- matrix-laws ---------------------------------------------------------------


def matrix_laws_cases(isolab, seed: int, count: int = 24) -> List[Case]:
    """Rational (degree-0) samples.  Derivative arguments are conjugates
    P C P^-1 of companion matrices, so their characteristic data is known by
    construction and the expected curves need no package call."""
    RM = isolab.exact_algebra.RingMatrix
    rng = random.Random(f"{seed}:matrix-laws")
    cases = []
    for _ in range(count):
        a1, _ = unimodular(rng, 2, 4)
        a2, _ = unimodular(rng, 2, 4)
        a, _ = unimodular(rng, 4, 6)
        c1, c2 = rational(rng, nonzero=True), rational(rng, nonzero=True)
        derivs2 = []
        for c in (c1, c2):
            p, p_inv = unimodular(rng, 2, 3)
            derivs2.append(matmul(matmul(p, [[0, 1], [-c, 0]]), p_inv))
        p2, p3, p4 = rational(rng), rational(rng, nonzero=True), rational(rng)
        comp = [[0, 0, 0, -p4], [1, 0, 0, -p3], [0, 1, 0, -p2], [0, 0, 1, 0]]
        r, r_inv = unimodular(rng, 4, 5)
        deriv3 = matmul(matmul(r, comp), r_inv)
        sym = symmetric_traceless(rng)
        g, _ = unimodular(rng, 4, 5)
        gram = matmul(transpose(g), g)
        beta1, gamma1, beta2, gamma2 = (rational(rng, nonzero=True) for _ in range(4))
        n1, n2 = rng.randint(-4, 4), rng.randint(-4, 4)
        e1, e2 = -beta1 * gamma1, -beta2 * gamma2
        cases.append(
            Case(
                inputs={
                    "a1": RM(a1), "a2": RM(a2), "a": RM(a),
                    "a1dot": RM(derivs2[0]), "a2dot": RM(derivs2[1]), "adot": RM(deriv3),
                    "sym": RM(sym), "gram": RM(gram),
                    "assemble": (n1, n2, beta1, gamma1, beta2, gamma2),
                },
                expected={
                    "quartic": quartic_expected([c1], [c2]),
                    "quartic_a": [zcanon([p4]), zcanon([p3]), zcanon([p2]), "0", "1"],
                    "sextic": sextic_expected([p2], [p3], [p4]),
                    "so22_quartic": quartic_expected([e1], [e2]),
                    "so22_pf": str(e1 - e2),
                    "so22_degrees": [n1 + n2, n1 - n2],
                },
            )
        )
    return cases


def matrix_laws_op(isolab, root: str, case: Case):
    """Group maps preserve the forms with unit determinant; derivative char
    polys equal the degree-0 oracles; Pf = -det(alpha); the star operator
    splits into rank-3 eigenspaces; the block Higgs field carries alpha and
    the derivative's char poly; the so22 assembly matches the base map."""
    ea, li, sb, mi = isolab.exact_algebra, isolab.lie_isogeny, isolab.spectral_base, isolab.moduli_invariants
    x, exp = case.inputs, case.expected
    g4, g6 = li.q4().gram, li.q6().gram
    checks = []

    big2 = li.iso2_group(x["a1"], x["a2"])
    big3 = li.iso3_group(x["a"])
    checks.append(big2.transpose() * g4 * big2 == g4 and big2.det() == 1)
    checks.append(big3.transpose() * g6 * big3 == g6 and big3.det() == 1)

    quartic = canon(li.d_iso2(x["a1dot"], x["a2dot"]).char_poly())
    pair_oracle = canon(sb.quartic_of_char_pair(x["a1dot"].char_poly(), x["a2dot"].char_poly()))
    checks.append(quartic == exp["quartic"] and pair_oracle == exp["quartic"])
    quartic_a = x["adot"].char_poly()
    sextic = canon(li.d_iso3(x["adot"]).char_poly())
    checks.append(canon(quartic_a) == exp["quartic_a"] and sextic == exp["sextic"])
    checks.append(canon(sb.sextic_of_quartic(quartic_a)) == exp["sextic"])

    image = li.d_iso3(x["sym"])
    alpha = li.alpha_block(x["sym"])
    pf = ea.pfaffian(g6 * image)
    checks.append(pf == -alpha.det())

    split = li.hodge_split(li.QuadraticForm(x["gram"]))
    checks.append(
        split.star * split.star == ea.RingMatrix.identity(6)
        and len(split.plus_basis) == 3
        and len(split.minus_basis) == 3
        and split.q_plus.gram.det() != 0
        and split.q_minus.gram.det() != 0
    )

    higgs = li.build_block_higgs_so33(x["sym"])
    checks.append(higgs.alpha == alpha and higgs.as_matrix().char_poly() == image.char_poly())

    assembly = mi.assemble_so22(*x["assemble"])
    checks.append(
        canon(assembly.quartic) == exp["so22_quartic"]
        and canon(assembly.base.pf) == exp["so22_pf"]
        and [assembly.m1_degree, assembly.m2_degree] == exp["so22_degrees"]
    )
    output = {
        "quartic": quartic,
        "sextic": sextic,
        "pf": str(pf),
        "alpha": [[str(e) for e in row] for row in alpha.entries],
        "star": [[str(e) for e in row] for row in split.star.entries],
        "so22": canon(assembly.quartic),
    }
    return all(checks), output


# -- cli-cold ------------------------------------------------------------------


def _fiber(rng: random.Random, base: str, prefix: str, degree: int, branched: bool) -> dict:
    count = degree - 1 if branched else degree
    labels = [f"{prefix}{k + 1}" for k in range(count)]
    rng.shuffle(labels)
    points = [{"label": l, "mult": 2 if branched and k == 0 else 1} for k, l in enumerate(labels)]
    return {"base_label": base, "kind": "generic_branch" if branched else "regular", "points": points}


def _labels(fiber: dict) -> List[str]:
    return [p["label"] for p in fiber["points"]]


def _zero_sum(rng: random.Random, labels: Sequence[str]) -> Dict[str, int]:
    weights = [rng.randint(-3, 3) for _ in labels[:-1]]
    weights.append(-sum(weights))
    return dict(zip(labels, weights))


def _sym_norm_free(rng: random.Random, fiber: dict) -> Dict[str, int]:
    """N - sigma(N) on the symmetrized fiber of a regular 4-point fiber:
    sigma sends {a, b} to the complementary pair, so the norm vanishes."""
    labels = sorted(_labels(fiber))
    weights: Dict[str, int] = {}
    for a, b in ((labels[0], labels[1]), (labels[0], labels[2])):
        w = rng.choice((-2, -1, 1, 2))
        rest = sorted(set(labels) - {a, b})
        weights[f"[{a},{b}]"] = weights.get(f"[{a},{b}]", 0) + w
        weights[f"[{rest[0]},{rest[1]}]"] = weights.get(f"[{rest[0]},{rest[1]}]", 0) - w
    return weights


def _poly_json(rng: random.Random, degree: int) -> Any:
    return zcanon(section(rng, degree)) if degree else str(rational(rng, nonzero=True))


def _cli_documents(rng: random.Random) -> List[Tuple[List[str], dict]]:
    """One cycle of the fixed command mix: every document command group,
    with seeded contents that every command accepts (exit 0)."""
    sign = ["--orientation", str(rng.choice((1, -1)))]
    quartic = {k: _poly_json(rng, 2) for k in ("a2", "a3", "a4")}
    reg4, br4 = _fiber(rng, "x", "y", 4, False), _fiber(rng, "x", "y", 4, True)
    reg2, br2 = _fiber(rng, "x", "p", 2, False), _fiber(rng, "x", "q", 2, True)
    unimod, _ = unimodular(rng, 4, 6)
    g, _ = unimodular(rng, 4, 5)
    d1, d2 = rng.randint(-3, 3), rng.randint(-3, 3)
    return [
        (["base", "map-so4"] + sign, {"a1": _poly_json(rng, 2), "a2": _poly_json(rng, 2)}),
        (["base", "map-so6"] + sign, quartic),
        (["base", "oracle"] + sign, {"kind": "so6", **{k: _poly_json(rng, 0) for k in ("a2", "a3", "a4")}}),
        (["base", "genericity"], {k: _poly_json(rng, 1) for k in ("a2", "a3", "a4")}),
        (["iso", "apply"], {"map": "iso3", "a": _matrix_json(unimod)}),
        (["iso", "alpha"], {"a": _matrix_json(symmetric_traceless(rng))}),
        (["iso", "hodge"] + sign, {"q": _matrix_json(matmul(transpose(g), g))}),
        (["cover", "product"], {"fiber1": reg2, "fiber2": br2}),
        (["cover", "sym"], {"fiber": rng.choice((reg4, br4))}),
        (["cover", "ramcheck"], {"fiber": rng.choice((reg4, br4))}),
        (["divisor", "push"], {"fiber": br4, "divisor": _zero_sum(rng, _labels(br4))}),
        (["divisor", "norm"], {"covering": "sigma", "fiber": reg4, "divisor": _sym_norm_free(rng, reg4)}),
        (
            ["divisor", "prym-test"],
            {
                "covering": "pi",
                "entries": [
                    {"fiber": f, "divisor": _zero_sum(rng, _labels(f))} for f in (reg4, br4, reg2)
                ],
            },
        ),
        (["invariants", "map"], {"d1": d1, "d2": d2, "g": rng.randint(2, 5)}),
        (["invariants", "mw"], {"d1": d1, "d2": d2, "g": rng.randint(2, 5), "group": rng.choice(("sl2xsl2", "so22"))}),
        (["invariants", "lift"], {"group": "so22", "c1": d1 + d2, "c2": d1 - d2, "g": rng.randint(2, 5)}),
        (["invariants", "count"], {"isogeny": rng.choice(("rank2", "rank3")), "g": rng.randint(2, 3)}),
        (["invariants", "census"], {"group": rng.choice(("so22", "so33")), "g": rng.randint(2, 3)}),
        (
            ["higgs", "assemble-so22"],
            {
                "n1_degree": rng.randint(-4, 4),
                "n2_degree": rng.randint(-4, 4),
                **{k: _poly_json(rng, 1) for k in ("beta1", "gamma1", "beta2", "gamma2")},
            },
        ),
    ]


def run_cli_in_process(isolab, argv: List[str], text: str) -> Tuple[int, str]:
    """``isolab.cli.main(argv)`` with stdin replaced by ``text``; returns the
    exit code and the captured stdout."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = isolab.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


CLI_CYCLE = 19


def cli_cold_cases(isolab, seed: int, cycles: int = 2) -> List[Case]:
    """``cycles`` seeded cycles of the command mix.  The expected report of
    each document is the in-process ``cli.main`` report; when that run does
    not exit 0 there is no expected report and the document's ops fail."""
    rng = random.Random(f"{seed}:cli-cold")
    cases = []
    for _ in range(cycles):
        for argv, doc in _cli_documents(rng):
            text = json.dumps(doc)
            code, out = run_cli_in_process(isolab, argv, text)
            report = json.loads(out) if code == 0 else None
            cases.append(Case(inputs={"argv": argv, "text": text}, expected={"report": report}))
    return cases


def cli_cold_op(isolab, root: str, case: Case):
    """One fresh ``python -m isolab.cli`` process; it must exit 0 and print
    the set-up report."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-m", "isolab.cli", *case.inputs["argv"]],
        input=case.inputs["text"],
        capture_output=True,
        text=True,
        cwd=root,
        env=env,
        timeout=60,
    )
    ok = proc.returncode == 0 and json.loads(proc.stdout) == case.expected["report"]
    return ok, proc.stdout


def cli_replay_op(isolab, root: str, case: Case):
    """The same document through ``cli.main`` in this process (traced runs)."""
    code, out = run_cli_in_process(isolab, case.inputs["argv"], case.inputs["text"])
    return code == 0 and json.loads(out) == case.expected["report"], out


@dataclass(frozen=True)
class Workload:
    """``op`` is the timed op; ``traced_op`` the same check run in-process
    for the traced run.  A traced run covers whole cycles of the op mix,
    ``trace_cycles_per_s`` of them per second of ``--seconds``."""

    name: str
    cycle: int
    make_cases: Callable
    op: Callable
    traced_op: Callable
    trace_cycles_per_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle-high", len(ORACLE_DEGREES), oracle_high_cases, oracle_high_op, oracle_high_op, 0.13),
        Workload("matrix-laws", 1, matrix_laws_cases, matrix_laws_op, matrix_laws_op, 6.0),
        Workload("cli-cold", CLI_CYCLE, cli_cold_cases, cli_cold_op, cli_replay_op, 2.0),
    )
}
