"""Timings of the ``isolab.exact_algebra`` kernel and of the oracle layer,
run with pytest-benchmark.

From the root of a source checkout (pytest-benchmark is the ``bench``
extra in ``pyproject.toml``):

    PYTHONPATH=src python -m pytest bench --benchmark-json out.json

This directory is outside ``testpaths``, so the tier-1 suite never
collects it.  Inputs are fixed, and every case checks its result once
against an independent identity of the paper, so a fast wrong kernel
fails instead of timing well:

* the characteristic polynomial of ``d_iso3(A)`` is the pairwise-sum
  sextic of the quartic of ``A`` (the ``so6`` base map), also for ``A`` with
  100-digit entries, and for ``A``
  conjugate to the companion matrix of x^4 + a2 x^2 + a3 x + a4 it is
  eta^6 + 2 a2 eta^4 + (a2^2 - 4 a4) eta^2 - a3^2, written out in this file;
* Res_x(P(x), P(eta - x)) = 16 P(eta/2) S(eta)^2, with S that sextic;
* Pf(q6 * d_iso3(A)) = -det(alpha(A)) for symmetric traceless ``A``;
* ``so6_oracle`` gives the sextic of ``so6_base`` and ``so4_oracle`` the
  quartic of ``so4_base``, on the coefficient heights of the benchmark's
  ``oracle-high`` workload (``perfbench/workloads.py``);
* Res(f g, h) = Res(f, h) Res(g, h) for a product of two polynomials in
  ``eta`` over Q[z];
* ``poly_gcd(f h, g h)`` is the planted monic ``h``, and the gcds that
  ``genericity_report`` reports are trivial exactly when the Sylvester
  resultant of the same pair is nonzero, on sections whose coefficients
  come from the same heights;
* Lambda^2(g) Lambda^2(h) = Lambda^2(g h) for the 6x6 induced forms of
  two unimodular Gram matrices of verify criterion 6, and for two dense
  4x4 matrices over Q and over Q[z], with g h taken by a triple loop in
  this file; the chain y^T Q6 y of verify criterion 4 equals the same
  chain by that triple loop;
* ``d_iso2(A1, A2)`` is the tensor sum A1 (x) I + I (x) A2 of two
  traceless 2x2 matrices, taken with ``kronecker``;
* ``identity(6)`` is a unit on both sides of Lambda^2(g) under the triple
  loop, and the block Higgs field [[0, alpha], [alpha^T, 0]] of a symmetric
  traceless ``A`` (``as_matrix``) is P^-1 d_iso3(A) P, P the split basis,
  with both products taken by the triple loop;
* a 4x4 product over Q[z] equals that triple loop;
* the kernel of star - I for a non-identity form consists of three
  vectors v with star v = v, each with a unit in its own free column;
* the star of ``hodge_split`` is Lambda^2(q)^(-1) Q6 sqrt(det q), with the
  product taken by the triple loop, and its +1 and -1 bases are three
  eigenvectors each, also for a form g^T g with 100-digit entries;
* ``so6_base`` and ``so4_base`` give (2 a2, a2^2 - 4 a4, -a3) and
  (2(a1 + a2), -(a1 - a2)) on the same heights, with the coefficients
  written out here by list arithmetic;
* polynomial products (constant times constant and degree 1 times degree 1
  over Q[z], and the Q[z][eta][x] case (eta - x)^2, which ``so4_oracle``
  writes out instead) equal their coefficients written out here, and
  ``div_mod`` of f g + r by g returns f and r;
* ``correspondence_push`` puts D(a) + D(b) on each pair {a, b} of simple
  points and D(y) + 2 D(s) on a pair of the double point y with a simple
  point s, and D(y) on {y, y}; the ``sigma`` norm adds the weights of a pair
  and of its complement in the fiber;
* the determinant of Lambda^2(A) is det(A)^3, for a rational 4x4 ``A``
  conjugate to the companion matrix above, so det(A) = a4;
* the cold ends, each a fresh interpreter through ``subprocess``:
  ``import isolab.cli`` exits 0 and prints nothing, and a cold
  ``isolab base map-so6``, ``isolab higgs assemble-so22``, ``isolab divisor
  norm`` or ``isolab invariants count`` exits 0 with the report that
  ``cli.main`` prints in this process.  The last two load neither
  ``exact_algebra`` nor ``fractions``.
"""

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from operator import mul

import pytest

from isolab.cli import main as cli_main
from isolab.covers_prym import Divisor, correspondence_push, norm, self_product_minus_diagonal, symmetrize
from isolab.exact_algebra import (
    RingMatrix,
    UniPoly,
    exterior_square,
    kronecker,
    pfaffian,
    poly_gcd,
    resultant,
)
from isolab.lie_isogeny import (
    SPLIT_BASIS,
    QuadraticForm,
    alpha_block,
    build_block_higgs_so33,
    d_iso2,
    d_iso3,
    hodge_split,
    q6,
)
from isolab.serialize import fiber_from_json
from isolab.spectral_base import (
    BaseSL2Pair,
    BaseSL4,
    genericity_report,
    sextic_of_quartic,
    so4_base,
    so4_oracle,
    so6_base,
    so6_oracle,
)
from isolab.verify import rand_symmetric_traceless, rand_unimodular

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)
from workloads import HEIGHTS, _fiber, _zero_sum, height_triple  # noqa: E402

ETA = UniPoly.variable("eta")


def _rational(rng, span=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def _section(rng, degree, span=6):
    coeffs = [_rational(rng, span) for _ in range(degree)]
    return UniPoly("z", coeffs + [Fraction(rng.choice([-3, -1, 1, 2]), 2)])


def _conjugate(rng, m):
    """P m P^-1 for a rational unimodular P, so every entry is filled in."""
    p = RingMatrix.identity(4)
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)):
        shear = [[Fraction(int(r == c)) for c in range(4)] for r in range(4)]
        shear[i][j] = _rational(rng) or Fraction(1)
        p = p * RingMatrix(shear)
    return p * m * p.inverse()


def _companion(a2, a3, a4):
    """Traceless companion matrix of x^4 + a2 x^2 + a3 x + a4."""
    return RingMatrix([[0, 0, 0, -a4], [1, 0, 0, -a3], [0, 1, 0, -a2], [0, 0, 1, 0]])


def _traceless_4x4(rng, degree, span=6):
    """A dense traceless 4x4 matrix over Q (degree 0) or Q[z]."""
    return _conjugate(rng, _companion(*(_section(rng, degree, span) for _ in range(3))))


@pytest.mark.parametrize(
    ("degree", "span"), [(0, 6), (2, 6), (6, 10**40)], ids=["Q", "Qz", "Qz-40-digits"]
)
def test_char_poly_6x6(benchmark, degree, span):
    """The 40-digit case is on the losing side of the packed determinant:
    CPython divides big integers in quadratic time."""
    a = _traceless_4x4(random.Random(f"char_poly:{degree}"), degree, span)
    image = d_iso3(a)
    sextic = benchmark(image.char_poly)
    assert sextic == sextic_of_quartic(a.char_poly())


@pytest.mark.parametrize("degree", [0, 2], ids=["Q", "Qz"])
def test_d_iso3_char_poly(benchmark, degree):
    rng = random.Random(f"d_iso3:{degree}")
    a2, a3, a4 = (_section(rng, degree) for _ in range(3))
    a = _conjugate(rng, _companion(a2, a3, a4))
    sextic = benchmark(lambda: d_iso3(a).char_poly())
    assert sextic == ETA**6 + 2 * a2 * ETA**4 + (a2 * a2 - 4 * a4) * ETA**2 - a3 * a3


def test_resultant_8x8_sylvester_over_qz_eta(benchmark):
    rng = random.Random("resultant")
    a2, a3, a4 = (_section(rng, 2) for _ in range(3))
    coeffs = [a4, a3, a2, Fraction(0), Fraction(1)]
    px = UniPoly("x", coeffs)
    shifted = sum((c * UniPoly("x", [ETA, -1]) ** k for k, c in enumerate(coeffs)), Fraction(0))
    big = benchmark(resultant, px, shifted)
    quartic = UniPoly("eta", coeffs)
    half = sum((c * (ETA * Fraction(1, 2)) ** k for k, c in enumerate(quartic.coeffs)), Fraction(0))
    sextic = d_iso3(_companion(a2, a3, a4)).char_poly()
    assert big == 16 * half * sextic * sextic


def test_pfaffian_6x6(benchmark):
    rng = random.Random("pfaffian")
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            rows[i][j] = rows[j][i] = UniPoly("z", [_rational(rng), _rational(rng)])
    rows[3][3] = rows[3][3] - sum(rows[i][i] for i in range(4))
    sym = RingMatrix(rows)
    matrix = q6().gram * d_iso3(sym)
    pf = benchmark(pfaffian, matrix)
    assert pf == -alpha_block(sym).det()


def test_det_6x6_over_q(benchmark):
    """A rational determinant, which has nothing to pack."""
    rng = random.Random("det_6x6")
    a2, a3, a4 = (_rational(rng) or Fraction(1) for _ in range(3))
    square = exterior_square(_conjugate(rng, _companion(a2, a3, a4)))
    assert all(e.__class__ is Fraction for row in square.entries for e in row)
    assert any(e.denominator > 1 for row in square.entries for e in row)
    det = benchmark(square.det)
    assert det == a4**3


def _oracle_sections(rng, degree):
    """Three sections of exactly ``degree``: ``height_triple`` draws the
    heights without repetition, so it stops at degree 6, and
    ``_height_section`` draws them with repetition above it."""
    if degree <= 6:
        return [UniPoly("z", coeffs) for coeffs in height_triple(rng, degree)]
    return [_height_section(rng, degree) for _ in range(3)]


@pytest.mark.parametrize("degree", [0, 3, 6, 24])
def test_so6_oracle(benchmark, degree):
    base = BaseSL4(*_oracle_sections(random.Random(f"so6_oracle:{degree}"), degree))
    sextic = benchmark(so6_oracle, base)
    assert sextic == so6_base(base).sextic()


@pytest.mark.parametrize("degree", [0, 3, 6, 24])
def test_so4_oracle(benchmark, degree):
    a1, a2, _ = _oracle_sections(random.Random(f"so4_oracle:{degree}"), degree)
    base = BaseSL2Pair(a1, a2)
    quartic = benchmark(so4_oracle, base)
    assert quartic == so4_base(base).quartic()


def _sum_coeffs(*lists):
    """The coefficient list of a sum of sections, from their lists."""
    return [sum(cs, Fraction(0)) for cs in itertools.zip_longest(*lists, fillvalue=Fraction(0))]


@pytest.mark.parametrize("degree", [0, 3, 6, 24])
def test_so6_base(benchmark, degree):
    a2, a3, a4 = _oracle_sections(random.Random(f"so6_base:{degree}"), degree)
    mapped = benchmark(so6_base, BaseSL4(a2, a3, a4), -1)
    square = [Fraction(0)] * max(2 * len(a2.coeffs) - 1, 0)
    for i, c in enumerate(a2.coeffs):
        for j, d in enumerate(a2.coeffs):
            square[i + j] += c * d
    assert mapped.b1 == UniPoly("z", [2 * c for c in a2.coeffs])
    assert mapped.b2 == UniPoly("z", _sum_coeffs(square, [-4 * c for c in a4.coeffs]))
    assert mapped.pf == UniPoly("z", [-c for c in a3.coeffs])


@pytest.mark.parametrize("degree", [0, 3, 6, 24])
def test_so4_base(benchmark, degree):
    a1, a2, _ = _oracle_sections(random.Random(f"so4_base:{degree}"), degree)
    mapped = benchmark(so4_base, BaseSL2Pair(a1, a2), -1)
    assert mapped.b1 == UniPoly("z", [2 * c for c in _sum_coeffs(a1.coeffs, a2.coeffs)])
    assert mapped.pf == UniPoly("z", _sum_coeffs([-c for c in a1.coeffs], a2.coeffs))


def test_eta_product_over_qz(benchmark):
    """Two degree-6 polynomials in eta with cubic Q[z] coefficients: every
    step of the product builds polynomials from tower elements."""
    rng = random.Random("eta_product")
    f, g = (UniPoly("eta", [_section(rng, 3) for _ in range(7)]) for _ in range(2))
    product = benchmark(mul, f, g)
    h = ETA - 2
    assert product.degree == 12 and resultant(product, h) == resultant(f, h) * resultant(g, h)


def test_product_constant_by_constant(benchmark):
    """The smallest product, so a fixed cost per call shows."""
    a, b = Fraction(-7, 4), Fraction(5, 6)
    product = benchmark(mul, UniPoly("z", [a]), UniPoly("z", [b]))
    assert product.var == "z" and product.coeffs == (Fraction(-35, 24),)


def test_product_degree_one_by_degree_one(benchmark):
    p0, p1, q0, q1 = Fraction(2, 3), Fraction(-1, 2), Fraction(5), Fraction(3, 4)
    product = benchmark(mul, UniPoly("z", [p0, p1]), UniPoly("z", [q0, q1]))
    assert product.coeffs == (p0 * q0, p0 * q1 + p1 * q0, p1 * q1)


def test_product_so4_shift_squared(benchmark):
    """The Q[z][eta][x] product case (eta - x)^2 = eta^2 - 2 eta x + x^2;
    ``so4_oracle`` writes this square out rather than computing it."""
    shift = UniPoly("x", [ETA, Fraction(-1)])
    square = benchmark(mul, shift, shift)
    assert square.var == "x"
    assert square.coeffs == (UniPoly("eta", [0, 0, 1]), UniPoly("eta", [0, -2]), Fraction(1))


def test_div_mod_over_qz(benchmark):
    rng = random.Random("div_mod")
    f, g, r = _height_section(rng, 8), _height_section(rng, 8), _height_section(rng, 7)
    q, rem = benchmark((f * g + r).div_mod, g)
    assert q == f and rem == r


def _cover_fiber(rng, branched):
    return fiber_from_json(_fiber(rng, "x", "y", 4, branched))


@pytest.mark.parametrize("branched", [False, True], ids=["regular", "branch"])
def test_correspondence_push(benchmark, branched):
    rng = random.Random(f"push:{branched}")
    fiber = _cover_fiber(rng, branched)
    divisor = Divisor(_zero_sum(rng, fiber.labels))
    pushed = benchmark(correspondence_push, divisor, fiber)
    double = fiber.labels[0] if branched else None
    expected = {(double, double): divisor.get(double)} if branched else {}
    for a, b in itertools.combinations(sorted(fiber.labels), 2):
        expected[(a, b)] = divisor.get(a) * (2 if b == double else 1) + divisor.get(b) * (2 if a == double else 1)
    assert pushed == Divisor(expected)


def _complement(pair, fiber):
    rest = [label for label, m in fiber.points for _ in range(m)]
    for label in pair:
        rest.remove(label)
    return tuple(sorted(rest))


@pytest.mark.parametrize("branched", [False, True], ids=["regular", "branch"])
def test_sigma_norm(benchmark, branched):
    rng = random.Random(f"norm:{branched}")
    fiber = _cover_fiber(rng, branched)
    sym = symmetrize(self_product_minus_diagonal(fiber))
    divisor = Divisor({key: rng.randint(-3, 3) for key in sym.keys})
    pushed = benchmark(norm, divisor, sym, "sigma")
    expected = {}
    for key in sym.keys:
        other = _complement(key, fiber)
        expected[min(key, other)] = divisor.get(key) + divisor.get(other)
    assert pushed == Divisor(expected)


def _height_section(rng, degree):
    """A section of exactly ``degree`` with signed coefficients from HEIGHTS;
    ``height_triple`` draws without repetition, so it stops at degree 6."""
    return UniPoly("z", [rng.choice((1, -1)) * rng.choice(HEIGHTS) for _ in range(degree + 1)])


@pytest.mark.parametrize("degree", [8, 16])
def test_genericity_report(benchmark, degree):
    rng = random.Random(f"genericity:{degree}")
    base = BaseSL4(*(_height_section(rng, degree) for _ in range(3)))
    report = benchmark(genericity_report, base)
    for gcd, other in ((report.gcd_tight, 4 * base.a4), (report.gcd_loose, base.a4)):
        assert (gcd.degree == 0) == (resultant(base.a3, base.a2 * base.a2 - other) != 0)


def test_poly_gcd_planted_factor(benchmark):
    rng = random.Random("poly_gcd")
    f, g = _height_section(rng, 16), _height_section(rng, 16)
    h = _height_section(rng, 8)
    h = h * (Fraction(1) / h.lead)
    assert benchmark(poly_gcd, f * h, g * h) == h


def _triple_loop(a, b):
    return RingMatrix([
        [sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), Fraction(0)) for j in range(b.cols)]
        for i in range(a.rows)
    ])


def _criterion6_gram(rng):
    """A Gram matrix p^T p of a unimodular p, as verify criterion 6 draws it."""
    p = rand_unimodular(rng, 4, steps=5)
    return p.transpose() * p


def test_product_6x6_over_q(benchmark):
    rng = random.Random("product_6x6")
    g, h = _criterion6_gram(rng), _criterion6_gram(rng)
    big_g, big_h = exterior_square(g), exterior_square(h)
    product = benchmark(mul, big_g, big_h)
    assert product == exterior_square(_triple_loop(g, h))


@pytest.mark.parametrize("degree", [0, 2], ids=["Q", "Qz"])
def test_exterior_square(benchmark, degree):
    rng = random.Random(f"exterior_square:{degree}")
    g, h = _traceless_4x4(rng, degree), _traceless_4x4(rng, degree)
    big_g = benchmark(exterior_square, g)
    assert big_g * exterior_square(h) == exterior_square(_triple_loop(g, h))


def test_d_iso2(benchmark):
    rng = random.Random("d_iso2")
    a1, a2 = (RingMatrix([[a, b], [c, -a]]) for a, b, c in ([_rational(rng) for _ in range(3)] for _ in range(2)))
    field = benchmark(d_iso2, a1, a2)
    ident = RingMatrix.identity(2)
    assert field == kronecker(a1, ident) + kronecker(ident, a2)


def test_identity_6(benchmark):
    ident = benchmark(RingMatrix.identity, 6)
    big_g = exterior_square(_criterion6_gram(random.Random("identity")))
    assert _triple_loop(ident, big_g) == big_g == _triple_loop(big_g, ident)


def test_as_matrix_so33(benchmark):
    adot = rand_symmetric_traceless(random.Random("as_matrix"))
    field = benchmark(build_block_higgs_so33(adot).as_matrix)
    assert field == _triple_loop(_triple_loop(SPLIT_BASIS.inverse(), d_iso3(adot)), SPLIT_BASIS)


def test_product_4x4_over_qz(benchmark):
    rng = random.Random("product_4x4_qz")
    a, b = _traceless_4x4(rng, 2), _traceless_4x4(rng, 2)
    product = benchmark(mul, a, b)
    assert product == _triple_loop(a, b)


def test_eigenvectors_of_star_at_one(benchmark):
    """``star.eigenvectors(1)``, as ``hodge_split`` calls it: three integer
    vectors, each with the last pivot in its own free column and 0 in the
    other free columns, fixed by the star."""
    gram = _criterion6_gram(random.Random("nullspace"))
    assert gram != RingMatrix.identity(4)
    star = hodge_split(QuadraticForm(gram)).star
    kernel = benchmark(star.eigenvectors, 1)
    assert len(kernel) == 3
    free = [max(i for i, c in enumerate(v) if c != 0) for v in kernel]
    pivot = kernel[0][free[0]]
    for v, column in zip(kernel, free):
        column_vector = RingMatrix([[c] for c in v])
        assert v[column] == pivot and all(w[column] == 0 for w in kernel if w is not v)
        assert _triple_loop(star, column_vector) == column_vector


def _check_hodge_split(split, form, root):
    """The star against the triple loop, and both eigenbases."""
    inverse = exterior_square(form.gram).inverse()
    assert split.star == _triple_loop(inverse, q6().gram).scale(root)
    for basis, sign in ((split.plus_basis, 1), (split.minus_basis, -1)):
        assert len(basis) == 3
        for v in basis:
            column_vector = RingMatrix([[c] for c in v])
            assert _triple_loop(split.star, column_vector) == column_vector.scale(sign)


def test_hodge_split(benchmark):
    gram = _criterion6_gram(random.Random("hodge_split"))
    assert gram.det() == 1 and gram != RingMatrix.identity(4)
    form = QuadraticForm(gram.scale(Fraction(9, 4)))  # det (9/4)^4, square root (9/4)^2
    _check_hodge_split(benchmark(hodge_split, form), form, Fraction(9, 4) ** 2)


def _long_digits(rng, digits=100):
    """A 4x4 matrix whose entries are p/q with p and q of ``digits`` digits."""
    def part():
        return rng.randint(10 ** (digits - 1), 10**digits - 1)

    return RingMatrix([[Fraction(rng.choice((1, -1)) * part(), part()) for _ in range(4)] for _ in range(4)])


def test_hodge_split_100_digits(benchmark):
    g = _long_digits(random.Random("hodge_split:100"))
    form = QuadraticForm(g.transpose() * g)  # det(g)^2, square root |det g|
    _check_hodge_split(benchmark(hodge_split, form), form, abs(g.det()))


def test_d_iso3_char_poly_100_digits(benchmark):
    g = _long_digits(random.Random("d_iso3:100"))
    a = g - RingMatrix.identity(4).scale(g.trace() / 4)
    sextic = benchmark(lambda: d_iso3(a).char_poly())
    assert sextic == sextic_of_quartic(a.char_poly())


def test_form_preservation_chain(benchmark):
    """The rank-3 group sample of verify criterion 4: y^T Q6 y == Q6 for
    y = Lambda^2(a), a unimodular."""
    y, g6 = exterior_square(rand_unimodular(random.Random("chain"), 4)), q6().gram
    assert benchmark(lambda: y.transpose() * g6 * y == g6)
    assert _triple_loop(_triple_loop(y.transpose(), g6), y) == g6


def _cold(args, text=""):
    """``python *args`` in a fresh interpreter that imports this checkout's
    ``src/``, with ``text`` on stdin."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, *args], input=text, capture_output=True, text=True, env=env, timeout=60)


def test_cold_import_cli(benchmark):
    proc = benchmark.pedantic(_cold, (["-c", "import isolab.cli"],), rounds=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def _cold_command(benchmark, monkeypatch, argv, doc):
    """Time a cold ``isolab`` run of ``argv`` on ``doc`` and check that it
    exits 0 with the report that ``cli.main`` prints in this process."""
    text = json.dumps(doc)
    proc = benchmark.pedantic(_cold, (["-m", "isolab.cli", *argv], text), rounds=10)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        assert cli_main(argv) == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, report.getvalue(), "")


def test_cold_base_map_so6(benchmark, monkeypatch):
    doc = {"a2": ["1/2", "-3", "2"], "a3": ["0", "5/3"], "a4": ["4", "0", "-1"]}
    _cold_command(benchmark, monkeypatch, ["base", "map-so6", "--orientation", "-1"], doc)


def test_cold_higgs_assemble_so22(benchmark, monkeypatch):
    """The command that defines the most value types."""
    doc = {"n1_degree": 1, "n2_degree": 0, "beta1": ["1", "2"], "gamma1": "-3", "beta2": "1/2", "gamma2": "4"}
    _cold_command(benchmark, monkeypatch, ["higgs", "assemble-so22"], doc)


def test_cold_divisor_norm(benchmark, monkeypatch):
    """A fiber command, which loads no kernel."""
    fiber = {"base_label": "x", "kind": "regular", "points": [{"label": f"y{k}", "mult": 1} for k in range(1, 5)]}
    doc = {"covering": "sigma", "fiber": fiber, "divisor": {"[y1,y2]": 2, "[y3,y4]": -2, "[y1,y3]": 1}}
    _cold_command(benchmark, monkeypatch, ["divisor", "norm"], doc)


def test_cold_invariants_count(benchmark, monkeypatch):
    """A counting command, which loads no kernel."""
    _cold_command(benchmark, monkeypatch, ["invariants", "count"], {"isogeny": "rank2", "g": 3})
