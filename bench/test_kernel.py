"""Kernel timings for ``isolab.exact_algebra``, run with pytest-benchmark.

From the root of a source checkout (pytest-benchmark is the ``bench``
extra in ``pyproject.toml``):

    PYTHONPATH=src python -m pytest bench --benchmark-json out.json

This directory is outside ``testpaths``, so the tier-1 suite never
collects it.  Inputs are fixed, and every case checks its result once
against an independent identity of the paper, so a fast wrong kernel
fails instead of timing well:

* the characteristic polynomial of ``d_iso3(A)`` is the pairwise-sum
  sextic of the quartic of ``A`` (the ``so6`` base map);
* Res_x(P(x), P(eta - x)) = 16 P(eta/2) S(eta)^2, with S that sextic;
* Pf(q6 * d_iso3(A)) = -det(alpha(A)) for symmetric traceless ``A``.
"""

import random
from fractions import Fraction

import pytest

from isolab.exact_algebra import RingMatrix, UniPoly, char_poly, pfaffian, resultant
from isolab.lie_isogeny import alpha_block, d_iso3, q6
from isolab.spectral_base import sextic_of_quartic

ETA = UniPoly.variable("eta")


def _rational(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _section(rng, degree):
    return UniPoly("z", [_rational(rng) for _ in range(degree)] + [Fraction(rng.choice([-3, -1, 1, 2]), 2)])


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


def _traceless_4x4(rng, degree):
    """A dense traceless 4x4 matrix over Q (degree 0) or Q[z]."""
    return _conjugate(rng, _companion(*(_section(rng, degree) for _ in range(3))))


@pytest.mark.parametrize("degree", [0, 2], ids=["Q", "Qz"])
def test_char_poly_6x6(benchmark, degree):
    a = _traceless_4x4(random.Random(f"char_poly:{degree}"), degree)
    image = d_iso3(a)
    sextic = benchmark(char_poly, image)
    assert sextic == sextic_of_quartic(char_poly(a))


def test_resultant_8x8_sylvester_over_qz_eta(benchmark):
    rng = random.Random("resultant")
    a2, a3, a4 = (_section(rng, 2) for _ in range(3))
    coeffs = [a4, a3, a2, Fraction(0), Fraction(1)]
    px = UniPoly("x", coeffs)
    shifted = sum((c * UniPoly("x", [ETA, -1]) ** k for k, c in enumerate(coeffs)), Fraction(0))
    big = benchmark(resultant, px, shifted)
    quartic = UniPoly("eta", coeffs)
    half = sum((c * (ETA * Fraction(1, 2)) ** k for k, c in enumerate(quartic.coeffs)), Fraction(0))
    sextic = char_poly(d_iso3(_companion(a2, a3, a4)))
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
