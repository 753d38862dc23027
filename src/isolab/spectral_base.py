"""Hitchin-base types, the induced base maps of the two isogenies, and the
independent oracles that certify them: a resultant for the rank-2 quartic,
integer power sums of the pairwise root sums (``pairwise_sum_poly``) for the
rank-3 sextic.

The base curve is modeled on a single affine chart with coordinate ``z``;
sections of powers of the canonical bundle are plain polynomials in ``z``.
Spectral curves are monic polynomials in the fiber variable ``eta``:

* rank-2 pair:      eta^2 + a_i             (two double covers)
* rank-4 linear:    eta^4 + a2 eta^2 + a3 eta + a4
* 4-dim orthogonal: eta^4 + b1 eta^2 + pf^2
* 6-dim orthogonal: eta^6 + b1 eta^4 + b2 eta^2 - pf^2

The sign of the stored Pfaffian ``pf`` is an explicit parameter; it never
affects the curve itself.  The constant term of the sextic is ``-pf^2``
under this library's wedge-form convention (determinant -1); the quartic's
is ``+pf^2`` (determinant +1).  Both are certified against the oracles
below rather than posited.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .exact_algebra import (
    Record,
    Ring,
    UniPoly,
    ValidationError,
    as_poly,
    pairwise_sum_poly,
    poly_gcd,
    products,
    resultant,
    ring_is_zero,
    squarefree_part,
)

__all__ = [
    "BaseSL2Pair",
    "BaseSL4",
    "BaseSO4",
    "BaseSO6",
    "GenericityReport",
    "so4_base",
    "so4_oracle",
    "so6_base",
    "so6_oracle",
    "quartic_of_char_pair",
    "sextic_of_quartic",
    "genericity_report",
]


class _Sections(Record):
    """Base of the section types: each field is coerced to a polynomial in
    ``z`` when the record is built."""

    def __post_init__(self):
        for name in self._fields:
            object.__setattr__(self, name, as_poly(getattr(self, name), "z"))


class BaseSL2Pair(_Sections):
    """Coefficients (a1, a2) of a pair of double covers eta^2 + a_i = 0."""

    a1: UniPoly
    a2: UniPoly


class BaseSL4(_Sections):
    """Coefficients of the rank-4 spectral curve eta^4 + a2 eta^2 + a3 eta + a4."""

    a2: UniPoly
    a3: UniPoly
    a4: UniPoly

    def curve(self) -> UniPoly:
        return UniPoly("eta", [self.a4, self.a3, self.a2, Fraction(0), Fraction(1)])


class BaseSO4(_Sections):
    """Even quartic data (b1, pf): curve eta^4 + b1 eta^2 + pf^2."""

    b1: UniPoly
    pf: UniPoly

    def quartic(self) -> UniPoly:
        return UniPoly("eta", [self.pf * self.pf, Fraction(0), self.b1, Fraction(0), Fraction(1)])


class BaseSO6(_Sections):
    """Even sextic data (b1, b2, pf): curve eta^6 + b1 eta^4 + b2 eta^2 - pf^2.

    The negative constant term is this library's wedge-form convention;
    the stored Pfaffian already carries the orientation sign of ``so6_base``.
    """

    b1: UniPoly
    b2: UniPoly
    pf: UniPoly

    def sextic(self) -> UniPoly:
        return UniPoly(
            "eta",
            [
                -(self.pf * self.pf),
                Fraction(0),
                self.b2,
                Fraction(0),
                self.b1,
                Fraction(0),
                Fraction(1),
            ],
        )


def so4_base(b: BaseSL2Pair, sign: int = 1) -> BaseSO4:
    """Induced base map of the rank-2 isogeny, one ``products`` table:
    (a1, a2) -> (2(a1 + a2), sign * (a1 - a2))."""
    if sign.__class__ is not int or sign not in (1, -1):
        raise ValidationError("orientation sign must be the int 1 or -1")
    return BaseSO4(*products([(b.a1, b.a2)], [(2, 2), (sign, -sign)])[0])


def so4_oracle(b: BaseSL2Pair) -> UniPoly:
    """Independent quartic: eliminate x between x^2 + a1 and (eta-x)^2 + a2.

    The four roots in eta are the pairwise sums of roots of the two
    quadratics, so this equals the quartic of ``so4_base`` identically."""
    fx = UniPoly("x", [b.a1, Fraction(0), Fraction(1)])
    gx = UniPoly("x", [UniPoly("eta", [b.a2, 0, 1]), UniPoly("eta", [0, -2]), 1])  # (eta - x)^2 + a2
    return as_poly(resultant(fx, gx), "eta")


def so6_base(b: BaseSL4, sign: int = 1) -> BaseSO6:
    """Induced base map of the rank-3 isogeny, one ``products`` table:
    (a2, a3, a4) -> (b1, b2, pf) = (2 a2, a2^2 - 4 a4, sign * a3)."""
    if sign.__class__ is not int or sign not in (1, -1):
        raise ValidationError("orientation sign must be the int 1 or -1")
    return BaseSO6(*products([(b.a2, b.a4, b.a3)], [(2, 0, 0), (b.a2, -4, 0), (0, 0, sign)])[0])


def so6_oracle(b: BaseSL4) -> UniPoly:
    """Independent sextic whose roots are the pairwise sums lambda_a + lambda_b
    (a < b) of the roots of P = eta^4 + a2 eta^2 + a3 eta + a4, by
    ``pairwise_sum_poly``: power sums of the roots of P from Newton's
    identities, the power sums of their pairwise sums, and the sextic
    rebuilt from those, all on integers after one scaling of eta.  It never
    uses the closed form of ``so6_base``."""
    return pairwise_sum_poly(b.curve())


def quartic_of_char_pair(p1: UniPoly, p2: UniPoly) -> UniPoly:
    """Quartic oracle fed by two traceless 2x2 characteristic polynomials
    eta^2 + a_i: validates the shape, then calls ``so4_oracle``."""
    return so4_oracle(BaseSL2Pair(*(_extract_quadratic(p) for p in (p1, p2))))


def sextic_of_quartic(p: UniPoly) -> UniPoly:
    """Sextic oracle fed by a traceless 4x4 characteristic polynomial."""
    return so6_oracle(_extract_quartic(p))


def _extract_quadratic(p: UniPoly) -> Ring:
    if p.var != "eta" or p.degree != 2 or p.lead != 1 or not ring_is_zero(p.coeff(1)):
        raise ValidationError("expected a monic quadratic eta^2 + a with zero linear term")
    return p.coeff(0)


def _extract_quartic(p: UniPoly) -> BaseSL4:
    if p.var != "eta" or p.degree != 4 or p.lead != 1 or not ring_is_zero(p.coeff(3)):
        raise ValidationError("expected a monic traceless quartic in eta")
    return BaseSL4(a2=p.coeff(2), a3=p.coeff(1), a4=p.coeff(0))


class GenericityReport(Record):
    """Smoothness report for the desingularized sextic cover.

    ``gcd_loose`` and ``gcd_tight`` are the common-factor checks
    gcd(a3, a2^2 - a4) and gcd(a3, a2^2 - 4 a4); the tight one decides the
    full rank of the defining map's Jacobian on the locus where the
    symmetrized fiber coordinate vanishes (see ``genericity_report``), the
    loose one is informational."""

    gcd_loose: UniPoly
    gcd_tight: UniPoly
    jacobian_full_rank: bool
    generic: bool
    witness: Optional[str]
    notes: Tuple[str, ...]


def genericity_report(b: BaseSL4) -> GenericityReport:
    """Decide whether the symmetrized sextic cover is smooth along the
    fixed locus of its fiber involution.

    The symmetrized double-cover component is cut out of the rank-1 (+)
    rank-2 total space by F = (f1, f2) in the coordinates (z, u, v):

        f1 = 8 u^3 - 4 u v + 2 a2 u + a3
        f2 = 8 u^4 + 2 a2 u^2 - 8 u^2 v - a2 v + a3 u + v^2 + a4

    The fixed locus is u = 0, where the curve is {a3(z) = 0, B(z, v) = 0}
    with B = v^2 - a2 v + a4, and the Jacobian in (z, u, v) is

        [[a3',          2 a2 - 4 v,  0       ],
         [a4' - a2' v,  a3,          2 v - a2]].

    Its (u, v) minor is -2 (2 v - a2)^2, so the rank can drop only at
    v = a2/2.  There the (z, v) minor a3' (2 v - a2) vanishes, the (z, u)
    minor reduces to a3' a3 = 0, and B = -(a2^2 - 4 a4)/4.  So the rank
    drops exactly over the common zeros of a3 and a2^2 - 4 a4: the verdict
    is gcd(a3, a2^2 - 4 a4) = 1, and the witness is the squarefree product
    of those zeros.
    """
    a2, a3, a4 = b.a2, b.a3, b.a4
    gcd_loose = poly_gcd(a3, a2 * a2 - a4)
    gcd_tight = poly_gcd(a3, a2 * a2 - 4 * a4)
    notes: List[str] = []

    if a3.is_zero:
        notes.append("a3 vanishes identically: the curve is singular along the zero section")
        return GenericityReport(gcd_loose, gcd_tight, False, False, "a3 == 0", tuple(notes))

    full_rank = gcd_tight.degree == 0
    if not full_rank:
        notes.append("Jacobian loses rank over a common zero of the reported witness")
        notes.append("a3 and a2^2 - 4 a4 share a zero")
    if gcd_loose.degree > 0:
        notes.append("a3 and a2^2 - a4 share a zero")
    # gcd_tight is monic, so its squarefree part is the monic product of the
    # distinct rank-drop zeros
    return GenericityReport(
        gcd_loose,
        gcd_tight,
        full_rank,
        full_rank,
        None if full_rank else str(squarefree_part(gcd_tight)),
        tuple(notes),
    )
