"""Topological-invariant calculus for the split real forms.

Degree labels (Toledo-type invariants) and their bounds, the lifting
criteria for the two orthogonal split forms, counting of isogeny
preimages over the model 2-torsion group, the component census, and the
assembly of split rank-2 pair data into a 4-dimensional block Higgs
field.

The 2-torsion of the Jacobian of a genus-g surface is modeled as the
abstract group (Z/2)^(2g); every counting statement here is purely
group-theoretic.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional, Tuple

from . import Record, ValidationError

if TYPE_CHECKING:
    from .exact_algebra import RingMatrix, UniPoly
    from .lie_isogeny import HiggsBlockField
    from .spectral_base import BaseSO4

__all__ = [
    "ToledoPair",
    "W2Label",
    "TorsionVector",
    "PreimageCount",
    "CensusSO33",
    "CensusSO22",
    "So22Assembly",
    "toledo_map",
    "milnor_wood_check",
    "liftable",
    "preimage_count",
    "assemble_so22",
    "component_census",
    "MAX_GENUS",
    "check_genus",
]

#: Largest genus the invariant calculus accepts: 2^(4g) then has at most 78
#: decimal digits and a so22 census at most (4g - 3)^2 = 64,009 labels.
MAX_GENUS = 64


def check_genus(g) -> int:
    """``g`` itself when it is an integer with 2 <= g <= MAX_GENUS."""
    if isinstance(g, bool) or not isinstance(g, int) or not 2 <= g <= MAX_GENUS:
        raise ValidationError(f"genus must be an integer between 2 and {MAX_GENUS}")
    return g


class ToledoPair(Record):
    """A pair of integer degree labels on a genus-g surface."""

    d1: int
    d2: int
    g: int

    def __post_init__(self):
        check_genus(self.g)


class W2Label(Record):
    """A second Stiefel-Whitney label: an element of Z/2."""

    value: int

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValidationError("a Z/2 label is 0 or 1")


class TorsionVector(Record):
    """An element of the model 2-torsion group (Z/2)^(2g)."""

    bits: Tuple[int, ...]
    g: int

    def __post_init__(self):
        if len(self.bits) != 2 * self.g:
            raise ValidationError("a torsion vector has length 2g")
        if any(b not in (0, 1) for b in self.bits):
            raise ValidationError("torsion vector entries are 0 or 1")

    def __add__(self, other: "TorsionVector") -> "TorsionVector":
        if self.g != other.g:
            raise ValidationError("torsion vectors must share a genus")
        return TorsionVector(tuple(a ^ b for a, b in zip(self.bits, other.bits)), self.g)

    @classmethod
    def enumerate(cls, g: int):
        for bits in itertools.product((0, 1), repeat=2 * g):
            yield cls(bits, g)


def toledo_map(d: ToledoPair) -> ToledoPair:
    """(d1, d2) -> (d1 + d2, d1 - d2); the image components always share
    parity."""
    return ToledoPair(d.d1 + d.d2, d.d1 - d.d2, d.g)


def milnor_wood_check(t: ToledoPair, which: str) -> bool:
    """Degree-bound verdict: |d_i| <= g - 1 for the product of rank-2 split
    forms, |c_i| <= 2g - 2 for the 4-dimensional split orthogonal form."""
    if which == "sl2xsl2":
        bound = t.g - 1
    elif which == "so22":
        bound = 2 * t.g - 2
    else:
        raise ValidationError(f"unknown group {which!r} for the degree bound")
    return abs(t.d1) <= bound and abs(t.d2) <= bound


def liftable(label, which: str) -> bool:
    """Whether a label is in the image of the relevant isogeny.

    For the 4-dimensional split orthogonal form the degree pair must have
    equal parities and satisfy the degree bound; for the 6-dimensional one
    the two Stiefel-Whitney labels must agree."""
    if which == "so22":
        if not isinstance(label, ToledoPair):
            raise ValidationError("the rank-2 lifting criterion takes a degree pair")
        return (label.d1 - label.d2) % 2 == 0 and milnor_wood_check(label, "so22")
    if which == "so33":
        try:
            b1, b2 = label
        except (TypeError, ValueError) as exc:
            raise ValidationError("the rank-3 lifting criterion takes a pair of Z/2 labels") from exc
        b1 = b1.value if isinstance(b1, W2Label) else b1
        b2 = b2.value if isinstance(b2, W2Label) else b2
        if b1 not in (0, 1) or b2 not in (0, 1):
            raise ValidationError("Z/2 labels are 0 or 1")
        return b1 == b2
    raise ValidationError(f"unknown group {which!r} for the lifting criterion")


class PreimageCount(Record):
    """Counting report for the preimages of a point in the image.

    ``stated`` is the covering degree claimed for the moduli-space map;
    ``proof_count`` the count appearing in its justification (rank 2
    only); ``enumerated`` the size of the model-group solution set.  For
    the rank-2 isogeny the three numbers disagree and the discrepancy is
    reported rather than resolved: the stated degree is 2^(2g+1), the
    justification counts 2^(2g) solutions per line bundle, and ordered
    pairs of solutions number 2^(4g)."""

    isogeny: str
    g: int
    stated: int
    proof_count: Optional[int]
    enumerated: Optional[int]
    discrepancy: bool
    note: str


def preimage_count(which: str, g: int) -> PreimageCount:
    """Stated and enumerated preimage counts; enumeration runs for g <= 3."""
    check_genus(g)
    torsion_order = 2 ** (2 * g)
    enumerable = g <= 3
    if which == "rank3":
        stated = torsion_order
        enumerated = None
        if enumerable:
            # preimages of a fixed image point are the twists by 2-torsion
            twists = {tv.bits for tv in TorsionVector.enumerate(g)}
            enumerated = len(twists)
        return PreimageCount(
            isogeny="rank3",
            g=g,
            stated=stated,
            proof_count=None,
            enumerated=enumerated,
            discrepancy=False,
            note="stated covering degree matches the twist enumeration",
        )
    if which == "rank2":
        stated = 2 ** (2 * g + 1)
        proof_count = torsion_order
        enumerated = None
        if enumerable:
            # each of the two square-root equations has a torsor of
            # solutions over the 2-torsion group; enumerate ordered pairs
            solutions = [tv.bits for tv in TorsionVector.enumerate(g)]
            enumerated = sum(1 for _ in itertools.product(solutions, solutions))
        return PreimageCount(
            isogeny="rank2",
            g=g,
            stated=stated,
            proof_count=proof_count,
            enumerated=enumerated,
            discrepancy=True,
            note=(
                f"stated covering degree 2^{2*g+1}={stated}, per-bundle solution count "
                f"2^{2*g}={proof_count}, ordered solution pairs 2^{4*g}="
                f"{enumerated if enumerated is not None else 2 ** (4 * g)}; "
                "the intended identification is left open"
            ),
        )
    raise ValidationError(f"unknown isogeny {which!r}")


class So22Assembly(Record):
    """Result of assembling a rank-2 pair into the 4-dimensional block form."""

    higgs: HiggsBlockField
    base: BaseSO4
    m1_degree: int
    m2_degree: int
    quartic: UniPoly


# basis order (lexicographic tensor basis) -> (first summand, second summand)
_SO22_REORDER = (0, 3, 1, 2)


def _reordered(m: RingMatrix) -> RingMatrix:
    """A 4x4 matrix written in the reordered basis ``_SO22_REORDER``."""
    r = _SO22_REORDER
    return m.linear_image(lambda a: [[a[r[i]][r[j]] for j in range(4)] for i in range(4)])


def assemble_so22(
    n1_degree: int,
    n2_degree: int,
    beta1,
    gamma1,
    beta2,
    gamma2,
) -> So22Assembly:
    """Assemble two off-diagonal rank-2 Higgs fields into the block field of
    the 4-dimensional split orthogonal form.

    The field is the tensor sum phi1 (x) I + I (x) phi2 of phi_i =
    [[0, beta_i], [gamma_i, 0]] in the basis of the two rank-2 summands,
    whose degree labels are n1 + n2 and n1 - n2: the closed form with zero
    diagonal blocks, top-right block [[beta2, beta1], [gamma1, gamma2]],
    bottom-left block [[gamma2, beta1], [gamma1, beta2]] and forms Q and -Q,
    with Q = ``lie_isogeny._Q_PAIR``.  The base data and the quartic are the
    induced base map ``so4_base`` on (a1, a2) = (-beta1*gamma1,
    -beta2*gamma2), so the stored Pfaffian is a1 - a2.  Verify criterion 10
    certifies the field against the reordered tensor sum, and the quartic
    and Pfaffian against the characteristic polynomial and the Pfaffian of
    the form times the field.
    """
    from .exact_algebra import RingMatrix, as_poly
    from .lie_isogeny import _Q_PAIR, _ZERO2, HiggsBlockField
    from .spectral_base import BaseSL2Pair, so4_base

    beta1, gamma1 = as_poly(beta1, "z"), as_poly(gamma1, "z")
    beta2, gamma2 = as_poly(beta2, "z"), as_poly(gamma2, "z")
    alpha = RingMatrix([[beta2, beta1], [gamma1, gamma2]])
    phi21 = RingMatrix([[gamma2, beta1], [gamma1, beta2]])
    higgs = HiggsBlockField(_ZERO2, alpha, phi21, _ZERO2, _Q_PAIR, -_Q_PAIR)
    base = so4_base(BaseSL2Pair(-(beta1 * gamma1), -(beta2 * gamma2)))
    return So22Assembly(
        higgs=higgs,
        base=base,
        m1_degree=n1_degree + n2_degree,
        m2_degree=n1_degree - n2_degree,
        quartic=base.quartic(),
    )


class CensusSO33(Record):
    """Component table for the 6-dimensional split orthogonal form."""

    labels: Tuple[Tuple[int, int], ...]
    image_labels: Tuple[Tuple[int, int], ...]
    hitchin_components_source: int
    hitchin_components_target: int
    total_components: int


class CensusSO22(Record):
    """Component table for the 4-dimensional split orthogonal form."""

    g: int
    bound: int
    labels: Tuple[Tuple[int, int], ...]
    image_labels: Tuple[Tuple[int, int], ...]


def component_census(which: str, g: int) -> Tuple[CensusSO33, ...]:
    """Component labels and which of them the isogeny image hits.

    For the 6-dimensional form the labels are the four pairs of Z/2
    classes; the image hits exactly the equal pairs, the 2^(2g) Hitchin
    components upstairs all land in the single one downstairs, and the
    component count is 4 + 1 (the Hitchin component sits inside one of the
    equal-pair labels but is counted separately).  For the 4-dimensional
    form the labels are the degree pairs within the bound and the image is
    the parity-matched sublattice."""
    check_genus(g)
    if which == "so33":
        labels = tuple(itertools.product((0, 1), repeat=2))
        image = tuple(l for l in labels if l[0] == l[1])
        return CensusSO33(
            labels=labels,
            image_labels=image,
            hitchin_components_source=2 ** (2 * g),
            hitchin_components_target=1,
            total_components=len(labels) + 1,
        )
    if which == "so22":
        bound = 2 * g - 2
        labels = tuple(
            (c1, c2)
            for c1 in range(-bound, bound + 1)
            for c2 in range(-bound, bound + 1)
        )
        image = tuple(l for l in labels if (l[0] - l[1]) % 2 == 0)
        return CensusSO22(g=g, bound=bound, labels=labels, image_labels=image)
    raise ValidationError(f"unknown group {which!r} for the census")
