"""Seeded, exact verification suite.

Each check re-derives a structural identity by two independent routes and
compares exactly (zero tolerance).  ``run_all`` drives every check with a
deterministic RNG so that reports are byte-for-byte reproducible from the
seed.  The fixed sign conventions are echoed in the report: orientation
parameters default to +1, the Pfaffian convention is first-row expansion
with Pf([[0,1],[-1,0]]) = +1, and under these choices the 6-dimensional
Pfaffian of a split rank-3 image equals minus the determinant of its
off-diagonal block.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .exact_algebra import Record, RingMatrix, UniPoly, ValidationError, exterior_square, fraction_sqrt, pfaffian
from .lie_isogeny import (
    QuadraticForm,
    alpha_block,
    build_block_higgs_so33,
    d_iso2,
    d_iso3,
    hodge_split,
    iso2_group,
    iso3_group,
    q4,
    q6,
    to_split_basis,
)
from .spectral_base import (
    BaseSL2Pair,
    BaseSL4,
    quartic_of_char_pair,
    sextic_of_quartic,
    so4_base,
    so4_oracle,
    so6_base,
    so6_oracle,
)
from .covers_prym import (
    Divisor,
    FiberModel,
    correspondence_push,
    norm,
    ramification_check,
    self_product_minus_diagonal,
    symmetrize,
    twist_ledger,
)
from .moduli_invariants import (
    ToledoPair,
    _reordered,
    assemble_so22,
    component_census,
    liftable,
    milnor_wood_check,
    preimage_count,
    toledo_map,
)

__all__ = ["CheckResult", "VerifyReport", "run_all", "CRITERIA"]

ORIENTATION_NOTE = (
    "orientation +1 throughout; Pfaffian by first-row expansion with "
    "Pf([[0,1],[-1,0]]) = +1; wedge form determinant -1; split-image "
    "Pfaffian equals -det(alpha)"
)


class CheckResult(Record):
    name: str
    passed: bool
    detail: str


class VerifyReport(Record):
    seed: int
    samples: int
    orientation: str
    results: Tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "orientation": self.orientation,
            "passed": self.passed,
            "results": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in self.results
            ],
        }


# -- deterministic samplers --------------------------------------------------


def rand_fraction(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def rand_nonzero_fraction(rng: random.Random, span: int = 6) -> Fraction:
    while True:
        f = rand_fraction(rng, span)
        if f != 0:
            return f


def rand_section(rng: random.Random, max_deg: int) -> UniPoly:
    deg = rng.randint(0, max_deg)
    coeffs = [rand_fraction(rng, 4) for _ in range(deg)] + [rand_nonzero_fraction(rng, 4)]
    return UniPoly("z", coeffs)


def rand_traceless(rng: random.Random, n: int) -> RingMatrix:
    rows = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
    rows[n - 1][n - 1] = -sum(rows[i][i] for i in range(n - 1))
    return RingMatrix(rows)


def rand_symmetric_traceless(rng: random.Random, n: int = 4) -> RingMatrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rand_fraction(rng)
    rows[n - 1][n - 1] = rows[n - 1][n - 1] - sum(rows[i][i] for i in range(n))
    return RingMatrix(rows)


def rand_unimodular(rng: random.Random, n: int, steps: int = 4) -> RingMatrix:
    """Random determinant-1 matrix: a product of elementary shears."""
    m = RingMatrix.identity(n)
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        shear = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
        shear[i][j] = rand_fraction(rng, 3)
        m = m * RingMatrix(shear)
    return m


def rand_companion_quartic(rng: random.Random, max_deg: int = 0) -> Tuple[RingMatrix, BaseSL4]:
    a2 = rand_section(rng, max_deg)
    a3 = rand_section(rng, max_deg)
    a4 = rand_section(rng, max_deg)
    base = BaseSL4(a2, a3, a4)
    comp = RingMatrix(
        [
            [0, 0, 0, -a4],
            [1, 0, 0, -a3],
            [0, 1, 0, -a2],
            [0, 0, 1, 0],
        ]
    )
    return comp, base


REGULAR_FIBER = FiberModel.regular("x", ("y1", "y2", "y3", "y4"))
BRANCH_FIBER = FiberModel.generic_branch("x", ("y1", "y2", "y3"))


# -- criteria -----------------------------------------------------------------


def _orthogonal_transpose(higgs) -> RingMatrix:
    """-q2^{-1} phi12^T q1: the bottom-left block a Higgs field must have."""
    return -(higgs.q2.inverse() * higgs.phi12.transpose() * higgs.q1)


def check_base_map_rank2(rng: random.Random, samples: int) -> Tuple[bool, str]:
    """Base map against the elimination oracle for the rank-2 isogeny."""
    fixed = BaseSL2Pair(-1, -4)
    expected = UniPoly("eta", [9, 0, -10, 0, 1])
    if so4_base(fixed).quartic() != expected or so4_oracle(fixed) != expected:
        return False, "fixed instance (-1,-4) failed"
    for k in range(samples):
        pair = BaseSL2Pair(rand_section(rng, 6), rand_section(rng, 6))
        for sign in (1, -1):
            if so4_base(pair, sign).quartic() != so4_oracle(pair):
                return False, f"sample {k} sign {sign} mismatch"
    return True, f"{samples} samples + fixed instance"


def check_base_map_rank3(rng: random.Random, samples: int) -> Tuple[bool, str]:
    """Base map against the pairwise-sum oracle for the rank-3 isogeny."""
    for triple, sext in (
        ((-5, 0, 4), UniPoly("eta", [0, 0, 9, 0, -10, 0, 1])),
        ((0, 1, 0), UniPoly("eta", [-1, 0, 0, 0, 0, 0, 1])),
    ):
        base = BaseSL4(*triple)
        if so6_base(base).sextic() != sext or so6_oracle(base) != sext:
            return False, f"fixed instance {triple} failed"
    degrees = [0, 0, 0, 1, 1, 2, 2, 3, 4, 6]
    for k in range(samples):
        max_deg = degrees[k % len(degrees)]
        base = BaseSL4(
            rand_section(rng, max_deg), rand_section(rng, max_deg), rand_section(rng, max_deg)
        )
        oracle = so6_oracle(base)
        for sign in (1, -1):
            if so6_base(base, sign).sextic() != oracle:
                return False, f"sample {k} sign {sign} mismatch"
    return True, f"{samples} samples + 2 fixed instances"


def check_charpoly_vs_oracles(rng: random.Random, samples: int) -> Tuple[bool, str]:
    """Characteristic polynomials of derivative images match the oracles."""
    for k in range(samples):
        a1 = rand_traceless(rng, 2)
        a2 = rand_traceless(rng, 2)
        image = d_iso2(a1, a2)
        expected = quartic_of_char_pair(a1.char_poly(), a2.char_poly())
        if image.char_poly() != expected:
            return False, f"rank-2 sample {k}"
    poly_every = max(1, samples // 10)
    for k in range(samples):
        max_deg = 1 if k % poly_every == 0 else 0
        comp, base = rand_companion_quartic(rng, max_deg)
        sextic = d_iso3(comp).char_poly()
        if sextic != so6_oracle(base):
            return False, f"rank-3 sample {k}"
        if sextic != sextic_of_quartic(comp.char_poly()):
            return False, f"rank-3 extract {k}"
    return True, f"{samples} rank-2 and {samples} rank-3 samples"


def check_structure_preservation(rng: random.Random, samples: int) -> Tuple[bool, str]:
    """Group images preserve the forms; algebra images are skew; kernels."""
    g4, g6 = q4().gram, q6().gram
    for k in range(samples):
        a1, a2 = rand_unimodular(rng, 2), rand_unimodular(rng, 2)
        x = iso2_group(a1, a2)
        if x.transpose() * g4 * x != g4 or x.det() != 1:
            return False, f"rank-2 group sample {k}"
        b1, b2 = rand_unimodular(rng, 2), rand_unimodular(rng, 2)
        if iso2_group(a1 * b1, a2 * b2) != iso2_group(a1, a2) * iso2_group(b1, b2):
            return False, f"rank-2 homomorphism {k}"
        a = rand_unimodular(rng, 4)
        y = iso3_group(a)
        if y.transpose() * g6 * y != g6 or y.det() != 1:
            return False, f"rank-3 group sample {k}"
        b = rand_unimodular(rng, 4)
        if iso3_group(a * b) != iso3_group(a) * iso3_group(b):
            return False, f"rank-3 homomorphism {k}"
        xd = d_iso2(rand_traceless(rng, 2), rand_traceless(rng, 2))
        if not (xd.transpose() * g4 + g4 * xd).is_zero():
            return False, f"rank-2 skewness {k}"
        yd = d_iso3(rand_traceless(rng, 4))
        if not (yd.transpose() * g6 + g6 * yd).is_zero():
            return False, f"rank-3 skewness {k}"
    ident2 = RingMatrix.identity(2)
    if iso2_group(-ident2, -ident2) != RingMatrix.identity(4):
        return False, "rank-2 kernel element"
    if iso3_group(-RingMatrix.identity(4)) != RingMatrix.identity(6):
        return False, "rank-3 kernel element"
    # no other diagonal sign matrices of determinant one are in the kernels
    kernel2 = [
        (s1, s2, t1, t2)
        for s1, s2, t1, t2 in itertools.product((1, -1), repeat=4)
        if s1 * s2 == 1 and t1 * t2 == 1
        and iso2_group(RingMatrix.diagonal([s1, s2]), RingMatrix.diagonal([t1, t2]))
        == RingMatrix.identity(4)
    ]
    kernel3 = [
        signs
        for signs in itertools.product((1, -1), repeat=4)
        if signs[0] * signs[1] * signs[2] * signs[3] == 1
        and iso3_group(RingMatrix.diagonal(list(signs))) == RingMatrix.identity(6)
    ]
    if sorted(kernel2) != [(-1, -1, -1, -1), (1, 1, 1, 1)] or sorted(kernel3) != [
        (-1, -1, -1, -1),
        (1, 1, 1, 1),
    ]:
        return False, "unexpected diagonal kernel"
    return True, f"{samples} samples per law + kernels"


def check_alpha_and_pfaffian(rng: random.Random, samples: int) -> Tuple[bool, str]:
    """The block Higgs field [[0, alpha], [alpha^T, 0]] is the rank-3
    derivative conjugated into the split basis, and anti-symmetric for its
    orthogonal structures; the 6-dimensional Pfaffian squares to
    det(alpha)^2 with a constant sign."""
    g6 = q6().gram
    for k in range(samples):
        adot = rand_symmetric_traceless(rng)
        x = d_iso3(adot)
        conj = to_split_basis(x)
        higgs = build_block_higgs_so33(adot)
        diagonal = (conj.block(0, 0, 3, 3), conj.block(3, 3, 3, 3))
        if (higgs.phi11, higgs.phi22) != diagonal or not all(b.is_zero() for b in diagonal):
            return False, f"diagonal blocks sample {k}"
        if (higgs.phi12, higgs.phi21) != (conj.block(0, 3, 3, 3), conj.block(3, 0, 3, 3)):
            return False, f"off-diagonal blocks sample {k}"
        if higgs.phi21 != _orthogonal_transpose(higgs):
            return False, f"block anti-symmetry sample {k}"
        pf = pfaffian(g6 * x)
        det_alpha = higgs.alpha.det()
        if pf * pf != det_alpha * det_alpha:
            return False, f"square law sample {k}"
        if pf != -det_alpha:
            return False, f"sign drifted at sample {k}"
    fixed = RingMatrix.diagonal([1, 1, -1, -1])
    if alpha_block(fixed) != RingMatrix([[0, 0, 2], [0, 0, 0], [0, 0, 0]]):
        return False, "fixed diagonal instance"
    return True, f"{samples} samples, sign constant at -det(alpha)"


def check_hodge_split(rng: random.Random, samples: int) -> Tuple[bool, str]:
    """Star operator squares to one; eigenspaces have rank 3 with
    symmetric nondegenerate restricted forms; the closed-form star equals its
    definition sqrt(det q) (induced form)^{-1} Q6, and every basis vector is
    an eigenvector with the eigenvalue of its eigenspace; orientation -1
    negates the star and swaps the eigenspaces, on the identity form and on
    every sample; block assembly preserves char polys."""
    hs = hodge_split(QuadraticForm(RingMatrix.identity(4)))
    sd = ((1, 0, 0, 0, 0, 1), (0, 1, 0, 0, -1, 0), (0, 0, 1, 1, 0, 0))
    if hs.star != q6().gram or hs.plus_basis != sd:
        return False, "identity-form instance"
    flipped = hodge_split(QuadraticForm(RingMatrix.identity(4)), orientation=-1)
    if flipped.plus_basis != hs.minus_basis or flipped.minus_basis != hs.plus_basis:
        return False, "orientation flip"
    for k in range(samples):
        p = rand_unimodular(rng, 4, steps=5)
        gram = p.transpose() * p
        split = hodge_split(QuadraticForm(gram))
        if split.star * split.star != RingMatrix.identity(6):
            return False, f"involution sample {k}"
        if len(split.plus_basis) != 3 or len(split.minus_basis) != 3:
            return False, f"rank sample {k}"
        if not (split.q_plus.gram.is_symmetric() and split.q_minus.gram.is_symmetric()):
            return False, f"asymmetric restriction {k}"
        if split.q_plus.gram.det() == 0 or split.q_minus.gram.det() == 0:
            return False, f"degenerate restriction {k}"
        reference = exterior_square(gram).inverse() * q6().gram
        if split.star != reference.scale(fraction_sqrt(gram.det())):
            return False, f"star sample {k}"
        for basis, eigenvalue in ((split.plus_basis, 1), (split.minus_basis, -1)):
            vectors = RingMatrix(basis).transpose()
            if split.star * vectors != vectors.scale(eigenvalue):
                return False, f"eigenspace sample {k}"
        flipped = hodge_split(QuadraticForm(gram), orientation=-1)
        swapped = (flipped.plus_basis, flipped.minus_basis) == (split.minus_basis, split.plus_basis)
        if flipped.star != -split.star or not swapped:
            return False, f"orientation sample {k}"
        adot = rand_symmetric_traceless(rng)
        higgs = build_block_higgs_so33(adot)
        if higgs.as_matrix().char_poly() != d_iso3(adot).char_poly():
            return False, f"block char poly sample {k}"
    return True, f"{samples} congruence samples"


def check_ramification_identity(rng: random.Random, samples: int) -> Tuple[bool, str]:
    """Pulled-back ramification equals quotient data on both fiber kinds,
    the twist degree bookkeeping adds up, and each square-root twist row
    doubled is the self-product row."""
    for fiber in (REGULAR_FIBER, BRANCH_FIBER):
        ok, ledger = ramification_check(fiber)
        if not ok:
            return False, f"{fiber.kind}: {ledger['lhs']} != {ledger['rhs']}"
    sl4 = twist_ledger("sl4")
    if sl4.branch != (6, 4, 2) or sl4.regular != (0, 0, 0) or not sl4.identity_holds:
        return False, "self-product twist degrees"
    so4l = twist_ledger("so4")
    if not so4l.identity_holds or so4l.branch != (2, 2):
        return False, "two-factor twist degrees"
    so6l = twist_ledger("so6")
    rows = zip((so6l.regular, so6l.branch), (sl4.regular, sl4.branch))
    if any(tuple(2 * d for d in half) != full for half, full in rows):
        return False, "square-root twist rows are not the halved self-product rows"
    if not so6l.identity_holds or so6l.branch != (3, 2, 1):
        return False, "square-root twist degrees"
    return True, "both fiber kinds, 6 = 4 + 2"


def check_prym_preservation(rng: random.Random, samples: int) -> Tuple[bool, str]:
    """Zero-sum divisors pull back to swap-symmetric divisors on the
    self-product, and their pushes descend (the push pulled back to the
    self-product is that divisor) and have vanishing quotient norm,
    exhaustively; the residual involutions are fixed-point free involutions."""
    fibers = []
    for name, fiber in (("regular", REGULAR_FIBER), ("branch", BRANCH_FIBER)):
        pf = self_product_minus_diagonal(fiber)
        fibers.append((name, fiber, pf, symmetrize(pf)))
    for *_, sym in fibers:
        sigma = sym.sigma()
        for key, image in sigma.items():
            if key == image:
                return False, "involution fixed point"
            if sigma.get(image) != key:
                return False, "involution does not square to one"
    checked = 0
    for name, fiber, pf, sym in fibers:
        for weights in itertools.product(range(-2, 3), repeat=len(fiber.labels)):
            if sum(weights) != 0:
                continue
            d = Divisor(dict(zip(fiber.labels, weights)))
            combined = pf.pullback(d, 1) + pf.pullback(d, 2)
            if any(combined.get((a, b)) != combined.get((b, a)) for a, b in pf.keys):
                return False, f"{name} fiber weights {weights}: pullback differs under the swap"
            pushed = correspondence_push(d, fiber)
            if sym.quotient_pullback(pushed) != combined:
                return False, f"{name} fiber weights {weights}: push does not descend"
            if not norm(pushed, sym, "sigma").is_zero:
                return False, f"{name} fiber weights {weights}"
            checked += 1
    # linearity of the push on random pairs
    for k in range(samples):
        w1 = {l: rng.randint(-3, 3) for l in REGULAR_FIBER.labels}
        w2 = {l: rng.randint(-3, 3) for l in REGULAR_FIBER.labels}
        d1, d2 = Divisor(w1), Divisor(w2)
        if correspondence_push(d1 + d2, REGULAR_FIBER) != correspondence_push(
            d1, REGULAR_FIBER
        ) + correspondence_push(d2, REGULAR_FIBER):
            return False, f"push linearity sample {k}"
    return True, f"{checked} zero-sum vectors exhausted"


def check_invariant_calculus(rng: random.Random, samples: int) -> Tuple[bool, str]:
    """Degree-label arithmetic, bounds, lifting, counts, and censuses."""
    image = set()
    for d1 in range(-10, 11):
        for d2 in range(-10, 11):
            t = toledo_map(ToledoPair(d1, d2, 2))
            if (t.d1 - t.d2) % 2 != 0:
                return False, f"parity at ({d1},{d2})"
            if (t.d1, t.d2) in image:
                return False, f"not injective at ({d1},{d2})"
            image.add((t.d1, t.d2))
    parity_matched = {
        (c1, c2)
        for c1 in range(-20, 21)
        for c2 in range(-20, 21)
        if (c1 - c2) % 2 == 0 and abs(c1) <= 20 and abs(c2) <= 20
    }
    if not image <= parity_matched:
        return False, "image escapes the parity lattice"
    if milnor_wood_check(ToledoPair(2, 0, 2), "sl2xsl2"):
        return False, "rank-2 bound verdict"
    if not milnor_wood_check(ToledoPair(2, 2, 2), "so22"):
        return False, "orthogonal bound verdict"
    if liftable(ToledoPair(1, 2, 2), "so22") or not liftable((1, 1), "so33"):
        return False, "lifting verdicts"
    for d1 in range(-3, 4):
        for d2 in range(-3, 4):
            d = ToledoPair(d1, d2, 3)
            if milnor_wood_check(d, "sl2xsl2") and not liftable(toledo_map(d), "so22"):
                return False, f"image not liftable at ({d1},{d2})"
    for g in (2, 3):
        pc = preimage_count("rank3", g)
        if pc.enumerated != 2 ** (2 * g) or pc.enumerated != pc.stated:
            return False, f"rank-3 count at genus {g}"
    pc = preimage_count("rank2", 2)
    if not (pc.discrepancy and pc.stated == 32 and pc.proof_count == 16 and pc.enumerated == 256):
        return False, "rank-2 count report"
    census = component_census("so33", 2)
    if census.image_labels != ((0, 0), (1, 1)) or census.total_components != 5:
        return False, "rank-3 census"
    if census.hitchin_components_source != 16 or census.hitchin_components_target != 1:
        return False, "Hitchin component tally"
    c22 = component_census("so22", 2)
    if any((c1 - c2) % 2 for c1, c2 in c22.image_labels):
        return False, "rank-2 census parity"
    return True, "toledo scan, bounds, lifting, counts (discrepancy reported), censuses"


def check_so22_assembly(rng: random.Random, samples: int) -> Tuple[bool, str]:
    """Assembled block is [[beta2, beta1], [gamma1, gamma2]] and
    anti-symmetric for the reordered 4-dimensional form; the field is the
    reordered tensor sum d_iso2(phi1, phi2) = phi1 (x) I + I (x) phi2; its
    characteristic polynomial is the assembled quartic, which equals the
    induced base map; its Pfaffian against the form is the stored one,
    a1 - a2; degree labels add and subtract."""
    form = _reordered(q4().gram)
    for k in range(samples):
        beta1, gamma1 = rand_section(rng, 2), rand_section(rng, 2)
        beta2, gamma2 = rand_section(rng, 2), rand_section(rng, 2)
        n1, n2 = rng.randint(-4, 4), rng.randint(-4, 4)
        result = assemble_so22(n1, n2, beta1, gamma1, beta2, gamma2)
        higgs = result.higgs
        if higgs.alpha != RingMatrix([[beta2, beta1], [gamma1, gamma2]]):
            return False, f"alpha sample {k}"
        if higgs.phi21 != _orthogonal_transpose(higgs):
            return False, f"block anti-symmetry sample {k}"
        phi1, phi2 = RingMatrix([[0, beta1], [gamma1, 0]]), RingMatrix([[0, beta2], [gamma2, 0]])
        field = higgs.as_matrix()
        if field != _reordered(d_iso2(phi1, phi2)):
            return False, f"field sample {k}"
        pair = BaseSL2Pair(-(beta1 * gamma1), -(beta2 * gamma2))
        if result.quartic != so4_base(pair).quartic() or field.char_poly() != result.quartic:
            return False, f"quartic sample {k}"
        if result.base.pf != pair.a1 - pair.a2 or pfaffian(form * field) != result.base.pf:
            return False, f"Pfaffian sample {k}"
        if (result.m1_degree, result.m2_degree) != (n1 + n2, n1 - n2):
            return False, f"degree labels sample {k}"
    frozen = assemble_so22(0, 0, 1, 1, 1, -1)
    if frozen.quartic != UniPoly("eta", [4, 0, 0, 0, 1]):
        return False, "frozen quartic instance"
    if frozen.higgs.alpha != RingMatrix([[1, 1], [1, -1]]):
        return False, "frozen block instance"
    if not form.block(0, 2, 2, 2).is_zero() or (
        form.block(0, 0, 2, 2), form.block(2, 2, 2, 2)
    ) != (frozen.higgs.q1, frozen.higgs.q2):
        return False, "reordered form shape"
    return True, f"{samples} samples + frozen instance"


#: (numbered name, check, default sample count).  The numbered name salts
#: the check's RNG; the report drops the number.  A check returns
#: (passed, detail).
CRITERIA: Tuple[Tuple[str, Callable[[random.Random, int], Tuple[bool, str]], int], ...] = (
    ("1 rank-2 base map vs oracle", check_base_map_rank2, 100),
    ("2 rank-3 base map vs oracle", check_base_map_rank3, 100),
    ("3 derivative char polys vs oracles", check_charpoly_vs_oracles, 50),
    ("4 structure preservation", check_structure_preservation, 50),
    ("5 alpha block and Pfaffian", check_alpha_and_pfaffian, 50),
    ("6 star-operator split", check_hodge_split, 50),
    ("7 ramification divisor identity", check_ramification_identity, 1),
    ("8 Prym preservation", check_prym_preservation, 25),
    ("9 invariant calculus", check_invariant_calculus, 1),
    ("10 rank-2 pair assembly", check_so22_assembly, 50),
)


def run_all(seed: int = 0, samples: Optional[int] = None) -> VerifyReport:
    """Run every check with a deterministic RNG derived from the seed.

    ``samples`` overrides the per-check default sample counts (fixed
    instances and exhaustive enumerations always run in full); it must not
    be negative.
    """
    if samples is not None and samples < 0:
        raise ValidationError(f"samples: expected a non-negative integer, got {samples}")
    results: List[CheckResult] = []
    for name, fn, default_samples in CRITERIA:
        rng = random.Random(f"{seed}:{name}")
        passed, detail = fn(rng, samples if samples is not None else default_samples)
        results.append(CheckResult(name.split(" ", 1)[1], passed, detail))
    return VerifyReport(
        seed=seed,
        samples=samples if samples is not None else -1,
        orientation=ORIENTATION_NOTE,
        results=tuple(results),
    )
