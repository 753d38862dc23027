"""Seeded, exact verification suite.

Each criterion re-derives structural identities by two independent routes
and compares exactly (zero tolerance).  It is a generator that yields
``(label, holds)`` for each comparison and returns its pass detail;
``criterion`` makes it a check that returns ``(False, label)`` at the first
comparison that does not hold, else ``(True, detail)``.  ``run_all`` drives
every check with a deterministic RNG so that reports are byte-for-byte
reproducible from the seed.  The fixed sign conventions are echoed in the
report: orientation parameters default to +1, the Pfaffian convention is
first-row expansion with Pf([[0,1],[-1,0]]) = +1, and under these choices
the 6-dimensional Pfaffian of a split rank-3 image equals minus the
determinant of its off-diagonal block.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, Generator, List, Optional, Tuple

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

#: A criterion yields (label, holds) per comparison and returns its detail.
Comparisons = Generator[Tuple[str, bool], None, str]
Check = Callable[[random.Random, int], Tuple[bool, str]]


def criterion(comparisons: Callable[[random.Random, int], Comparisons]) -> Check:
    """The check that runs a criterion's comparisons: ``(False, label)`` at
    the first comparison that does not hold, without resuming the generator,
    and ``(True, detail)`` when the generator returns ``detail``."""

    def check(rng: random.Random, samples: int) -> Tuple[bool, str]:
        run = comparisons(rng, samples)
        while True:
            try:
                label, holds = next(run)
            except StopIteration as done:
                return True, done.value
            if not holds:
                return False, label

    check.__name__, check.__doc__ = comparisons.__name__, comparisons.__doc__
    return check


def _orthogonal_transpose(higgs) -> RingMatrix:
    """-q2^{-1} phi12^T q1: the bottom-left block a Higgs field must have."""
    return -(higgs.q2.inverse() * higgs.phi12.transpose() * higgs.q1)


@criterion
def check_base_map_rank2(rng: random.Random, samples: int) -> Comparisons:
    """Base map against the elimination oracle for the rank-2 isogeny."""
    fixed = BaseSL2Pair(-1, -4)
    expected = UniPoly("eta", [9, 0, -10, 0, 1])
    yield "fixed instance (-1,-4) failed", (
        so4_base(fixed).quartic() == expected and so4_oracle(fixed) == expected
    )
    for k in range(samples):
        pair = BaseSL2Pair(rand_section(rng, 6), rand_section(rng, 6))
        for sign in (1, -1):
            yield f"sample {k} sign {sign} mismatch", so4_base(pair, sign).quartic() == so4_oracle(pair)
    return f"{samples} samples + fixed instance"


@criterion
def check_base_map_rank3(rng: random.Random, samples: int) -> Comparisons:
    """Base map against the pairwise-sum oracle for the rank-3 isogeny."""
    for triple, sext in (
        ((-5, 0, 4), UniPoly("eta", [0, 0, 9, 0, -10, 0, 1])),
        ((0, 1, 0), UniPoly("eta", [-1, 0, 0, 0, 0, 0, 1])),
    ):
        base = BaseSL4(*triple)
        yield f"fixed instance {triple} failed", so6_base(base).sextic() == sext and so6_oracle(base) == sext
    degrees = [0, 0, 0, 1, 1, 2, 2, 3, 4, 6]
    for k in range(samples):
        max_deg = degrees[k % len(degrees)]
        base = BaseSL4(
            rand_section(rng, max_deg), rand_section(rng, max_deg), rand_section(rng, max_deg)
        )
        oracle = so6_oracle(base)
        for sign in (1, -1):
            yield f"sample {k} sign {sign} mismatch", so6_base(base, sign).sextic() == oracle
    return f"{samples} samples + 2 fixed instances"


@criterion
def check_charpoly_vs_oracles(rng: random.Random, samples: int) -> Comparisons:
    """Characteristic polynomials of derivative images match the oracles."""
    for k in range(samples):
        a1 = rand_traceless(rng, 2)
        a2 = rand_traceless(rng, 2)
        image = d_iso2(a1, a2)
        expected = quartic_of_char_pair(a1.char_poly(), a2.char_poly())
        yield f"rank-2 sample {k}", image.char_poly() == expected
    poly_every = max(1, samples // 10)
    for k in range(samples):
        max_deg = 1 if k % poly_every == 0 else 0
        comp, base = rand_companion_quartic(rng, max_deg)
        sextic = d_iso3(comp).char_poly()
        yield f"rank-3 sample {k}", sextic == so6_oracle(base)
        yield f"rank-3 extract {k}", sextic == sextic_of_quartic(comp.char_poly())
    return f"{samples} rank-2 and {samples} rank-3 samples"


@criterion
def check_structure_preservation(rng: random.Random, samples: int) -> Comparisons:
    """Group images preserve the forms; algebra images are skew; kernels."""
    g4, g6 = q4().gram, q6().gram
    for k in range(samples):
        a1, a2 = rand_unimodular(rng, 2), rand_unimodular(rng, 2)
        x = iso2_group(a1, a2)
        yield f"rank-2 group sample {k}", x.transpose() * g4 * x == g4 and x.det() == 1
        b1, b2 = rand_unimodular(rng, 2), rand_unimodular(rng, 2)
        yield f"rank-2 homomorphism {k}", iso2_group(a1 * b1, a2 * b2) == iso2_group(a1, a2) * iso2_group(b1, b2)
        a = rand_unimodular(rng, 4)
        y = iso3_group(a)
        yield f"rank-3 group sample {k}", y.transpose() * g6 * y == g6 and y.det() == 1
        b = rand_unimodular(rng, 4)
        yield f"rank-3 homomorphism {k}", iso3_group(a * b) == iso3_group(a) * iso3_group(b)
        xd = d_iso2(rand_traceless(rng, 2), rand_traceless(rng, 2))
        yield f"rank-2 skewness {k}", (xd.transpose() * g4 + g4 * xd).is_zero()
        yd = d_iso3(rand_traceless(rng, 4))
        yield f"rank-3 skewness {k}", (yd.transpose() * g6 + g6 * yd).is_zero()
    ident2 = RingMatrix.identity(2)
    yield "rank-2 kernel element", iso2_group(-ident2, -ident2) == RingMatrix.identity(4)
    yield "rank-3 kernel element", iso3_group(-RingMatrix.identity(4)) == RingMatrix.identity(6)
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
    trivial = [(-1, -1, -1, -1), (1, 1, 1, 1)]
    yield "unexpected diagonal kernel", sorted(kernel2) == trivial and sorted(kernel3) == trivial
    return f"{samples} samples per law + kernels"


@criterion
def check_alpha_and_pfaffian(rng: random.Random, samples: int) -> Comparisons:
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
        yield f"diagonal blocks sample {k}", (
            (higgs.phi11, higgs.phi22) == diagonal and all(b.is_zero() for b in diagonal)
        )
        off_diagonal = (conj.block(0, 3, 3, 3), conj.block(3, 0, 3, 3))
        yield f"off-diagonal blocks sample {k}", (higgs.phi12, higgs.phi21) == off_diagonal
        yield f"block anti-symmetry sample {k}", higgs.phi21 == _orthogonal_transpose(higgs)
        pf = pfaffian(g6 * x)
        det_alpha = higgs.alpha.det()
        yield f"square law sample {k}", pf * pf == det_alpha * det_alpha
        yield f"sign drifted at sample {k}", pf == -det_alpha
    fixed = RingMatrix.diagonal([1, 1, -1, -1])
    yield "fixed diagonal instance", alpha_block(fixed) == RingMatrix([[0, 0, 2], [0, 0, 0], [0, 0, 0]])
    return f"{samples} samples, sign constant at -det(alpha)"


@criterion
def check_hodge_split(rng: random.Random, samples: int) -> Comparisons:
    """Star operator squares to one; eigenspaces have rank 3 with
    symmetric nondegenerate restricted forms; the closed-form star equals its
    definition sqrt(det q) (induced form)^{-1} Q6, and every basis vector is
    an eigenvector with the eigenvalue of its eigenspace; orientation -1
    negates the star and swaps the eigenspaces, on the identity form and on
    every sample; block assembly preserves char polys."""
    hs = hodge_split(QuadraticForm(RingMatrix.identity(4)))
    sd = ((1, 0, 0, 0, 0, 1), (0, 1, 0, 0, -1, 0), (0, 0, 1, 1, 0, 0))
    yield "identity-form instance", hs.star == q6().gram and hs.plus_basis == sd
    flipped = hodge_split(QuadraticForm(RingMatrix.identity(4)), orientation=-1)
    yield "orientation flip", flipped.plus_basis == hs.minus_basis and flipped.minus_basis == hs.plus_basis
    for k in range(samples):
        p = rand_unimodular(rng, 4, steps=5)
        gram = p.transpose() * p
        split = hodge_split(QuadraticForm(gram))
        yield f"involution sample {k}", split.star * split.star == RingMatrix.identity(6)
        yield f"rank sample {k}", len(split.plus_basis) == 3 and len(split.minus_basis) == 3
        yield f"asymmetric restriction {k}", (
            split.q_plus.gram.is_symmetric() and split.q_minus.gram.is_symmetric()
        )
        yield f"degenerate restriction {k}", split.q_plus.gram.det() != 0 and split.q_minus.gram.det() != 0
        reference = exterior_square(gram).inverse() * q6().gram
        yield f"star sample {k}", split.star == reference.scale(fraction_sqrt(gram.det()))
        for basis, eigenvalue in ((split.plus_basis, 1), (split.minus_basis, -1)):
            vectors = RingMatrix(basis).transpose()
            yield f"eigenspace sample {k}", split.star * vectors == vectors.scale(eigenvalue)
        flipped = hodge_split(QuadraticForm(gram), orientation=-1)
        swapped = (flipped.plus_basis, flipped.minus_basis) == (split.minus_basis, split.plus_basis)
        yield f"orientation sample {k}", flipped.star == -split.star and swapped
        adot = rand_symmetric_traceless(rng)
        higgs = build_block_higgs_so33(adot)
        yield f"block char poly sample {k}", higgs.as_matrix().char_poly() == d_iso3(adot).char_poly()
    return f"{samples} congruence samples"


@criterion
def check_ramification_identity(rng: random.Random, samples: int) -> Comparisons:
    """Pulled-back ramification equals quotient data on both fiber kinds,
    the twist degree bookkeeping adds up, and each square-root twist row
    doubled is the self-product row."""
    for fiber in (REGULAR_FIBER, BRANCH_FIBER):
        ok, ledger = ramification_check(fiber)
        yield f"{fiber.kind}: {ledger['lhs']} != {ledger['rhs']}", ok
    sl4 = twist_ledger("sl4")
    yield "self-product twist degrees", (
        sl4.branch == (6, 4, 2) and sl4.regular == (0, 0, 0) and sl4.identity_holds
    )
    so4l = twist_ledger("so4")
    yield "two-factor twist degrees", so4l.identity_holds and so4l.branch == (2, 2)
    so6l = twist_ledger("so6")
    rows = zip((so6l.regular, so6l.branch), (sl4.regular, sl4.branch))
    yield "square-root twist rows are not the halved self-product rows", all(
        tuple(2 * d for d in half) == full for half, full in rows
    )
    yield "square-root twist degrees", so6l.identity_holds and so6l.branch == (3, 2, 1)
    return "both fiber kinds, 6 = 4 + 2"


@criterion
def check_prym_preservation(rng: random.Random, samples: int) -> Comparisons:
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
            yield "involution fixed point", key != image
            yield "involution does not square to one", sigma.get(image) == key
    checked = 0
    for name, fiber, pf, sym in fibers:
        for weights in itertools.product(range(-2, 3), repeat=len(fiber.labels)):
            if sum(weights) != 0:
                continue
            d = Divisor(dict(zip(fiber.labels, weights)))
            combined = pf.pullback(d, 1) + pf.pullback(d, 2)
            yield f"{name} fiber weights {weights}: pullback differs under the swap", all(
                combined.get((a, b)) == combined.get((b, a)) for a, b in pf.keys
            )
            pushed = correspondence_push(d, fiber)
            yield f"{name} fiber weights {weights}: push does not descend", (
                sym.quotient_pullback(pushed) == combined
            )
            yield f"{name} fiber weights {weights}", norm(pushed, sym, "sigma").is_zero
            checked += 1
    # linearity of the push on random pairs
    for k in range(samples):
        w1 = {l: rng.randint(-3, 3) for l in REGULAR_FIBER.labels}
        w2 = {l: rng.randint(-3, 3) for l in REGULAR_FIBER.labels}
        d1, d2 = Divisor(w1), Divisor(w2)
        yield f"push linearity sample {k}", correspondence_push(d1 + d2, REGULAR_FIBER) == (
            correspondence_push(d1, REGULAR_FIBER) + correspondence_push(d2, REGULAR_FIBER)
        )
    return f"{checked} zero-sum vectors exhausted"


@criterion
def check_invariant_calculus(rng: random.Random, samples: int) -> Comparisons:
    """Degree-label arithmetic, bounds, lifting, counts, and censuses."""
    image = set()
    for d1 in range(-10, 11):
        for d2 in range(-10, 11):
            t = toledo_map(ToledoPair(d1, d2, 2))
            yield f"parity at ({d1},{d2})", (t.d1 - t.d2) % 2 == 0
            yield f"not injective at ({d1},{d2})", (t.d1, t.d2) not in image
            image.add((t.d1, t.d2))
    parity_matched = {
        (c1, c2)
        for c1 in range(-20, 21)
        for c2 in range(-20, 21)
        if (c1 - c2) % 2 == 0 and abs(c1) <= 20 and abs(c2) <= 20
    }
    yield "image escapes the parity lattice", image <= parity_matched
    yield "rank-2 bound verdict", not milnor_wood_check(ToledoPair(2, 0, 2), "sl2xsl2")
    yield "orthogonal bound verdict", milnor_wood_check(ToledoPair(2, 2, 2), "so22")
    yield "lifting verdicts", not liftable(ToledoPair(1, 2, 2), "so22") and liftable((1, 1), "so33")
    for d1 in range(-3, 4):
        for d2 in range(-3, 4):
            d = ToledoPair(d1, d2, 3)
            yield f"image not liftable at ({d1},{d2})", (
                not milnor_wood_check(d, "sl2xsl2") or liftable(toledo_map(d), "so22")
            )
    for g in (2, 3):
        pc = preimage_count("rank3", g)
        yield f"rank-3 count at genus {g}", pc.enumerated == 2 ** (2 * g) and pc.enumerated == pc.stated
    pc = preimage_count("rank2", 2)
    yield "rank-2 count report", (
        pc.discrepancy and pc.stated == 32 and pc.proof_count == 16 and pc.enumerated == 256
    )
    census = component_census("so33", 2)
    yield "rank-3 census", census.image_labels == ((0, 0), (1, 1)) and census.total_components == 5
    yield "Hitchin component tally", (
        census.hitchin_components_source == 16 and census.hitchin_components_target == 1
    )
    c22 = component_census("so22", 2)
    yield "rank-2 census parity", all((c1 - c2) % 2 == 0 for c1, c2 in c22.image_labels)
    return "toledo scan, bounds, lifting, counts (discrepancy reported), censuses"


@criterion
def check_so22_assembly(rng: random.Random, samples: int) -> Comparisons:
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
        yield f"alpha sample {k}", higgs.alpha == RingMatrix([[beta2, beta1], [gamma1, gamma2]])
        yield f"block anti-symmetry sample {k}", higgs.phi21 == _orthogonal_transpose(higgs)
        phi1, phi2 = RingMatrix([[0, beta1], [gamma1, 0]]), RingMatrix([[0, beta2], [gamma2, 0]])
        field = higgs.as_matrix()
        yield f"field sample {k}", field == _reordered(d_iso2(phi1, phi2))
        pair = BaseSL2Pair(-(beta1 * gamma1), -(beta2 * gamma2))
        yield f"quartic sample {k}", (
            result.quartic == so4_base(pair).quartic() and field.char_poly() == result.quartic
        )
        yield f"Pfaffian sample {k}", (
            result.base.pf == pair.a1 - pair.a2 and pfaffian(form * field) == result.base.pf
        )
        yield f"degree labels sample {k}", (result.m1_degree, result.m2_degree) == (n1 + n2, n1 - n2)
    frozen = assemble_so22(0, 0, 1, 1, 1, -1)
    yield "frozen quartic instance", frozen.quartic == UniPoly("eta", [4, 0, 0, 0, 1])
    yield "frozen block instance", frozen.higgs.alpha == RingMatrix([[1, 1], [1, -1]])
    yield "reordered form shape", form.block(0, 2, 2, 2).is_zero() and (
        form.block(0, 0, 2, 2), form.block(2, 2, 2, 2)
    ) == (frozen.higgs.q1, frozen.higgs.q2)
    return f"{samples} samples + frozen instance"


#: (numbered name, check, default sample count).  The numbered name salts
#: the check's RNG; the report drops the number.
CRITERIA: Tuple[Tuple[str, Check, int], ...] = (
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
