"""Fiberwise model of spectral covers, their fiber products and
symmetrization, ramification-divisor identities, divisor arithmetic,
norm maps, and the correspondence pushing divisors from a 4-fold cover
to the associated 6-fold cover.

A fiber is a finite list of labeled points with covering multiplicities
over one base point.  Only the two generic ramification profiles are
supported: all points simple ("regular"), or exactly one double point
listed first ("generic branch").  Anything else raises, deliberately.

Multiplicity bookkeeping is derived, not postulated: the multiplicity of
a projection at a point of a product fiber is the quotient of the total
covering multiplicities, and ramification weights are multiplicity minus
one.  Points of product fibers are keyed by ordered label pairs, points
of symmetrized fibers by sorted label pairs, and points of an involution
quotient by the lexicographically smaller key of the orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from .exact_algebra import InternalError, ValidationError

__all__ = [
    "REGULAR",
    "GENERIC_BRANCH",
    "FiberModel",
    "PairFiber",
    "SymFiber",
    "Divisor",
    "MumfordResult",
    "TwistLedger",
    "fiber_product",
    "self_product_minus_diagonal",
    "symmetrize",
    "ramification_check",
    "correspondence_push",
    "norm",
    "prym_test",
    "mumford_divisor",
    "sigma_orbit_split",
    "twist_ledger",
]

REGULAR = "regular"
GENERIC_BRANCH = "generic_branch"

PairKey = Tuple[str, str]
Key = Union[str, PairKey]

#: Characters that delimit the rendered divisor keys "(a,b)", "[a,b]", "[[a,b]]".
_RESERVED = ",()[]"


@dataclass(frozen=True)
class FiberModel:
    """One fiber of a ramified cover: labeled points with multiplicities."""

    base_label: str
    points: Tuple[Tuple[str, int], ...]
    kind: str

    def __post_init__(self):
        pts = tuple((str(l), int(m)) for l, m in self.points)
        object.__setattr__(self, "points", pts)
        labels = [l for l, _ in pts]
        if len(set(labels)) != len(labels):
            raise ValidationError("fiber point labels must be distinct")
        if any(c in l for l in labels for c in _RESERVED):
            raise ValidationError(f"fiber point labels may not contain any of {_RESERVED!r}")
        if any(l != l.strip() for l in labels):
            raise ValidationError("fiber point labels may not begin or end with whitespace")
        if any(m < 1 for _, m in pts):
            raise ValidationError("multiplicities must be positive")
        if self.kind == REGULAR:
            if any(m != 1 for _, m in pts):
                raise ValidationError("a regular fiber has all multiplicities 1")
        elif self.kind == GENERIC_BRANCH:
            mults = [m for _, m in pts]
            if not mults or mults[0] != 2 or any(m != 1 for m in mults[1:]):
                raise ValidationError(
                    "a generic branch fiber has profile (2, 1, ..., 1) with the double point first"
                )
        else:
            raise ValidationError(f"unknown fiber kind {self.kind!r}")

    @classmethod
    def regular(cls, base_label: str, labels: Sequence[str]) -> "FiberModel":
        return cls(base_label, tuple((l, 1) for l in labels), REGULAR)

    @classmethod
    def generic_branch(cls, base_label: str, labels: Sequence[str]) -> "FiberModel":
        pts = [(labels[0], 2)] + [(l, 1) for l in labels[1:]]
        return cls(base_label, tuple(pts), GENERIC_BRANCH)

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.points)

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(l for l, _ in self.points)

    def multiplicity(self, label: str) -> int:
        for l, m in self.points:
            if l == label:
                return m
        raise ValidationError(f"no point {label!r} in fiber over {self.base_label!r}")

    def ramification_divisor(self) -> "Divisor":
        """Weights are multiplicity minus one."""
        return Divisor({l: m - 1 for l, m in self.points if m > 1})

    def sheet_involution(self) -> Dict[str, str]:
        """The sheet swap of a double cover: defined for degree-2 fibers only."""
        if self.degree != 2:
            raise ValidationError("sheet involution is defined for degree-2 fibers")
        if self.kind == REGULAR:
            a, b = self.labels
            return {a: b, b: a}
        (lbl,) = self.labels
        return {lbl: lbl}


@dataclass(frozen=True)
class PairFiber:
    """A fiber of a product of covers: ordered label pairs with total
    covering multiplicities over the base point.  ``factors`` are the two
    fibers multiplied; a self-product stores ``(f, f)``."""

    base_label: str
    points: Tuple[Tuple[PairKey, int], ...]
    factors: Tuple[FiberModel, FiberModel]

    @property
    def diagonal_removed(self) -> bool:
        """Self-products are built without their diagonal component; two
        distinct covers have no diagonal to remove."""
        return self.factors[0] == self.factors[1]

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.points)

    @property
    def keys(self) -> Tuple[PairKey, ...]:
        return tuple(k for k, _ in self.points)

    def multiplicity(self, key: PairKey) -> int:
        for k, m in self.points:
            if k == key:
                return m
        raise ValidationError(f"no point {key!r} in the product fiber")

    def product_involution(self) -> Dict[PairKey, PairKey]:
        """The pair (sheet swap, sheet swap) on a product of two double covers."""
        if self.diagonal_removed:
            raise ValidationError("the product involution lives on two-factor products")
        s1 = self.factors[0].sheet_involution()
        s2 = self.factors[1].sheet_involution()
        return {(a, b): (s1[a], s2[b]) for (a, b), _ in self.points}

    def projection_multiplicity(self, key: PairKey, which: int) -> int:
        """Multiplicity of the projection to factor ``which`` (1 or 2) at a
        point: the total multiplicity divided by the target point's."""
        if which not in (1, 2):
            raise ValidationError("projection index must be 1 or 2")
        total = self.multiplicity(key)
        down = self.factors[which - 1].multiplicity(key[which - 1])
        if total % down != 0:
            raise InternalError("inconsistent multiplicities in the product fiber")
        return total // down

    def pullback(self, divisor: "Divisor", which: int) -> "Divisor":
        """Pull a divisor on the factor back along a projection: the weight
        at a point is the source weight times the projection multiplicity."""
        weights: Dict[Key, int] = {}
        for key, _ in self.points:
            w = divisor.get(key[which - 1])
            if w:
                weights[key] = w * self.projection_multiplicity(key, which)
        return Divisor(weights)


@dataclass(frozen=True)
class SymFiber:
    """A fiber of the symmetrized self-product: unordered label pairs with
    covering multiplicities, plus the residual fiber involution."""

    base_label: str
    points: Tuple[Tuple[PairKey, int], ...]
    sigma_pairs: Tuple[Tuple[PairKey, PairKey], ...]
    source: PairFiber

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.points)

    @property
    def keys(self) -> Tuple[PairKey, ...]:
        return tuple(k for k, _ in self.points)

    def multiplicity(self, key: PairKey) -> int:
        for k, m in self.points:
            if k == key:
                return m
        raise ValidationError(f"no point {key!r} in the symmetrized fiber")

    def sigma(self) -> Dict[PairKey, PairKey]:
        return dict(self.sigma_pairs)

    def ramification_divisor(self) -> "Divisor":
        return Divisor({k: m - 1 for k, m in self.points if m > 1})

    def quotient_multiplicity(self, key: PairKey) -> int:
        """Multiplicity of the quotient map from the self-product at a point
        upstairs: pair multiplicity divided by the symmetrized one."""
        up = self.source.multiplicity(key if key in self.source.keys else (key[1], key[0]))
        down = self.multiplicity(tuple(sorted(key)))
        if up % down != 0:
            raise InternalError("inconsistent multiplicities in the symmetrized fiber")
        return up // down

    def quotient_ramification(self) -> "Divisor":
        """Ramification divisor of the quotient map, on the self-product."""
        weights: Dict[Key, int] = {}
        for key, _ in self.source.points:
            e = self.quotient_multiplicity(key)
            if e > 1:
                weights[key] = e - 1
        return Divisor(weights)

    def quotient_pullback(self, divisor: "Divisor") -> "Divisor":
        """Pull a divisor on the symmetrized fiber back to the self-product."""
        weights: Dict[Key, int] = {}
        for key, _ in self.source.points:
            w = divisor.get(tuple(sorted(key)))
            if w:
                weights[key] = w * self.quotient_multiplicity(key)
        return Divisor(weights)


class Divisor:
    """Integer-weighted formal sum of points, keyed by point labels."""

    __slots__ = ("_weights",)

    def __init__(self, weights: Optional[Mapping[Key, int]] = None):
        cleaned = {}
        for k, w in (weights or {}).items():
            w = int(w)
            if w != 0:
                cleaned[k] = w
        object.__setattr__(self, "_weights", cleaned)

    def __setattr__(self, *args):
        raise AttributeError("Divisor is immutable")

    def get(self, key: Key) -> int:
        return self._weights.get(key, 0)

    def items(self):
        return sorted(self._weights.items(), key=lambda kv: repr(kv[0]))

    def support(self) -> Tuple[Key, ...]:
        return tuple(k for k, _ in self.items())

    @property
    def is_zero(self) -> bool:
        return not self._weights

    def degree(self) -> int:
        return sum(self._weights.values())

    def __add__(self, other: "Divisor") -> "Divisor":
        out = dict(self._weights)
        for k, w in other._weights.items():
            out[k] = out.get(k, 0) + w
        return Divisor(out)

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + other.scale(-1)

    def __neg__(self) -> "Divisor":
        return self.scale(-1)

    def scale(self, n: int) -> "Divisor":
        return Divisor({k: n * w for k, w in self._weights.items()})

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return self._weights == other._weights

    __hash__ = None

    def __repr__(self):
        if self.is_zero:
            return "Divisor(0)"
        body = " + ".join(f"{w}*{k}" for k, w in self.items())
        return f"Divisor({body})"


def fiber_product(f1: FiberModel, f2: FiberModel) -> PairFiber:
    """Fiber of the product of two distinct double covers over a common
    base point.  Point multiplicities multiply; if exactly one factor is
    branched the profile is (2, 2) and the paired sheet involution is
    fixed-point free."""
    if f1.base_label != f2.base_label:
        raise ValidationError("fiber product requires a common base point")
    if f1.degree != 2 or f2.degree != 2:
        raise ValidationError("fiber product expects two degree-2 fibers")
    if set(f1.labels) & set(f2.labels):
        raise ValidationError(
            "fiber product expects fibers of two distinct covers (disjoint labels)"
        )
    if f1.kind == GENERIC_BRANCH and f2.kind == GENERIC_BRANCH:
        raise ValidationError("non-generic fiber: both factors branch over the same point")
    points = []
    for l1, m1 in f1.points:
        for l2, m2 in f2.points:
            points.append(((l1, l2), m1 * m2))
    return PairFiber(f1.base_label, tuple(points), (f1, f2))


def self_product_minus_diagonal(f: FiberModel) -> PairFiber:
    """Fiber of the non-diagonal component of the self-product of a 4-fold
    cover.  On a regular fiber these are the 12 ordered pairs of distinct
    points; on a generic branch fiber the double point y1 contributes the
    pair (y1, y1) with multiplicity 2 (the anti-diagonal local branch) and
    multiplicity 2 on every mixed pair containing y1."""
    if f.degree != 4:
        raise ValidationError("self product expects a degree-4 fiber")
    if f.kind == REGULAR:
        pts = [((a, b), 1) for a in f.labels for b in f.labels if a != b]
        return PairFiber(f.base_label, tuple(pts), (f, f))
    if f.kind != GENERIC_BRANCH or len(f.labels) != 3:
        raise ValidationError("non-generic fiber")
    y1, y2, y3 = f.labels
    pts = [
        ((y1, y1), 2),
        ((y1, y2), 2),
        ((y2, y1), 2),
        ((y1, y3), 2),
        ((y3, y1), 2),
        ((y2, y3), 1),
        ((y3, y2), 1),
    ]
    return PairFiber(f.base_label, tuple(pts), (f, f))


def symmetrize(pf: PairFiber) -> SymFiber:
    """Quotient a diagonal-free self-product fiber by the pair swap.

    The multiplicity of an unordered pair is the total upstairs
    multiplicity of its orbit divided by 2 (the swap either exchanges two
    points or fixes one with local ramification).  The residual involution
    pairs complementary unordered pairs on a regular fiber and exchanges
    the double-double point with the simple-simple one on a branch fiber.
    That this involution is fixed-point free and squares to the identity
    is certified by verify criterion 8.
    """
    if not pf.diagonal_removed:
        raise ValidationError("symmetrization expects the diagonal component removed")
    totals: Dict[PairKey, int] = {}
    for (a, b), m in pf.points:
        key = tuple(sorted((a, b)))
        totals[key] = totals.get(key, 0) + m
    points = []
    for key in sorted(totals):
        if totals[key] % 2 != 0:
            raise InternalError("swap orbit with odd total multiplicity")
        points.append((key, totals[key] // 2))
    sigma = _sym_involution(pf.factors[0], [k for k, _ in points])
    return SymFiber(pf.base_label, tuple(points), tuple(sorted(sigma.items())), pf)


def _sym_involution(source: FiberModel, keys) -> Dict[PairKey, PairKey]:
    if source.kind == REGULAR:
        all_labels = set(source.labels)
        out = {}
        for key in keys:
            comp = tuple(sorted(all_labels - set(key)))
            out[key] = comp
        return out
    y1, y2, y3 = source.labels
    pairs = {
        tuple(sorted((y1, y1))): tuple(sorted((y2, y3))),
        tuple(sorted((y2, y3))): tuple(sorted((y1, y1))),
        tuple(sorted((y1, y2))): tuple(sorted((y1, y3))),
        tuple(sorted((y1, y3))): tuple(sorted((y1, y2))),
    }
    return {k: pairs[k] for k in keys}


def ramification_check(f: FiberModel) -> Tuple[bool, Dict[str, Divisor]]:
    """Check, on one fiber, that the two pulled-back ramification divisors
    of the 4-fold cover add up to the pullback of the symmetrized cover's
    ramification plus twice the quotient map's own ramification.

    Returns the verdict and a ledger of every divisor involved.
    """
    pf = self_product_minus_diagonal(f)
    sym = symmetrize(pf)
    ram = f.ramification_divisor()
    lhs = pf.pullback(ram, 1) + pf.pullback(ram, 2)
    r0 = sym.quotient_ramification()
    r6 = sym.ramification_divisor()
    rhs = sym.quotient_pullback(r6) + r0.scale(2)
    ledger = {
        "base_ramification": ram,
        "pulled_back_left": pf.pullback(ram, 1),
        "pulled_back_right": pf.pullback(ram, 2),
        "lhs": lhs,
        "sym_cover_ramification": r6,
        "quotient_ramification": r0,
        "rhs": rhs,
    }
    return lhs == rhs, ledger


def correspondence_push(divisor: Divisor, f: FiberModel) -> Divisor:
    """Push a divisor on a 4-fold cover fiber to the symmetrized 6-fold
    cover fiber: pull back along both projections of the self-product, then
    divide by the quotient map (the combined divisor is swap-invariant, so
    the division is exact).  On a regular fiber the weight on the unordered
    pair {a, b} is D(a) + D(b); on a branch fiber the projections' extra
    multiplicity doubles the simple-point contributions against y1."""
    for label in divisor.support():
        if label not in f.labels:
            raise ValidationError(f"divisor point {label!r} is not in the fiber")
    pf = self_product_minus_diagonal(f)
    sym = symmetrize(pf)
    combined = pf.pullback(divisor, 1) + pf.pullback(divisor, 2)
    weights: Dict[Key, int] = {}
    for key, _ in sym.points:
        up = key  # one representative upstairs
        e = sym.quotient_multiplicity(up)
        w = combined.get(up)
        other = (up[1], up[0])
        if other != up and combined.get(other) != w:
            raise InternalError("combined pullback is not swap-invariant")
        if w % e != 0:
            raise InternalError("combined pullback does not descend to the quotient")
        weights[key] = w // e
    return Divisor(weights)


def norm(divisor: Divisor, carrier, covering: str) -> Divisor:
    """Push a divisor's weights along a covering.

    ``covering`` selects the projection: "pi" (a cover fiber down to its
    base point), "sigma" (a symmetrized fiber to its involution quotient),
    or "sigma4" (a two-factor product fiber to its paired-involution
    quotient).  Quotient points are keyed by the lexicographically smaller
    orbit representative."""
    if covering == "pi":
        if not isinstance(carrier, FiberModel):
            raise ValidationError("the pi covering pushes down a cover fiber")
        for label in divisor.support():
            if label not in carrier.labels:
                raise ValidationError(f"divisor point {label!r} is not in the fiber")
        total = sum(divisor.get(l) for l in carrier.labels)
        return Divisor({carrier.base_label: total})
    if covering == "sigma":
        if not isinstance(carrier, SymFiber):
            raise ValidationError("the sigma covering pushes down a symmetrized fiber")
        inv = carrier.sigma()
    elif covering == "sigma4":
        if not isinstance(carrier, PairFiber) or carrier.diagonal_removed:
            raise ValidationError("the sigma4 covering pushes down a two-factor product fiber")
        inv = carrier.product_involution()
        for k, img in inv.items():
            if k == img:
                raise ValidationError("paired involution has a fixed point on this fiber")
    else:
        raise ValidationError(f"unknown covering {covering!r}")
    for key in divisor.support():
        if key not in inv:
            raise ValidationError(f"divisor point {key!r} is not in the fiber")
    weights: Dict[Key, int] = {}
    for key in inv:
        rep = min(key, inv[key])
        if rep == key:
            weights[rep] = divisor.get(key) + divisor.get(inv[key])
    return Divisor(weights)


def prym_test(family: Iterable[Tuple[object, Divisor]], covering: str) -> bool:
    """True iff the norm vanishes on every fiber of the family."""
    return all(norm(d, carrier, covering).is_zero for carrier, d in family)


@dataclass(frozen=True)
class MumfordResult:
    divisor: Divisor
    parity: str  # "even" | "odd"


def mumford_divisor(n: Divisor, sym: SymFiber) -> MumfordResult:
    """N - sigma(N) on a symmetrized fiber; its quotient norm vanishes by
    construction.  The parity of deg(N) is reported, since it selects one
    of the two components downstairs."""
    inv = sym.sigma()
    for key in n.support():
        if key not in inv:
            raise ValidationError(f"divisor point {key!r} is not in the fiber")
        if inv[key] == key:
            raise ValidationError("involution fixes a point of the support")
    pushed = Divisor({inv[k]: w for k, w in n.items()})
    result = n - pushed
    parity = "even" if n.degree() % 2 == 0 else "odd"
    return MumfordResult(result, parity)


def sigma_orbit_split(divisor: Divisor, sym: SymFiber) -> Tuple[Divisor, Divisor]:
    """Split a divisor into an involution-invariant part plus a defect.

    The invariant part carries the floor of the orbit average at both
    points of each orbit; the defect is supported exactly where the weight
    differs from the weight at the image point."""
    inv = sym.sigma()
    for key in divisor.support():
        if key not in inv:
            raise ValidationError(f"divisor point {key!r} is not in the fiber")
    invariant: Dict[Key, int] = {}
    for key in inv:
        avg2 = divisor.get(key) + divisor.get(inv[key])
        invariant[key] = avg2 // 2  # floor for both points of the orbit
    inv_div = Divisor(invariant)
    return inv_div, divisor - inv_div


@dataclass(frozen=True)
class TwistLedger:
    """Per-fiber degree bookkeeping for the canonical twists.

    ``columns`` names the degrees listed for each fiber kind, and
    ``identity_holds`` asserts the stated additive relation between them.
    """

    context: str
    columns: Tuple[str, ...]
    regular: Tuple[int, ...]
    branch: Tuple[int, ...]
    identity: str
    identity_holds: bool


def _sample_deg4(kind: str) -> FiberModel:
    if kind == REGULAR:
        return FiberModel.regular("x", ("y1", "y2", "y3", "y4"))
    return FiberModel.generic_branch("x", ("y1", "y2", "y3"))


def twist_ledger(context: str) -> TwistLedger:
    """Compute the degree bookkeeping used when composing the ramification
    identity with the square-root and quotient twists.

    * "sl4": on the self-product construction, per fiber:
      deg(both pulled-back ramifications), deg(pullback of the symmetrized
      cover's ramification), deg(twice the quotient ramification);
      additive identity 6 = 4 + 2 on a branch fiber.
    * "so4": on a two-factor product with one branched factor, the product
      fiber's own ramification degree against the sum of the pulled-back
      factor ramifications (2 = 2 + 0).
    * "so6": the same data halved, as it enters the square-root twist:
      3 = 2 + 1 per branch fiber.
    """
    if context == "so4":
        reg1 = FiberModel.regular("x", ("p1", "p2"))
        reg2 = FiberModel.regular("x", ("q1", "q2"))
        br1 = FiberModel.generic_branch("x", ("p",))
        prod_reg = fiber_product(reg1, reg2)
        prod_br = fiber_product(br1, reg2)

        def degrees(pf: PairFiber, f1: FiberModel, f2: FiberModel):
            own = sum(pf.multiplicity(k) - 1 for k in pf.keys)
            pulled = (
                pf.pullback(f1.ramification_divisor(), 1)
                + pf.pullback(f2.ramification_divisor(), 2)
            ).degree()
            return own, pulled

        reg = degrees(prod_reg, reg1, reg2)
        br = degrees(prod_br, br1, reg2)
        return TwistLedger(
            context="so4",
            columns=("product_ramification", "pulled_back_factors"),
            regular=reg,
            branch=br,
            identity="product_ramification == pulled_back_factors",
            identity_holds=(reg[0] == reg[1] and br[0] == br[1]),
        )
    if context not in ("sl4", "so6"):
        raise ValidationError(f"unknown twist context {context!r}")
    rows = {}
    for kind in (REGULAR, GENERIC_BRANCH):
        f = _sample_deg4(kind)
        pf = self_product_minus_diagonal(f)
        sym = symmetrize(pf)
        ram = f.ramification_divisor()
        lhs = (pf.pullback(ram, 1) + pf.pullback(ram, 2)).degree()
        mid = sym.quotient_pullback(sym.ramification_divisor()).degree()
        r0 = sym.quotient_ramification().degree()
        rows[kind] = (lhs, mid, r0)
    if context == "sl4":
        reg = (rows[REGULAR][0], rows[REGULAR][1], 2 * rows[REGULAR][2])
        br = (rows[GENERIC_BRANCH][0], rows[GENERIC_BRANCH][1], 2 * rows[GENERIC_BRANCH][2])
        return TwistLedger(
            context="sl4",
            columns=("pulled_back_ramifications", "pullback_of_sym_ramification", "twice_quotient_ramification"),
            regular=reg,
            branch=br,
            identity="first == second + third",
            identity_holds=(reg[0] == reg[1] + reg[2] and br[0] == br[1] + br[2]),
        )
    halves = {}
    for kind, (lhs, mid, r0) in rows.items():
        if lhs % 2 or mid % 2:
            raise InternalError("square-root twist degrees must be even")
        halves[kind] = (lhs // 2, mid // 2, r0)
    reg, br = halves[REGULAR], halves[GENERIC_BRANCH]
    return TwistLedger(
        context="so6",
        columns=("half_pulled_back", "half_sym_pullback", "quotient_ramification"),
        regular=reg,
        branch=br,
        identity="first == second + third",
        identity_holds=(reg[0] == reg[1] + reg[2] and br[0] == br[1] + br[2]),
    )
