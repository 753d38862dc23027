"""Fiberwise model of spectral covers, their fiber products and
symmetrization, ramification-divisor identities, divisor arithmetic,
norm maps, and the correspondence pushing divisors from a 4-fold cover
to the associated 6-fold cover.

A fiber is a finite list of labeled points with covering multiplicities
over one base point.  Only the two generic ramification profiles are
supported: all points simple ("regular"), or exactly one double point
listed first ("generic branch").  Anything else raises, deliberately.

Multiplicity bookkeeping is derived, not postulated, from one rule for a
fiber map ``up -> down`` sending a point k to image(k): its ramification
index is e(k) = m_up(k) / m_down(image(k)), and the pullback of a divisor
D weighs k with D(image(k)) * e(k).  Both projections of a product and
the quotient of a self-product by the swap are such maps; ramification
weights are multiplicity (or index) minus one.  The residual involution
of a symmetrized self-product sends a pair {a, b} to its complement in
the fiber's points counted with multiplicity: on a branch fiber
{y1, y1} <-> {y2, y3} and {y1, y2} <-> {y1, y3}.  Points of product
fibers are keyed by ordered label pairs, points of symmetrized fibers by
sorted label pairs, and points of an involution quotient by the
lexicographically smaller key of the orbit.

Only a hand-built ``PairFiber`` has multiplicities that do not divide
along a fiber map or a swap orbit of odd total: both raise
``ValidationError``.  Only a hand-built fiber carries an involution with a
fixed point or one that does not square to one: ``norm``,
``mumford_divisor`` and ``sigma_orbit_split`` refuse it the same way.
That the push divides exactly and that the square-root twist degrees are
even is certified by verify criteria 8 and 7.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from . import Record, ValidationError

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


def _require_int(value, what: str) -> None:
    """Refuse a value that ``int()`` would silently truncate or coerce."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")


class _PointTable:
    """The point table ``points`` of a fiber: (key, multiplicity) pairs over
    the base point ``base_label``."""

    points: Tuple[Tuple[Key, int], ...]

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.points)

    @property
    def keys(self) -> Tuple[Key, ...]:
        return tuple(k for k, _ in self.points)

    def multiplicity(self, key: Key) -> int:
        for k, m in self.points:
            if k == key:
                return m
        raise ValidationError(f"no point {key!r} in {self._where}")

    def ramification_divisor(self) -> "Divisor":
        """Weights are multiplicity minus one."""
        return Divisor({k: m - 1 for k, m in self.points})


class FiberModel(_PointTable, Record):
    """One fiber of a ramified cover: labeled points with multiplicities."""

    base_label: str
    points: Tuple[Tuple[str, int], ...]
    kind: str

    def __post_init__(self):
        pts = tuple((l, m) for l, m in self.points)
        for label in (self.base_label, *(l for l, _ in pts)):
            if not isinstance(label, str):
                raise ValidationError(f"a fiber label must be a string, got {label!r}")
        for _, m in pts:
            _require_int(m, "a multiplicity")
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

    labels = _PointTable.keys

    @property
    def _where(self) -> str:
        return f"fiber over {self.base_label!r}"

    def sheet_involution(self) -> Dict[str, str]:
        """The sheet swap of a double cover: defined for degree-2 fibers only."""
        if self.degree != 2:
            raise ValidationError("sheet involution is defined for degree-2 fibers")
        if self.kind == REGULAR:
            a, b = self.labels
            return {a: b, b: a}
        (lbl,) = self.labels
        return {lbl: lbl}


class PairFiber(_PointTable, Record):
    """A fiber of a product of covers: ordered label pairs with total
    covering multiplicities over the base point.  ``factors`` are the two
    fibers multiplied; a self-product stores ``(f, f)``."""

    base_label: str
    points: Tuple[Tuple[PairKey, int], ...]
    factors: Tuple[FiberModel, FiberModel]

    _where = "the product fiber"

    @property
    def diagonal_removed(self) -> bool:
        """Self-products are built without their diagonal component; two
        distinct covers have no diagonal to remove."""
        return self.factors[0] == self.factors[1]

    def product_involution(self) -> Dict[PairKey, PairKey]:
        """The pair (sheet swap, sheet swap) on a product of two double covers."""
        if self.diagonal_removed:
            raise ValidationError("the product involution lives on two-factor products")
        s1 = self.factors[0].sheet_involution()
        s2 = self.factors[1].sheet_involution()
        return {(a, b): (s1[a], s2[b]) for (a, b), _ in self.points}

    def pullback(self, divisor: "Divisor", which: int) -> "Divisor":
        """Pull a divisor on factor ``which`` (1 or 2) back along its projection."""
        if which not in (1, 2):
            raise ValidationError("projection index must be 1 or 2")
        return _pullback(divisor, self, self.factors[which - 1], itemgetter(which - 1))


class SymFiber(_PointTable, Record):
    """A fiber of the symmetrized self-product: unordered label pairs with
    covering multiplicities, plus the residual fiber involution."""

    base_label: str
    points: Tuple[Tuple[PairKey, int], ...]
    sigma_pairs: Tuple[Tuple[PairKey, PairKey], ...]
    source: PairFiber

    _where = "the symmetrized fiber"

    def sigma(self) -> Dict[PairKey, PairKey]:
        return dict(self.sigma_pairs)

    def quotient_ramification(self) -> "Divisor":
        """Ramification divisor of the quotient map, on the self-product."""
        return Divisor({k: _index(self.source, self, _unordered, k) - 1 for k in self.source.keys})

    def quotient_pullback(self, divisor: "Divisor") -> "Divisor":
        """Pull a divisor on the symmetrized fiber back to the self-product."""
        return _pullback(divisor, self.source, self, _unordered)


def _unordered(key: PairKey) -> PairKey:
    return tuple(sorted(key))


def _index(up: _PointTable, down: _PointTable, image: Callable, key: Key) -> int:
    """Ramification index e(k) = m_up(k) / m_down(image(k)) of the fiber map
    ``image`` from ``up`` to ``down`` at the point ``key`` upstairs."""
    e, rest = divmod(up.multiplicity(key), down.multiplicity(image(key)))
    if rest:
        raise ValidationError("inconsistent multiplicities along a fiber map")
    return e


def _pullback(divisor: "Divisor", up: _PointTable, down: _PointTable, image: Callable) -> "Divisor":
    """The weight at a point k upstairs is D(image(k)) * e(k)."""
    return Divisor({k: divisor.get(image(k)) * _index(up, down, image, k) for k in up.keys})


def _require_support(divisor: "Divisor", keys) -> None:
    for key in divisor.support():
        if key not in keys:
            raise ValidationError(f"divisor point {key!r} is not in the fiber")


class Divisor:
    """Integer-weighted formal sum of points, keyed by point labels."""

    __slots__ = ("_weights",)

    def __init__(self, weights: Optional[Mapping[Key, int]] = None):
        cleaned = {}
        for k, w in (weights or {}).items():
            _require_int(w, "a divisor weight")
            if w != 0:
                cleaned[k] = w
        object.__setattr__(self, "_weights", cleaned)

    def __setattr__(self, *args):
        raise AttributeError("Divisor is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return Divisor, (self._weights,)

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
    sends a pair to its complement in the fiber's points, counted with
    multiplicity.  That this involution is fixed-point free and squares to
    the identity is certified by verify criterion 8.
    """
    if not pf.diagonal_removed:
        raise ValidationError("symmetrization expects the diagonal component removed")
    totals = Counter()
    for key, m in pf.points:
        totals[_unordered(key)] += m
    points = []
    for key in sorted(totals):
        if totals[key] % 2 != 0:
            raise ValidationError("swap orbit with odd total multiplicity")
        points.append((key, totals[key] // 2))
    fiber = Counter(dict(pf.factors[0].points))
    sigma = tuple((k, _unordered((fiber - Counter(k)).elements())) for k, _ in points)
    return SymFiber(pf.base_label, tuple(points), sigma, pf)


def _pulled_back_ramification(pf: PairFiber) -> Tuple[Divisor, Divisor]:
    """Each factor's ramification divisor pulled back along its projection."""
    return tuple(pf.pullback(f.ramification_divisor(), i) for i, f in enumerate(pf.factors, 1))


def ramification_check(f: FiberModel) -> Tuple[bool, Dict[str, Divisor]]:
    """Check, on one fiber, that the two pulled-back ramification divisors
    of the 4-fold cover add up to the pullback of the symmetrized cover's
    ramification plus twice the quotient map's own ramification.

    Returns the verdict and a ledger of every divisor involved.
    """
    pf = self_product_minus_diagonal(f)
    sym = symmetrize(pf)
    left, right = _pulled_back_ramification(pf)
    r0 = sym.quotient_ramification()
    r6 = sym.ramification_divisor()
    ledger = {
        "base_ramification": f.ramification_divisor(),
        "pulled_back_left": left,
        "pulled_back_right": right,
        "lhs": left + right,
        "sym_cover_ramification": r6,
        "quotient_ramification": r0,
        "rhs": sym.quotient_pullback(r6) + r0.scale(2),
    }
    return ledger["lhs"] == ledger["rhs"], ledger


def correspondence_push(divisor: Divisor, f: FiberModel) -> Divisor:
    """Push a divisor on a 4-fold cover fiber to the symmetrized 6-fold
    cover fiber: pull back along both projections of the self-product, then
    divide by the quotient map at one representative of each swap orbit
    (the combined divisor is swap-invariant and descends, as verify
    criterion 8 certifies).  On a regular fiber the weight on the unordered
    pair {a, b} is D(a) + D(b); on a branch fiber the projections' extra
    multiplicity doubles the simple-point contributions against y1."""
    _require_support(divisor, f.labels)
    pf = self_product_minus_diagonal(f)
    sym = symmetrize(pf)
    combined = pf.pullback(divisor, 1) + pf.pullback(divisor, 2)
    return Divisor({key: combined.get(key) // _index(pf, sym, _unordered, key) for key in sym.keys})


def _require_involution(inv: Mapping[Key, Key], name: str) -> None:
    """Refuse a map of a fiber's points with a fixed point or one that does
    not square to one, which only a hand-built fiber can carry."""
    for k, img in inv.items():
        if k == img:
            raise ValidationError(f"{name} has a fixed point on this fiber")
        if inv.get(img) != k:
            raise ValidationError(f"{name} does not square to one on this fiber")


def norm(divisor: Divisor, carrier, covering: str) -> Divisor:
    """Push a divisor's weights along a covering.

    ``covering`` selects the projection: "pi" (a cover fiber down to its
    base point), "sigma" (a symmetrized fiber to its involution quotient),
    or "sigma4" (a two-factor product fiber to its paired-involution
    quotient).  Either involution must be fixed-point free and square to
    one.  Quotient points are keyed by the lexicographically smaller orbit
    representative."""
    if covering == "pi":
        if not isinstance(carrier, FiberModel):
            raise ValidationError("the pi covering pushes down a cover fiber")
        _require_support(divisor, carrier.labels)
        total = sum(divisor.get(l) for l in carrier.labels)
        return Divisor({carrier.base_label: total})
    if covering == "sigma":
        if not isinstance(carrier, SymFiber):
            raise ValidationError("the sigma covering pushes down a symmetrized fiber")
        inv, name = carrier.sigma(), "residual involution"
    elif covering == "sigma4":
        if not isinstance(carrier, PairFiber) or carrier.diagonal_removed:
            raise ValidationError("the sigma4 covering pushes down a two-factor product fiber")
        inv, name = carrier.product_involution(), "paired involution"
    else:
        raise ValidationError(f"unknown covering {covering!r}")
    _require_involution(inv, name)
    _require_support(divisor, inv)
    weights: Dict[Key, int] = {}
    for key in inv:
        rep = min(key, inv[key])
        if rep == key:
            weights[rep] = divisor.get(key) + divisor.get(inv[key])
    return Divisor(weights)


def prym_test(family: Iterable[Tuple[object, Divisor]], covering: str) -> bool:
    """True iff the norm vanishes on every fiber of the family."""
    return all(norm(d, carrier, covering).is_zero for carrier, d in family)


class MumfordResult(Record):
    divisor: Divisor
    parity: str  # "even" | "odd"


def mumford_divisor(n: Divisor, sym: SymFiber) -> MumfordResult:
    """N - sigma(N) on a symmetrized fiber; its quotient norm vanishes by
    construction.  The parity of deg(N) is reported, since it selects one
    of the two components downstairs."""
    inv = sym.sigma()
    _require_involution(inv, "residual involution")
    _require_support(n, inv)
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
    _require_involution(inv, "residual involution")
    _require_support(divisor, inv)
    invariant: Dict[Key, int] = {}
    for key in inv:
        avg2 = divisor.get(key) + divisor.get(inv[key])
        invariant[key] = avg2 // 2  # floor for both points of the orbit
    inv_div = Divisor(invariant)
    return inv_div, divisor - inv_div


class TwistLedger(Record):
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
        reg2 = FiberModel.regular("x", ("q1", "q2"))
        rows = []
        for f1 in (FiberModel.regular("x", ("p1", "p2")), FiberModel.generic_branch("x", ("p",))):
            pf = fiber_product(f1, reg2)
            pulled = sum(d.degree() for d in _pulled_back_ramification(pf))
            rows.append((pf.ramification_divisor().degree(), pulled))
        reg, br = rows
        return TwistLedger(
            context="so4",
            columns=("product_ramification", "pulled_back_factors"),
            regular=reg,
            branch=br,
            identity="product_ramification == pulled_back_factors",
            identity_holds=(reg[0] == reg[1] and br[0] == br[1]),
        )
    columns = {
        "sl4": ("pulled_back_ramifications", "pullback_of_sym_ramification", "twice_quotient_ramification"),
        "so6": ("half_pulled_back", "half_sym_pullback", "quotient_ramification"),
    }
    if context not in columns:
        raise ValidationError(f"unknown twist context {context!r}")
    rows = []
    for f in (
        FiberModel.regular("x", ("y1", "y2", "y3", "y4")),
        FiberModel.generic_branch("x", ("y1", "y2", "y3")),
    ):
        pf = self_product_minus_diagonal(f)
        sym = symmetrize(pf)
        lhs = sum(d.degree() for d in _pulled_back_ramification(pf))
        mid = sym.quotient_pullback(sym.ramification_divisor()).degree()
        r0 = sym.quotient_ramification().degree()
        rows.append((lhs, mid, 2 * r0) if context == "sl4" else (lhs // 2, mid // 2, r0))
    reg, br = rows
    return TwistLedger(
        context=context,
        columns=columns[context],
        regular=reg,
        branch=br,
        identity="first == second + third",
        identity_holds=(reg[0] == reg[1] + reg[2] and br[0] == br[1] + br[2]),
    )
