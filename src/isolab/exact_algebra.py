"""Exact scalar, polynomial, and matrix kernels.

The ground field is the rationals (`fractions.Fraction`).  Polynomials are
univariate, but their coefficients may themselves be polynomials in a
strictly lower variable of the fixed tower

    z  <  eta  <  x

``z`` is the affine coordinate on the base curve, ``eta`` the spectral
(fiber) variable, and ``x`` the variable that resultants eliminate.
Every value is immutable and every operation is a pure function, so
everything here is safe to share between threads.

``as_element`` and ``as_poly`` are the only coercions of the tower, and a
constant inside a polynomial is always a ``Fraction``.

Products and linear algebra run on integers.  One entry, ``_int_lines``,
finds the variables that occur in its lines of tower elements and scales
each line by the lcm of its leaf denominators, and one exit,
``_from_nested``, divides a result back.  Between them sit the determinant
(``det``, ``char_poly``, ``resultant``: interpolation down to integer
Bareiss), the products (``_products``: integer dot products, each entry
divided once by its two scales; a polynomial product is its 1x1 case, so
``_mul_into`` is the one convolution) and ``rref`` (fraction-free
Gauss-Jordan, each entry divided once by the last pivot), and through
``rref`` ``inverse`` and ``nullspace``.  ``pairwise_sum_poly`` scales its
variable by the same entry's scale and runs Newton's identities on integer
power sums, with the product's convolution (``_dot``) and the
interpolation's weighted sum (``_combine``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, isqrt, lcm, prod
from operator import mul
from typing import Iterable, Sequence, Union

__all__ = [
    "ValidationError",
    "InternalError",
    "VAR_ORDER",
    "WEDGE_PAIRS",
    "UniPoly",
    "RingMatrix",
    "Ring",
    "as_fraction",
    "as_element",
    "as_poly",
    "fraction_sqrt",
    "ring_is_zero",
    "exact_div",
    "poly_gcd",
    "poly_sqrt",
    "squarefree_part",
    "resultant",
    "pairwise_sum_poly",
    "char_poly",
    "pfaffian",
    "kronecker",
    "exterior_square",
]


class ValidationError(ValueError):
    """Raised when an input violates an operation's contract."""


class InternalError(RuntimeError):
    """Raised when an internal consistency check fails (a bug, not bad input)."""


#: Fixed variable tower, innermost first.
VAR_ORDER = {"z": 0, "eta": 1, "x": 2}

#: Basis order for the second exterior power of a 4-dimensional space:
#: e1^e2, e1^e3, e1^e4, e2^e3, e2^e4, e3^e4 (lexicographic on index pairs).
WEDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

Ring = Union[Fraction, "UniPoly"]


def as_fraction(value) -> Fraction:
    """Coerce an int, ASCII string "p/q" or plain decimal, or Fraction to a
    canonical Fraction; booleans are not scalars, and exponent notation is
    refused so that a short string cannot request a huge integer."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction alone would also read Unicode digits, "_" separators and exponents.
        if not re.fullmatch(r"\s*[+-]?(?:\d+(?:/0*[1-9]\d*)?|\d*\.\d+|\d+\.)\s*", value, re.ASCII):
            hint = " (exponent notation is not accepted)" if "e" in value.lower() else ""
            raise ValidationError(f"not a rational number: {value!r}{hint}")
        try:
            return Fraction(value)
        except ValueError as exc:  # more digits than int() converts
            raise ValidationError(f"rational number too long ({len(value.strip())} characters)") from exc
    raise ValidationError(f"cannot interpret {value!r} as an exact scalar")


def fraction_sqrt(value: Fraction) -> Fraction:
    """Exact square root of a rational; error if it is not a perfect square."""
    value = as_fraction(value)
    if value < 0:
        raise ValidationError(f"{value} has no rational square root")
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValidationError(f"{value} is not a perfect square")
    return Fraction(rn, rd)


def ring_is_zero(elem) -> bool:
    if isinstance(elem, UniPoly):
        return elem.is_zero
    return elem == 0


def as_element(value) -> Ring:
    """The canonical tower element of ``value``: ``as_fraction`` of a scalar,
    the coefficient of a constant polynomial, else the polynomial itself."""
    if isinstance(value, UniPoly):
        return value if len(value.coeffs) > 1 else value.coeff(0)
    return as_fraction(value)


def as_poly(value, var: str) -> "UniPoly":
    """``value`` as a polynomial in ``var``: unchanged if it is one; else its
    ``as_element``, returned when it lives in ``var`` and otherwise made the
    constant term (which raises for an element above ``var``)."""
    if isinstance(value, UniPoly) and value.var != var:
        value = as_element(value)
    if isinstance(value, UniPoly) and value.var == var:
        return value
    return UniPoly(var, [value])


class UniPoly:
    """Dense univariate polynomial, lowest-degree coefficient first.

    Coefficients are Fractions or polynomials in a strictly lower variable
    of the tower; each is stored as its ``as_element``, so that equal
    values have equal representations.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Iterable = ()):
        if var not in VAR_ORDER:
            raise ValidationError(f"unknown variable {var!r}; expected one of {sorted(VAR_ORDER)}")
        cleaned = []
        for c in coeffs:
            if c.__class__ is not Fraction:  # the arithmetic hot path skips the call
                if isinstance(c, UniPoly) and VAR_ORDER[c.var] >= VAR_ORDER[var]:
                    raise ValidationError(f"coefficient in {c.var!r} cannot sit inside a polynomial in {var!r}")
                c = as_element(c)
            cleaned.append(c)
        while cleaned and ring_is_zero(cleaned[-1]):
            cleaned.pop()
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", tuple(cleaned))

    def __setattr__(self, *args):
        raise AttributeError("UniPoly is immutable")

    # -- basic structure ---------------------------------------------------

    @classmethod
    def const(cls, var: str, value) -> "UniPoly":
        return cls(var, [value])

    @classmethod
    def variable(cls, var: str) -> "UniPoly":
        return cls(var, [0, 1])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self):
        if self.is_zero:
            raise ValidationError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    # -- coercion ----------------------------------------------------------

    def _pair(self, other):
        """``self``/``other`` in their common top variable; None outside the tower."""
        if not isinstance(other, _TOWER_TYPES):
            return None
        if isinstance(other, UniPoly) and VAR_ORDER[other.var] > VAR_ORDER[self.var]:
            return as_poly(self, other.var), other
        return self, as_poly(other, self.var)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        n = max(len(a.coeffs), len(b.coeffs))
        return UniPoly(a.var, [a.coeff(k) + b.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.var, [-c for c in self.coeffs])

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        n = max(len(a.coeffs), len(b.coeffs))
        return UniPoly(a.var, [a.coeff(k) - b.coeff(k) for k in range(n)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return as_poly(_products([(a,)], [(b,)])[0][0], a.var)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValidationError("polynomial powers must be non-negative integers")
        result = UniPoly.const(self.var, 1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, UniPoly) and other.var == self.var:
            return self.coeffs == other.coeffs
        if not isinstance(other, _TOWER_TYPES):
            return NotImplemented
        a, b = as_element(self), as_element(other)
        # nothing collapsed: a polynomial against a scalar or one in another variable
        return (a is not self or b is not other) and a == b

    __hash__ = None

    # -- calculus -------------------------------------------------------------

    def derivative(self) -> "UniPoly":
        return UniPoly(self.var, [k * c for k, c in enumerate(self.coeffs)][1:])

    def div_mod(self, other):
        """Long division in place on one coefficient list; raises if a
        leading-coefficient division is inexact."""
        pair = self._pair(other)
        if pair is None:
            raise ValidationError(f"cannot divide by {other!r}")
        a, b = pair
        if b.is_zero:
            raise ValidationError("polynomial division by zero")
        n = len(b.coeffs)
        r = list(a.coeffs)
        q = [Fraction(0)] * max(len(r) - n + 1, 0)
        for shift in range(len(q) - 1, -1, -1):
            step = exact_div(r[shift + n - 1], b.lead)
            if not ring_is_zero(step):
                q[shift] = step
                for j, c in enumerate(b.coeffs):
                    r[shift + j] = r[shift + j] - step * c
        return UniPoly(a.var, q), UniPoly(a.var, r[:n - 1])

    def __str__(self):
        if self.is_zero:
            return "0"
        name = self.var
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if ring_is_zero(c):
                continue
            txt = f"({c})" if isinstance(c, UniPoly) else str(c)
            if k == 0:
                parts.append(txt)
            elif k == 1:
                parts.append(f"{txt}*{name}")
            else:
                parts.append(f"{txt}*{name}^{k}")
        return " + ".join(parts)

    def __repr__(self):
        return f"UniPoly({self.var!r}, {[str(c) for c in self.coeffs]})"


#: Operand types of the tower; any other operand (a matrix) handles the operation.
_TOWER_TYPES = (UniPoly, Fraction, int, str)


def exact_div(a, b):
    """Exact ring division; raises ValidationError if ``b`` does not divide ``a``."""
    a, b = as_element(a), as_element(b)
    if isinstance(b, Fraction):
        if b == 0:
            raise ValidationError("division by zero")
        return a * (1 / b)
    q, r = UniPoly.div_mod(*_as_poly_pair(a, b))
    if not r.is_zero:
        raise ValidationError(f"inexact division: remainder {r}")
    return q


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd over the rationals (field coefficients only)."""
    f, g = _as_poly_pair(f, g)
    for p in (f, g):
        if any(isinstance(c, UniPoly) for c in p.coeffs):
            raise ValidationError("gcd requires rational coefficients")
    a, b = f, g
    while not b.is_zero:
        a, b = b, a.div_mod(b)[1]
    if a.is_zero:
        return a
    return a * (Fraction(1) / a.lead)


def squarefree_part(f: UniPoly) -> UniPoly:
    """f / gcd(f, f'); the product of the distinct irreducible factors."""
    if f.is_zero:
        return f
    if f.degree == 0:
        return UniPoly.const(f.var, 1)
    return exact_div(f, poly_gcd(f, f.derivative()))


def _as_poly_pair(f, g):
    """``f`` and ``g`` in the higher of their variables (``z`` for two scalars)."""
    top = max((e.var for e in (f, g) if isinstance(e, UniPoly)), key=VAR_ORDER.get, default="z")
    return as_poly(f, top), as_poly(g, top)


def poly_sqrt(p: UniPoly) -> UniPoly:
    """Exact polynomial square root; error if the input is not a perfect square."""
    if not isinstance(p, UniPoly):
        return fraction_sqrt(p)
    if p.is_zero:
        return p
    if p.degree % 2 == 1:
        raise ValidationError("odd-degree polynomial is not a perfect square")
    m = p.degree // 2
    top = poly_sqrt(p.lead)
    q = [Fraction(0)] * (m + 1)
    q[m] = top
    for k in range(m - 1, -1, -1):
        # coefficient of x^(m+k) in q^2 is 2*q[m]*q[k] plus fully-known terms
        known: Ring = Fraction(0)
        for i in range(k + 1, m):
            known = known + q[i] * q[m + k - i]
        q[k] = exact_div(p.coeff(m + k) - known, 2 * top)
    root = UniPoly(p.var, q)
    if root * root == p:
        return root
    raise ValidationError("polynomial is not a perfect square")


def _det_bareiss_int(rows):
    """Integer Bareiss; divisions are exact by the Sylvester identity."""
    n = len(rows)
    work = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            for i in range(k + 1, n):
                if work[i][k] != 0:
                    work[k], work[i] = work[i], work[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = work[k][k]
        for i in range(k + 1, n):
            left = work[i][k]
            row_i = work[i]
            row_k = work[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - left * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * work[n - 1][n - 1]


# The integer kernels work on nested coefficient lists: at depth d an
# element is a list, lowest degree first and without trailing zeros, of
# depth d-1 elements in the outermost remaining variable; depth 0 is a
# scalar.  Zero is [] above depth 0.


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _survey(e, found: set) -> int:
    """One walk over the tower element ``e``: adds the variables that occur
    in it to ``found`` and returns the lcm of its leaf denominators."""
    if e.__class__ is not UniPoly:
        return e.denominator
    found.add(e.var)
    return lcm(*(_survey(c, found) if c.__class__ is UniPoly else c.denominator for c in e.coeffs))


def _scaled(e, names, mult: int):
    """The nested integer element of ``e`` times ``mult`` over the nonempty
    ``names`` (outermost first); ``mult`` is a multiple of every leaf
    denominator."""
    rest = names[1:]
    if e.__class__ is UniPoly and e.var == names[0]:
        if rest:
            return [_scaled(c, rest, mult) for c in e.coeffs]
        return [c.numerator * (mult // c.denominator) for c in e.coeffs]
    if ring_is_zero(e):
        return []
    return [_scaled(e, rest, mult) if rest else e.numerator * (mult // e.denominator)]


def _from_nested(e, names, scale: int):
    """The tower element of ``e / scale``."""
    if not names:
        return Fraction(e, scale)
    return as_element(UniPoly(names[0], [_from_nested(c, names[1:], scale) for c in e]))


def _combine(polys, weights, depth: int):
    """sum_k weights[k] * polys[k] over integer elements of ``depth``."""
    if depth == 0:
        return sum(map(mul, polys, weights))
    zero = 0 if depth == 1 else []
    width = max(map(len, polys), default=0)
    return _trim([
        _combine([p[j] if j < len(p) else zero for p in polys], weights, depth - 1)
        for j in range(width)
    ])


def _interpolate(nodes, values, depth: int):
    """The integer element of ``depth`` whose outermost variable takes
    ``values`` at ``nodes``, by Newton divided differences.  Every division
    is exact: the divided differences of a polynomial with integer
    coefficients at integer nodes are integers.  Above depth 1 each
    coefficient of the next variable is interpolated on its own."""
    if depth > 1:
        zero = 0 if depth == 2 else []
        width = max(map(len, values))
        columns = [
            _interpolate(nodes, [v[j] if j < len(v) else zero for v in values], depth - 1)
            for j in range(width)
        ]
        height = max(map(len, columns), default=0)
        return _trim([
            _trim([c[k] if k < len(c) else zero for c in columns]) for k in range(height)
        ])
    n = len(nodes)
    table = list(values)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            table[i] = (table[i] - table[i - 1]) // (nodes[i] - nodes[i - j])
    coeffs = [table[-1]]
    for i in range(n - 2, -1, -1):
        node = nodes[i]
        coeffs = [hi - node * lo for hi, lo in zip([table[i]] + coeffs, coeffs + [0])]
    return _trim(coeffs)


def _det_int(rows, depth: int):
    """Determinant of a matrix of integer elements of ``depth``: evaluate
    the outermost variable at the nodes 0, 1, -1, 2, ..., recurse, and
    interpolate.  The degree bound is the row-wise sum of maximal entry
    degrees, which dominates every term of the Leibniz expansion."""
    if depth == 0:
        return _det_bareiss_int(rows)
    bound = sum(max(max(map(len, row)), 1) - 1 for row in rows)
    nodes = [(k + 1) // 2 * (1 if k % 2 else -1) for k in range(bound + 1)]
    width = max(len(e) for row in rows for e in row)
    values = []
    for node in nodes:
        powers = [node**k for k in range(width)]
        evaluated = [[_combine(e, powers, depth - 1) for e in row] for row in rows]
        values.append(_det_int(evaluated, depth - 1))
    return _interpolate(nodes, values, depth)


def _int_lines(lines):
    """The single entry into the integer kernels: the variables of the tower
    that occur in ``lines``, outermost first, and each line as nested integer
    elements over them with its scale, the lcm of the line's leaf
    denominators (the elements are the line times its scale)."""
    found = set()
    mults = [
        lcm(*(_survey(e, found) if e.__class__ is UniPoly else e.denominator for e in line))
        for line in lines
    ]
    names = tuple(sorted(found, key=VAR_ORDER.get, reverse=True))
    if not names:  # a rational line is its own list of leaves
        return names, [
            ([e.numerator * (m // e.denominator) for e in line], m) for line, m in zip(lines, mults)
        ]
    return names, [([_scaled(e, names, m) for e in line], m) for line, m in zip(lines, mults)]


def _det(rows):
    """Exact determinant over any ring of the tower.  The rows are scaled by
    ``_int_lines``, the integer determinant is computed by ``_det_int``,
    and the product of the row scales is divided out once at the end."""
    names, lines = _int_lines(rows)
    scale = prod(m for _, m in lines)
    return _from_nested(_det_int([line for line, _ in lines], len(names)), names, scale)


def _mul_into(acc: list, a: list, b: list, depth: int):
    """``acc += a * b`` in place over integer elements of ``depth`` >= 1;
    ``acc`` may keep trailing zeros."""
    grow = len(a) + len(b) - 1 - len(acc)
    if depth == 1:
        acc.extend([0] * grow)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    acc[i + j] += x * y
        return
    acc.extend([] for _ in range(grow))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    _mul_into(acc[i + j], x, y, depth - 1)


def _dot(r, c, depth: int):
    """sum_k r[k] * c[k] over integer elements of ``depth``."""
    if depth == 0:
        return sum(map(mul, r, c))
    acc = []
    for a, b in zip(r, c):
        if a and b:
            _mul_into(acc, a, b, depth)
    return acc


def _products(rows, cols):
    """The table of dot products of ``rows`` with ``cols``, two sequences of
    equal-length lines of tower elements: the lines are scaled to integers
    by ``_int_lines``, and each entry is one integer dot product divided by
    its two scales.  A polynomial product is the 1x1 table of ``(a,)`` and
    ``(b,)``, a matrix product that of the rows and the columns."""
    names, lines = _int_lines([*rows, *cols])
    depth = len(names)
    int_rows, int_cols = lines[:len(rows)], lines[len(rows):]
    return [
        [_from_nested(_dot(r, c, depth), names, rs * cs) for c, cs in int_cols]
        for r, rs in int_rows
    ]


def _rref_int(rows):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of integer rows.

    Returns the reduced rows, the pivot columns and the last pivot ``d``;
    the reduced row echelon form is the reduced rows divided by ``d``.
    After t pivots every pivot equals the t x t pivot minor, the rows below
    hold (t+1)x(t+1) minors and the rows above t x t minors, so each ``//``
    by the previous pivot is exact by Sylvester's identity."""
    work = [list(r) for r in rows]
    height = len(work)
    pivots = []
    prev = 1
    for c in range(len(work[0])):
        r = len(pivots)
        found = next((i for i in range(r, height) if work[i][c]), None)
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        row_r = work[r]
        pivot = row_r[c]
        for i in range(height):
            if i != r:
                f = work[i][c]
                work[i] = [(pivot * a - f * b) // prev for a, b in zip(work[i], row_r)]
        pivots.append(c)
        prev = pivot
    return work, tuple(pivots), prev


class RingMatrix:
    """Immutable rectangular matrix over the scalar/polynomial tower."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        grid = []
        for row in entries:
            grid.append(tuple(e if e.__class__ is Fraction else as_element(e) for e in row))
        if not grid:
            raise ValidationError("matrix needs at least one row")
        width = len(grid[0])
        if width == 0 or any(len(r) != width for r in grid):
            raise ValidationError("matrix rows must be non-empty and equal length")
        object.__setattr__(self, "entries", tuple(grid))
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, *args):
        raise AttributeError("RingMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "RingMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values: Sequence) -> "RingMatrix":
        n = len(values)
        return cls([[values[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)])

    @classmethod
    def antidiagonal(cls, values: Sequence) -> "RingMatrix":
        n = len(values)
        return cls([[values[i] if j == n - 1 - i else Fraction(0) for j in range(n)] for i in range(n)])

    # -- access ------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def block(self, r0: int, c0: int, height: int, width: int) -> "RingMatrix":
        return RingMatrix([[self.entries[i][j] for j in range(c0, c0 + width)] for i in range(r0, r0 + height)])

    def map_entries(self, fn) -> "RingMatrix":
        return RingMatrix([[fn(e) for e in row] for row in self.entries])

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValidationError("matrix shape mismatch in addition")
        return RingMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __sub__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self.map_entries(lambda e: -e)

    def scale(self, s) -> "RingMatrix":
        return self.map_entries(lambda e: e * s)

    def __mul__(self, other):
        """Matrix product: ``_products`` of the rows of ``self`` and the
        columns of ``other``."""
        if isinstance(other, RingMatrix):
            if self.cols != other.rows:
                raise ValidationError("matrix shape mismatch in product")
            return RingMatrix(_products(self.entries, list(zip(*other.entries))))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            a == b for r1, r2 in zip(self.entries, other.entries) for a, b in zip(r1, r2)
        )

    __hash__ = None

    def transpose(self) -> "RingMatrix":
        return RingMatrix([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def trace(self):
        if not self.is_square:
            raise ValidationError("trace requires a square matrix")
        acc: Ring = Fraction(0)
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(ring_is_zero(e) for row in self.entries for e in row)

    def is_symmetric(self) -> bool:
        return self.is_square and self == self.transpose()

    def is_antisymmetric(self) -> bool:
        return self.is_square and (self + self.transpose()).is_zero()

    # -- linear algebra over the rationals ----------------------------------

    def _require_rational(self, what: str):
        if any(isinstance(e, UniPoly) for row in self.entries for e in row):
            raise ValidationError(f"{what} requires rational entries")

    def det(self):
        if not self.is_square:
            raise ValidationError("determinant requires a square matrix")
        return _det(self.entries)

    def inverse(self) -> "RingMatrix":
        self._require_rational("matrix inversion")
        if not self.is_square:
            raise ValidationError("inverse requires a square matrix")
        n = self.rows
        ident = RingMatrix.identity(n).entries
        reduced, pivots = RingMatrix([row + ident[i] for i, row in enumerate(self.entries)]).rref()
        if pivots != tuple(range(n)):
            raise ValidationError("matrix is singular")
        return reduced.block(0, n, n, n)

    def rref(self):
        """Reduced row echelon form and pivot columns (rational entries), by
        fraction-free elimination of the integer-scaled rows."""
        self._require_rational("row reduction")
        work, pivots, d = _rref_int([line for line, _ in _int_lines(self.entries)[1]])
        return RingMatrix([[Fraction(a, d) for a in row] for row in work]), pivots

    def nullspace(self):
        """Canonical rational kernel basis: unit in each free column."""
        reduced, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            vec = [Fraction(0)] * self.cols
            vec[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                vec[pc] = -reduced.entries[r][fc]
            basis.append(tuple(vec))
        return basis

    # -- characteristic polynomial -------------------------------------------

    def char_poly(self) -> UniPoly:
        """det(eta*I - M) through the shared determinant kernel, ``eta``
        outermost; valid over any coefficient ring of the tower below ``eta``."""
        if not self.is_square:
            raise ValidationError("characteristic polynomial requires a square matrix")
        found = set()
        for row in self.entries:
            for e in row:
                _survey(e, found)
                bad = {w for w in found if VAR_ORDER[w] >= VAR_ORDER["eta"]}
                if bad:
                    raise ValidationError(
                        f"matrix entries must live below the spectral variable, found {sorted(bad)}"
                    )
        return _det([
            [UniPoly("eta", [-e, 1]) if i == j else -e for j, e in enumerate(row)]
            for i, row in enumerate(self.entries)
        ])

    def __repr__(self):
        body = "; ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)
        return f"RingMatrix({self.rows}x{self.cols}: {body})"


def char_poly(matrix: RingMatrix) -> UniPoly:
    return matrix.char_poly()


def pfaffian(matrix: RingMatrix):
    """Pfaffian by first-row expansion; convention Pf([[0, c], [-c, 0]]) = c."""
    if not matrix.is_square:
        raise ValidationError("pfaffian requires a square matrix")
    n = matrix.rows
    if n % 2 != 0:
        raise ValidationError("pfaffian requires even size")
    if not matrix.is_antisymmetric():
        raise ValidationError("pfaffian requires an antisymmetric matrix")

    entries = matrix.entries

    def expand(ids):
        if not ids:
            return Fraction(1)
        i0 = ids[0]
        total: Ring = Fraction(0)
        for t in range(1, len(ids)):
            j = ids[t]
            if ring_is_zero(entries[i0][j]):
                continue
            rest = ids[1:t] + ids[t + 1:]
            term = entries[i0][j] * expand(rest)
            total = total + term if t % 2 == 1 else total - term
        return total

    return expand(tuple(range(n)))


def kronecker(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """Kronecker product in the lexicographic tensor basis e_i (x) e_j."""
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            row = []
            for j in range(a.cols):
                for l in range(b.cols):
                    row.append(a.entries[i][j] * b.entries[k][l])
            out.append(row)
    return RingMatrix(out)


def exterior_square(m: RingMatrix) -> RingMatrix:
    """Induced map on the second exterior power of a 4-dimensional space,
    in the fixed wedge basis; entries are the 2x2 minors of ``m``."""
    if (m.rows, m.cols) != (4, 4):
        raise ValidationError("exterior square is implemented for 4x4 matrices")
    out = []
    for (i, j) in WEDGE_PAIRS:
        row = []
        for (k, l) in WEDGE_PAIRS:
            row.append(m.entries[i][k] * m.entries[j][l] - m.entries[i][l] * m.entries[j][k])
        out.append(row)
    return RingMatrix(out)


def _sylvester(f: UniPoly, g: UniPoly) -> list:
    m, n = f.degree, g.degree
    size = m + n
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for shift in range(n):
        rows.append([Fraction(0)] * shift + fc + [Fraction(0)] * (size - shift - m - 1))
    for shift in range(m):
        rows.append([Fraction(0)] * shift + gc + [Fraction(0)] * (size - shift - n - 1))
    return rows


def resultant(f: UniPoly, g: UniPoly, var: str = None):
    """Resultant in the eliminated indeterminate ``var`` (default: the
    polynomials' shared top variable), via the Sylvester determinant."""
    f, g = _as_poly_pair(f, g)
    if var is not None and f.var != var:
        raise ValidationError(
            f"resultant eliminates {var!r} but the polynomials live in {f.var!r}"
        )
    if f.is_zero or g.is_zero:
        raise ValidationError("resultant requires nonzero polynomials")
    m, n = f.degree, g.degree
    if m == 0 and n == 0:
        return Fraction(1)
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    return _det(_sylvester(f, g))


def _quo(e, k: int, depth: int):
    """``e // k`` leaf by leaf; the callers divide only where ``k`` divides
    every leaf."""
    if depth == 0:
        return e // k
    return [_quo(c, k, depth - 1) for c in e]


def _power_sums(c, count: int, depth: int):
    """[None, p_1, .., p_count]: the power sums of the roots of the monic
    integer polynomial v^n + c[1] v^(n-1) + ... + c[n] (``c[0]`` unused), by
    Newton's identities p_k = -(k c_k + sum_(0<i<k) c_i p_(k-i))."""
    zero = 0 if depth == 0 else []
    c = list(c) + [zero] * (count + 1 - len(c))
    p = [None]
    for k in range(1, count + 1):
        p.append(_combine([_dot(c[1:k], p[k - 1:0:-1], depth), c[k]], [-1, -k], depth))
    return p


def _from_power_sums(s, depth: int):
    """[None, c_1, .., c_m] of the monic polynomial whose roots have the
    power sums ``s`` = [None, s_1, .., s_m]: the same identities solved for
    c_k = -(s_k + sum_(0<i<k) c_i s_(k-i)) / k, each division exact for
    integer symmetric functions."""
    c = [None]
    for k in range(1, len(s)):
        c.append(_quo(_combine([_dot(c[1:k], s[k - 1:0:-1], depth), s[k]], [-1, -1], depth), k, depth))
    return c


def pairwise_sum_poly(f: UniPoly) -> UniPoly:
    """The monic polynomial, in the variable of ``f``, whose roots are the
    pairwise sums lambda_a + lambda_b (a < b) of the roots of the monic
    ``f``, over any coefficient ring of the tower: the naive composed sum of
    Bostan, Flajolet, Salvy and Schost (2006), on integers.

    With c_k the coefficient of v^(n-k) in ``f`` and L the ``_int_lines``
    scale of c_1..c_n, the roots mu = L lambda are those of the monic
    integer polynomial with coefficients L^k c_k.  Newton's identities give
    its power sums p_k; the pairwise sums of the mu have the power sums
    S_k = (sum_j C(k, j) p_j p_(k-j) - 2^k p_k) / 2 (all ordered pairs,
    minus the equal-index terms, halved), and the identities solved for the
    coefficients rebuild the result.  Its coefficient k is divided by L^k
    once.  Every intermediate value is an integer symmetric function of the
    mu, so the halving and each division by k are exact."""
    if f.is_zero or f.lead != 1:
        raise ValidationError("pairwise root sums require a monic polynomial")
    n = f.degree
    m = n * (n - 1) // 2
    tail = f.coeffs[-2::-1]  # c_1, .., c_n
    names, [(line, scale)] = _int_lines([tail])
    depth = len(names)
    # line[k] is L c_(k+1); the scaled polynomial needs L^(k+1) c_(k+1)
    c = [None] + [_combine([e], [scale**k], depth) for k, e in enumerate(line)]
    p = _power_sums(c, m, depth)
    # the terms j = 0 and j = k of the binomial sum are n p_k each, p_0 = n
    s = [None] + [
        _quo(_combine(
            [_dot([p[j]], [p[k - j]], depth) for j in range(1, k)] + [p[k]],
            [comb(k, j) for j in range(1, k)] + [2 * n - 2**k],
            depth,
        ), 2, depth)
        for k in range(1, m + 1)
    ]
    e = _from_power_sums(s, depth)
    return UniPoly(f.var, [_from_nested(e[k], names, scale**k) for k in range(m, 0, -1)] + [Fraction(1)])
