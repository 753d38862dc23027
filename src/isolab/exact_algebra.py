"""Exact scalar, polynomial, and matrix kernels.

The ground field is the rationals (`fractions.Fraction`).  Polynomials are
univariate, but their coefficients may themselves be polynomials in a
strictly lower variable of the fixed tower

    z  <  eta  <  v  <  u  <  x

``z`` is the affine coordinate on the base curve, ``eta`` the spectral
(fiber) variable, and ``v``, ``u``, ``x`` are scratch variables used by
elimination routines.  Every value is immutable and every operation is a
pure function, so everything here is safe to share between threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt, lcm
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
    "fraction_sqrt",
    "ring_is_zero",
    "exact_div",
    "poly_gcd",
    "poly_sqrt",
    "squarefree_part",
    "resultant",
    "discriminant",
    "char_poly",
    "pfaffian",
    "kronecker",
    "exterior_square",
    "evaluate_var",
    "partial_derivative",
]


class ValidationError(ValueError):
    """Raised when an input violates an operation's contract."""


class InternalError(RuntimeError):
    """Raised when an internal consistency check fails (a bug, not bad input)."""


#: Fixed variable tower, innermost first.
VAR_ORDER = {"z": 0, "eta": 1, "v": 2, "u": 3, "x": 4}

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
        return Fraction(value)
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


def _element_vars(elem) -> set:
    if isinstance(elem, UniPoly):
        out = {elem.var}
        for c in elem.coeffs:
            out |= _element_vars(c)
        return out
    return set()


class UniPoly:
    """Dense univariate polynomial, lowest-degree coefficient first.

    Coefficients are Fractions or polynomials in a strictly lower variable
    of the tower; constant sub-polynomials are collapsed on construction so
    that equal values have equal representations.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Iterable = ()):
        if var not in VAR_ORDER:
            raise ValidationError(f"unknown variable {var!r}; expected one of {sorted(VAR_ORDER)}")
        cleaned = []
        for c in coeffs:
            c = self._clean_coeff(var, c)
            cleaned.append(c)
        while cleaned and ring_is_zero(cleaned[-1]):
            cleaned.pop()
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", tuple(cleaned))

    @staticmethod
    def _clean_coeff(var: str, c):
        if isinstance(c, int):
            return Fraction(c)
        if isinstance(c, str):
            return as_fraction(c)
        if isinstance(c, Fraction):
            return c
        if isinstance(c, UniPoly):
            if VAR_ORDER[c.var] >= VAR_ORDER[var]:
                raise ValidationError(
                    f"coefficient in {c.var!r} cannot sit inside a polynomial in {var!r}"
                )
            collapsed = c.constant_value()
            return c if collapsed is None else collapsed
        raise ValidationError(f"bad polynomial coefficient {c!r}")

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

    def constant_value(self):
        """The value of a constant polynomial, or None if non-constant."""
        if self.is_zero:
            return Fraction(0)
        if self.degree == 0:
            return self.coeffs[0]
        return None

    # -- coercion ----------------------------------------------------------

    def _pair(self, other):
        """Lift ``self``/``other`` to polynomials in a common top variable."""
        if isinstance(other, (int, str)):
            other = as_fraction(other)
        if isinstance(other, Fraction):
            return self, UniPoly(self.var, [other])
        if isinstance(other, UniPoly):
            if other.var == self.var:
                return self, other
            if VAR_ORDER[other.var] < VAR_ORDER[self.var]:
                return self, UniPoly(self.var, [other])
            return UniPoly(other.var, [self]), other
        return None

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
        if a.is_zero or b.is_zero:
            return UniPoly(a.var)
        out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, ca in enumerate(a.coeffs):
            if ring_is_zero(ca):
                continue
            for j, cb in enumerate(b.coeffs):
                out[i + j] = out[i + j] + ca * cb
        return UniPoly(a.var, out)

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
        if isinstance(other, (int, str)):
            other = as_fraction(other)
        if isinstance(other, Fraction):
            return self.constant_value() == other
        if isinstance(other, UniPoly):
            if other.var == self.var:
                return self.coeffs == other.coeffs
            mine, theirs = self.constant_value(), other.constant_value()
            if mine is not None or theirs is not None:
                a = mine if mine is not None else self
                b = theirs if theirs is not None else other
                return a == b
            return False
        return NotImplemented

    __hash__ = None

    # -- calculus and substitution -------------------------------------------

    def evaluate(self, value):
        """Horner evaluation; ``value`` may be any ring element."""
        result: Ring = Fraction(0)
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    def derivative(self) -> "UniPoly":
        return UniPoly(self.var, [k * c for k, c in enumerate(self.coeffs)][1:])

    def div_mod(self, other):
        """Long division; raises if a leading-coefficient division is inexact."""
        pair = self._pair(other)
        if pair is None:
            raise ValidationError(f"cannot divide by {other!r}")
        a, b = pair
        if b.is_zero:
            raise ValidationError("polynomial division by zero")
        var = a.var
        q = UniPoly(var)
        r = a
        while not r.is_zero and r.degree >= b.degree:
            step = exact_div(r.lead, b.lead)
            shift = r.degree - b.degree
            mono = UniPoly(var, [Fraction(0)] * shift + [step])
            q = q + mono
            r = r - mono * b
        return q, r

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


def exact_div(a, b):
    """Exact ring division; raises ValidationError if ``b`` does not divide ``a``."""
    if isinstance(a, (int, str)):
        a = as_fraction(a)
    if isinstance(b, (int, str)):
        b = as_fraction(b)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        if b == 0:
            raise ValidationError("division by zero")
        return a / b
    if isinstance(a, Fraction):
        a = UniPoly(b.var, [a])
    if isinstance(b, Fraction):
        if b == 0:
            raise ValidationError("division by zero")
        return a * (Fraction(1) / b)
    q, r = a.div_mod(b)
    if not (r.is_zero or (isinstance(r, UniPoly) and r.is_zero)):
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
    if isinstance(f, UniPoly) and not isinstance(g, UniPoly):
        g = UniPoly(f.var, [as_fraction(g)])
    elif isinstance(g, UniPoly) and not isinstance(f, UniPoly):
        f = UniPoly(g.var, [as_fraction(f)])
    elif not isinstance(f, UniPoly):
        f = UniPoly("z", [as_fraction(f)])
        g = UniPoly("z", [as_fraction(g)])
    if isinstance(f, UniPoly) and isinstance(g, UniPoly) and f.var != g.var:
        lifted = f._pair(g)
        if lifted is None:
            raise ValidationError("incompatible polynomial variables")
        f, g = lifted
    return f, g


def ring_sqrt(elem):
    if isinstance(elem, UniPoly):
        return poly_sqrt(elem)
    return fraction_sqrt(elem)


def poly_sqrt(p: UniPoly) -> UniPoly:
    """Exact polynomial square root; error if the input is not a perfect square."""
    if not isinstance(p, UniPoly):
        return fraction_sqrt(p)
    if p.is_zero:
        return p
    if p.degree % 2 == 1:
        raise ValidationError("odd-degree polynomial is not a perfect square")
    m = p.degree // 2
    top = ring_sqrt(p.lead)
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


def evaluate_var(elem, var: str, value):
    """Substitute ``value`` for ``var`` anywhere in the coefficient tower."""
    if not isinstance(elem, UniPoly):
        return elem
    if elem.var == var:
        return elem.evaluate(value)
    if VAR_ORDER[elem.var] < VAR_ORDER[var]:
        return elem
    return UniPoly(elem.var, [evaluate_var(c, var, value) for c in elem.coeffs])


def partial_derivative(elem, var: str):
    """Partial derivative with respect to one tower variable."""
    if not isinstance(elem, UniPoly):
        return Fraction(0)
    if elem.var == var:
        return elem.derivative()
    if VAR_ORDER[elem.var] < VAR_ORDER[var]:
        return Fraction(0)
    return UniPoly(elem.var, [partial_derivative(c, var) for c in elem.coeffs])


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


# The determinant kernel works on nested coefficient lists: at depth d an
# element is a list, lowest degree first and without trailing zeros, of
# depth d-1 elements in the outermost remaining variable; depth 0 is a
# scalar.  Zero is [] above depth 0.


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _nested(elem, names):
    """``elem`` over the variables ``names`` (outermost first), with
    Fraction leaves."""
    if not names:
        return elem
    if isinstance(elem, UniPoly) and elem.var == names[0]:
        return [_nested(c, names[1:]) for c in elem.coeffs]
    return [] if ring_is_zero(elem) else [_nested(elem, names[1:])]


def _leaves(e, depth: int):
    return [e] if depth == 0 else [x for c in e for x in _leaves(c, depth - 1)]


def _scaled(e, depth: int, mult: int):
    """Fraction leaves times ``mult``, a common multiple of their denominators."""
    if depth == 0:
        return e.numerator * (mult // e.denominator)
    return [_scaled(c, depth - 1, mult) for c in e]


def _from_nested(e, names, scale: int):
    """The tower element of ``e / scale``."""
    if not names:
        return Fraction(e, scale)
    poly = UniPoly(names[0], [_from_nested(c, names[1:], scale) for c in e])
    collapsed = poly.constant_value()
    return poly if collapsed is None else collapsed


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


def _det(rows):
    """Exact determinant over any ring of the tower.  Each row is scaled by
    the lcm of its coefficient denominators, the integer determinant is
    computed by ``_det_int``, and the product of the row scales is divided
    out once at the end."""
    present = set()
    for row in rows:
        for e in row:
            present |= _element_vars(e)
    names = tuple(sorted(present, key=VAR_ORDER.get, reverse=True))
    depth = len(names)
    scale = 1
    int_rows = []
    for row in rows:
        nested = [_nested(e, names) for e in row]
        mult = lcm(*(x.denominator for e in nested for x in _leaves(e, depth)))
        scale *= mult
        int_rows.append([_scaled(e, depth, mult) for e in nested])
    return _from_nested(_det_int(int_rows, depth), names, scale)


class RingMatrix:
    """Immutable rectangular matrix over the scalar/polynomial tower."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        grid = []
        for row in entries:
            grid.append(tuple(self._clean(e) for e in row))
        if not grid:
            raise ValidationError("matrix needs at least one row")
        width = len(grid[0])
        if width == 0 or any(len(r) != width for r in grid):
            raise ValidationError("matrix rows must be non-empty and equal length")
        object.__setattr__(self, "entries", tuple(grid))
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)

    @staticmethod
    def _clean(e):
        if isinstance(e, UniPoly):
            collapsed = e.constant_value()
            return e if collapsed is None else collapsed
        return as_fraction(e) if not isinstance(e, Fraction) else e

    def __setattr__(self, *args):
        raise AttributeError("RingMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "RingMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RingMatrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)])

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

    def row(self, i: int):
        return self.entries[i]

    def column(self, j: int):
        return tuple(r[j] for r in self.entries)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RingMatrix":
        return RingMatrix([[self.entries[i][j] for j in col_idx] for i in row_idx])

    def block(self, r0: int, c0: int, height: int, width: int) -> "RingMatrix":
        return self.submatrix(range(r0, r0 + height), range(c0, c0 + width))

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
        if isinstance(other, RingMatrix):
            if self.cols != other.rows:
                raise ValidationError("matrix shape mismatch in product")
            out = []
            for i in range(self.rows):
                row = []
                for j in range(other.cols):
                    acc: Ring = Fraction(0)
                    for k in range(self.cols):
                        acc = acc + self.entries[i][k] * other.entries[k][j]
                    row.append(acc)
                out.append(row)
            return RingMatrix(out)
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
        work = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(self.entries)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
            if pivot is None:
                raise ValidationError("matrix is singular")
            work[col], work[pivot] = work[pivot], work[col]
            inv = Fraction(1) / work[col][col]
            work[col] = [e * inv for e in work[col]]
            for r in range(n):
                if r != col and work[r][col] != 0:
                    factor = work[r][col]
                    work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
        return RingMatrix([row[n:] for row in work])

    def rref(self):
        """Reduced row echelon form and pivot columns (rational entries)."""
        self._require_rational("row reduction")
        work = [list(row) for row in self.entries]
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot = next((i for i in range(r, self.rows) if work[i][c] != 0), None)
            if pivot is None:
                continue
            work[r], work[pivot] = work[pivot], work[r]
            inv = Fraction(1) / work[r][c]
            work[r] = [e * inv for e in work[r]]
            for i in range(self.rows):
                if i != r and work[i][c] != 0:
                    f = work[i][c]
                    work[i] = [a - f * b for a, b in zip(work[i], work[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return RingMatrix(work), tuple(pivots)

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

    def rank(self) -> int:
        return len(self.rref()[1])

    # -- characteristic polynomial -------------------------------------------

    def char_poly(self) -> UniPoly:
        """det(eta*I - M) through the shared determinant kernel, ``eta``
        outermost; valid over any coefficient ring of the tower below ``eta``."""
        if not self.is_square:
            raise ValidationError("characteristic polynomial requires a square matrix")
        for row in self.entries:
            for e in row:
                bad = {w for w in _element_vars(e) if VAR_ORDER[w] >= VAR_ORDER["eta"]}
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


def discriminant(f: UniPoly):
    """(-1)^(n(n-1)/2) Res(f, f') / lc(f)."""
    if not isinstance(f, UniPoly) or f.degree < 1:
        raise ValidationError("discriminant requires a non-constant polynomial")
    n = f.degree
    deriv = f.derivative()
    if deriv.is_zero:
        raise ValidationError("polynomial derivative vanished unexpectedly")
    res = resultant(f, deriv)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * exact_div(res, f.lead)
