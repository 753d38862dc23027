"""Exact scalar, polynomial, and matrix kernels.

The ground field is the rationals (`fractions.Fraction`).  Polynomials are
univariate, but their coefficients may themselves be polynomials in a
strictly lower variable of the fixed tower

    z  <  eta  <  x

``z`` is the affine coordinate on the base curve, ``eta`` the spectral
(fiber) variable, and ``x`` the variable that resultants eliminate.
Every value is immutable and every operation is a pure function, so
everything here is safe to share between threads.  ``Record``, the frozen
base class of the value types that the other modules return, and
``ValidationError``, the one error isolab raises for input outside an
operation's contract, live in the package root, which defines them without
loading this module; they are re-exported here.  The verify suite, not
each call, checks results.

``as_element`` and ``as_poly`` are the only coercions of the tower, and a
constant inside a polynomial is always a ``Fraction``.

Products and linear algebra run on Kronecker-packed integers (Harvey 2009).
One entry, ``_survey``, walks the lines of tower elements once: it finds
the variables that occur, scales each line by the lcm of its leaf
denominators and bounds its coefficients and degrees.  ``_pack`` then sets
each variable to a power of two, so an element times its scale becomes one
int, and one exit, ``_unpack``, reads a result back as signed digits and
divides it by its scale.  Each kernel proves a bound on its result's
coefficients and degrees from the survey, and the slots are one bit wider
than the first and as many as the second needs.  Between entry and exit sit
the public product table ``products`` (one integer dot product per entry; a
polynomial product and each base map of ``spectral_base`` are 1x1 and 1xn
cases), the determinant (``det``, ``resultant`` and ``char_poly``, which
packs ``eta`` on the diagonal; one integer Bareiss elimination),
``exterior_square`` (one integer 2x2 minor per entry), ``pfaffian`` (the
first-row expansion on the packed entries), ``_rref_int`` (fraction-free
Gauss-Jordan under ``inverse``, ``nullspace`` and ``eigenvectors``, which
divide only the entries they return by the last pivot) and
``pairwise_sum_poly`` (Newton's identities as plain integer loops).

A rational ``RingMatrix`` stays in the integer form between calls: it
stores each row as ints over one denominator (see its docstring), which
its kernels read and return without the entry or the exit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, gcd, isqrt, lcm, prod
from operator import add, mul
from typing import Iterable, Sequence, Union

from . import Record, ValidationError

__all__ = [
    "ValidationError",
    "Record",
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
    "products",
    "poly_sqrt",
    "squarefree_part",
    "resultant",
    "pairwise_sum_poly",
    "char_poly",
    "pfaffian",
    "kronecker",
    "exterior_square",
]


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
    return not elem


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

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return UniPoly, (self.var, self.coeffs)

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
        return as_poly(products([(a,)], [(b,)])[0][0], a.var)

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
_ETA = UniPoly.variable("eta")  # ``char_poly`` appends it to each row it surveys


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


def _det_bareiss(rows, names, shifts: dict, scales):
    """The tail of each determinant: integer Bareiss on the packed ``rows``
    (exact divisions by the Sylvester identity), read back with prod(scales)."""
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
                return Fraction(0)
        pivot = work[k][k]
        for i in range(k + 1, n):
            left = work[i][k]
            row_i = work[i]
            row_k = work[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - left * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return _unpack(sign * work[n - 1][n - 1], names, shifts, prod(scales))


#: Classes of a line entry that ``_survey`` reads as a leaf without a walk.
_LEAVES = frozenset((Fraction, int))


def _walk(p, acc, found: set) -> int:
    """One walk over the polynomial ``p``: adds the variables inside it to
    ``found`` and the absolute values of its leaf numerators to ``acc[-1]``,
    raises ``acc[VAR_ORDER[v]]`` to the degree in ``v`` of each polynomial in
    ``v`` inside it, and returns the lcm of its leaf denominators."""
    found.add(p.var)
    level, coeffs = VAR_ORDER[p.var], p.coeffs
    if len(coeffs) > acc[level] + 1:
        acc[level] = len(coeffs) - 1
    total, dens = 0, []
    for c in coeffs:
        if c.__class__ is Fraction:
            total += abs(c.numerator)
            dens.append(c.denominator)
        else:
            dens.append(_walk(c, acc, found))
    acc[-1] += total
    return lcm(*dens)


def _survey(lines):
    """The single entry into the integer kernels, one walk over ``lines`` of
    Fractions, ints and polynomials: the variables that occur in them,
    outermost first, each line's scale, the lcm of its leaf denominators,
    and, when there are variables, an accumulator for each line: its degree
    in each variable ``v`` at ``VAR_ORDER[v]``, and last its bound, the scale
    times the sum of the absolute values of its leaf numerators, which is at
    least the l1 norm of the line times its scale."""
    found, scales, accs = set(), [], []
    for line in lines:
        acc = [0, 0, 0, 0]
        scales.append(lcm(*[e.denominator if e.__class__ in _LEAVES else _walk(e, acc, found) for e in line]))
        accs.append(acc)
    if not found:
        return (), scales, None
    for line, scale, acc in zip(lines, scales, accs):
        acc[-1] = scale * (acc[-1] + sum([abs(e.numerator) for e in line if e.__class__ is not UniPoly]))
    return tuple(sorted(found, key=VAR_ORDER.get, reverse=True)), scales, accs


def _shifts(names, bound: int, degrees) -> dict:
    """Kronecker substitution (Harvey 2009): the shift of each variable of
    ``names`` (outermost first) that ``_pack`` sets it to 2 to the power of,
    for results whose coefficients are at most ``bound`` in absolute value
    and whose degree in each variable ``v`` is at most ``degrees[VAR_ORDER[v]]``.
    The innermost shift, the slot, is one bit wider than ``bound``, for the
    sign, and each outer one is the shift inside it times the degree plus one
    of the variable inside it."""
    shifts, shift = {}, bound.bit_length() + 1
    for name in reversed(names):
        shifts[name] = shift
        shift *= degrees[VAR_ORDER[name]] + 1
    return shifts


def _pack(e, shifts: dict, scale: int) -> int:
    """The int of ``e`` times ``scale``, a multiple of its leaf denominators,
    with each variable set to 2 to the power of its shift: a constant packs to
    itself, a polynomial to its value there."""
    if e.__class__ is not UniPoly:
        return e.numerator * (scale // e.denominator)
    shift, acc = shifts[e.var], 0
    for c in reversed(e.coeffs):
        acc = (acc << shift) + (
            c.numerator * (scale // c.denominator) if c.__class__ is Fraction else _pack(c, shifts, scale)
        )
    return acc


def _unpack(n: int, names, shifts: dict, scale: int):
    """The tower element that ``_pack`` takes to ``n`` with ``scale``, over
    the variables ``names`` (outermost first), read as signed digits, when
    its coefficients and degrees are within the bounds that ``_shifts`` was
    given.  Then each coefficient of the innermost variable is below half its
    slot, so each packed coefficient of an outer variable is below half of
    its own slots too, and every digit is read exactly."""
    if not names:
        return Fraction(n, scale)
    rest, shift = names[1:], shifts[names[0]]
    half = 1 << (shift - 1)
    mask = (half << 1) - 1
    digits = []
    while n:
        digit = ((n + half) & mask) - half
        digits.append(_unpack(digit, rest, shifts, scale) if rest else Fraction(digit, scale))
        n = (n - digit) >> shift
    if len(digits) > 1:
        return UniPoly(names[0], digits)
    return digits[0] if digits else Fraction(0)  # a constant in names[0]


def _det_shifts(names, accs) -> dict:
    """Shifts for a determinant: the Leibniz expansion takes one entry from
    each row, so each coefficient is at most the product of the row bounds,
    and each degree at most the sum of the row degrees."""
    return _shifts(names, prod(acc[-1] for acc in accs), [sum(a) for a in zip(*accs)]) if names else {}


def _det(rows):
    """Exact determinant over any ring of the tower: each row packed once with
    its ``_survey`` scale (a rational row to its scaled numerators)."""
    names, scales, accs = _survey(rows)
    shifts = _det_shifts(names, accs)
    return _det_bareiss([[_pack(e, shifts, s) for e in row] for row, s in zip(rows, scales)], names, shifts, scales)


def products(rows, cols):
    """The table of dot products of ``rows`` with ``cols``, two sequences of
    equal-length lines of tower elements: each line is packed once by
    ``_pack`` with its ``_survey`` scale, and each entry is one integer dot
    product, read back by ``_unpack`` and divided by its two scales.  Each
    coefficient of an entry is at most the largest row bound times the
    largest column bound, and its degree in each variable at most the largest
    row degree plus the largest column degree in it.  An entry that is not a
    Fraction, int or polynomial is read by ``as_element``.  A polynomial
    product is the 1x1 table of ``(a,)`` and ``(b,)``, a product of matrices
    with a polynomial entry that of the rows and the columns."""
    lines = [*rows, *cols]
    try:
        names, scales, accs = _survey(lines)
    except AttributeError:  # an entry outside the classes that the survey reads
        lines = [[as_element(e) for e in line] for line in lines]
        names, scales, accs = _survey(lines)
    n, shifts = len(rows), {}
    if names:  # with no rows or no columns there is no entry, and any shifts do
        row, col = accs[0], accs[-1]
        for acc in accs[1:n]:
            row = [a if a > b else b for a, b in zip(row, acc)]
        for acc in accs[n:-1]:
            col = [a if a > b else b for a, b in zip(col, acc)]
        shifts = _shifts(names, row[-1] * col[-1], list(map(add, row, col)))
    packed = [[_pack(e, shifts, scale) for e in line] for line, scale in zip(lines, scales)]
    return [
        [_unpack(sum(map(mul, r, c)), names, shifts, rs * cs) for c, cs in zip(packed[n:], scales[n:])]
        for r, rs in zip(packed[:n], scales[:n])
    ]


def _rref_int(rows):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of integer rows,
    such as the stored rows of a rational matrix.

    Returns the reduced rows, the pivot columns and the last pivot ``d``;
    the reduced row echelon form is the reduced rows divided by ``d``.
    After t pivots every pivot equals the t x t pivot minor, the rows below
    hold (t+1)x(t+1) minors and the rows above t x t minors, so each ``//``
    by the previous pivot is exact by Sylvester's identity."""
    work, pivots, prev = list(rows), [], 1
    for c in range(len(work[0])):
        r = len(pivots)
        found = next((i for i in range(r, len(work)) if work[i][c]), None)
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        row_r = work[r]
        pivot = row_r[c]
        for i in range(len(work)):
            if i != r:
                f = work[i][c]
                work[i] = [(pivot * a - f * b) // prev for a, b in zip(work[i], row_r)]
        pivots.append(c)
        prev = pivot
    return work, tuple(pivots), prev


def _kernel(rows):
    """The kernel of integer ``rows``, one int vector over the last pivot ``d``
    per free column (``d`` there, minus its reduced entry at each pivot), and ``d``."""
    work, pivots, d = _rref_int(rows)
    basis = []
    for fc in (c for c in range(len(work[0])) if c not in pivots):
        at_pivots = {pc: -row[fc] for row, pc in zip(work, pivots)}
        basis.append([d if c == fc else at_pivots.get(c, 0) for c in range(len(work[0]))])
    return basis, d


def _check_shape(grid):
    if not grid:
        raise ValidationError("matrix needs at least one row")
    if not grid[0] or any(len(r) != len(grid[0]) for r in grid):
        raise ValidationError("matrix rows must be non-empty and equal length")
    return grid


def _from_rows(lines, dens) -> "RingMatrix":
    """The rational matrix of the int ``lines[i]`` over the nonzero int
    ``dens[i]``, each row divided by the gcd of its ints and its denominator,
    signed so that the denominator is positive (a zero row is 0 over 1)."""
    ints, out = [], []
    for line, d in zip(lines, dens):
        g = gcd(d, *line) if d > 0 else -gcd(d, *line)
        ints.append(tuple(line) if g == 1 else tuple([x // g for x in line]))
        out.append(d // g)
    return RingMatrix.__new__(RingMatrix)._store(None, tuple(ints), tuple(out))


class RingMatrix:
    """Immutable rectangular matrix over the scalar/polynomial tower.

    A rational matrix stores only integer rows: row i is the ints
    ``_ints[i]`` over ``_dens[i] > 0``, the lcm of its denominators (its
    ``_survey`` scale), so the two have no common factor.  The form is
    unique, so ``==`` is structural, and ``entries`` builds the ``Fraction``s
    on each read without keeping them.  Its kernels read rows and return
    rows.  A matrix with a polynomial entry stores ``entries`` in ``_grid``
    and crosses in through ``_survey`` and ``_pack``.  The rows are the
    depth-0 case of a stored packed line: a polynomial row would keep its
    packed ints over its scale, with the bound and degrees that fix its
    slots, so each kernel keeps one body."""

    __slots__ = ("rows", "cols", "_grid", "_ints", "_dens")

    def __init__(self, entries: Iterable[Iterable]):
        grid = _check_shape([[e if e.__class__ is Fraction else as_element(e) for e in row] for row in entries])
        try:
            pairs = [[e.as_integer_ratio() for e in row] for row in grid]
        except AttributeError:  # a polynomial entry
            self._store(tuple(map(tuple, grid)), None, None)
            return
        dens = [lcm(*[q for _, q in row]) for row in pairs]
        self._store(None, tuple(tuple([p * (d // q) for p, q in row]) for row, d in zip(pairs, dens)), tuple(dens))

    def _store(self, grid, ints, dens):
        lines = grid or ints
        for name, value in zip(self.__slots__, (len(lines), len(lines[0]), grid, ints, dens)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, *args):
        raise AttributeError("RingMatrix is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return RingMatrix, (self.entries,)

    @property
    def entries(self):
        """The rows of tower elements; a rational matrix builds them on each read."""
        if self._ints is None:
            return self._grid
        return tuple(tuple([Fraction(x, d) for x in row]) for row, d in zip(self._ints, self._dens))

    def _over(self):
        """The integer rows over L, the lcm of the row denominators, and L."""
        big = lcm(*self._dens)
        return [r if d == big else [x * (big // d) for x in r] for r, d in zip(self._ints, self._dens)], big

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

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def block(self, r0: int, c0: int, height: int, width: int) -> "RingMatrix":
        return self.linear_image(lambda a: [[a[i][j] for j in range(c0, c0 + width)] for i in range(r0, r0 + height)])

    def map_entries(self, fn) -> "RingMatrix":
        return RingMatrix([[fn(e) for e in row] for row in self.entries])

    def linear_image(self, fn) -> "RingMatrix":
        """The matrix of the rows ``fn(entries)`` for an ``fn`` linear in the
        entries with integer coefficients; over Q ``fn`` maps the stored rows
        over their lcm L, and its image is over L."""
        if self._ints is None:
            return RingMatrix(fn(self._grid))
        lines, big = self._over()
        rows = _check_shape(fn(lines))
        return _from_rows(rows, [big] * len(rows))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValidationError("matrix shape mismatch in addition")
        if self._ints is None or other._ints is None:
            return RingMatrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)])
        dens = list(map(lcm, self._dens, other._dens))
        rows = zip(self._ints, other._ints, self._dens, other._dens, dens)
        return _from_rows([[a * (n // d) + b * (n // e) for a, b in zip(r, s)] for r, s, d, e, n in rows], dens)

    def __sub__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self.map_entries(lambda e: -e) if self._ints is None else self.scale(-1)

    def scale(self, s) -> "RingMatrix":
        if self._ints is None or not isinstance(s, (int, Fraction)):
            return self.map_entries(lambda e: e * s)
        return self.scaled_rows(range(self.rows), [s] * self.rows)

    def scaled_rows(self, order, factors) -> "RingMatrix":
        """A monomial matrix times ``self``: row r is row ``order[r]`` times the
        int or ``Fraction`` ``factors[r]``, over Q its stored ints times the
        factor's numerator over its denominator times the factor's."""
        self._require_rational("row scaling")
        picked = [(self._ints[i], self._dens[i], f) for i, f in zip(order, factors)]
        if not picked:
            raise ValidationError("matrix needs at least one row")
        return _from_rows([[x * f.numerator for x in r] for r, _, f in picked], [d * f.denominator for _, d, f in picked])

    def __mul__(self, other):
        """Matrix product: over Q row i is the dot products of row i of
        ``self`` with the columns of ``other`` over the lcm L of its row
        denominators, over d_i L; else ``products`` of rows and columns."""
        if not isinstance(other, RingMatrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValidationError("matrix shape mismatch in product")
        if self._ints is None or other._ints is None:
            return RingMatrix(products(self.entries, list(zip(*other.entries))))
        lines, big = other._over()
        cols = list(zip(*lines))
        return _from_rows([[sum(map(mul, r, c)) for c in cols] for r in self._ints], [d * big for d in self._dens])

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if self._ints is None or other._ints is None:  # a polynomial entry equals no Fraction
            return self._grid == other._grid
        return self._ints == other._ints and self._dens == other._dens

    __hash__ = None

    def transpose(self) -> "RingMatrix":
        if self._ints is None:
            return RingMatrix(list(zip(*self._grid)))
        lines, big = self._over()
        return _from_rows(list(zip(*lines)), [big] * self.cols)

    def trace(self):
        if not self.is_square:
            raise ValidationError("trace requires a square matrix")
        if self._ints is None:
            return sum((row[i] for i, row in enumerate(self._grid)), Fraction(0))
        lines, big = self._over()
        return Fraction(sum(row[i] for i, row in enumerate(lines)), big)

    def is_zero(self) -> bool:
        return self._ints is not None and not any(map(any, self._ints))  # a polynomial entry is nonzero

    def is_symmetric(self) -> bool:
        return self.is_square and self == self.transpose()

    # -- linear algebra over the rationals ----------------------------------

    def _require_rational(self, what: str):
        if self._ints is None:
            raise ValidationError(f"{what} requires rational entries")

    def det(self):
        if not self.is_square:
            raise ValidationError("determinant requires a square matrix")
        return _det(self._grid) if self._ints is None else _det_bareiss(self._ints, (), {}, self._dens)

    def inverse(self) -> "RingMatrix":
        """The reduced rows of [d_i row_i | d_i e_i] over their last pivot."""
        self._require_rational("matrix inversion")
        if not self.is_square:
            raise ValidationError("inverse requires a square matrix")
        n = self.rows
        eye = [[0] * i + [s] + [0] * (n - i - 1) for i, s in enumerate(self._dens)]
        work, pivots, d = _rref_int([[*r, *e] for r, e in zip(self._ints, eye)])
        if pivots != tuple(range(n)):
            raise ValidationError("matrix is singular")
        return _from_rows([row[n:] for row in work], [d] * n)

    def nullspace(self):
        """Canonical rational kernel basis: unit in each free column."""
        self._require_rational("row reduction")
        basis, d = _kernel(self._ints)
        return [tuple(Fraction(x, d) for x in vec) for vec in basis]

    def eigenvectors(self, v: int) -> list:
        """Integer vectors spanning the kernel of self - v I, for an int ``v``:
        the ``nullspace`` basis of self - v I times the last pivot, reduced
        from the stored rows with v d_i taken from the diagonal."""
        self._require_rational("row reduction")
        if not self.is_square:
            raise ValidationError("eigenvectors require a square matrix")
        rows = [list(r) for r in self._ints]
        for i, d in enumerate(self._dens):
            rows[i][i] -= v * d
        return _kernel(rows)[0]

    # -- characteristic polynomial -------------------------------------------

    def char_poly(self) -> UniPoly:
        """det(eta*I - M), ``eta`` outermost, over any ring of the tower below
        ``eta``: row i is packed negated, its scale s_i shifted by the slot of
        ``eta`` on the diagonal.  Over Q row i of eta*I - M is (s_i eta e_i -
        row_i) / s_i, with bound its exact l1 norm |row_i|_1 + s_i; else it is
        surveyed with ``eta`` appended, for its scale, bound and degrees."""
        if not self.is_square:
            raise ValidationError("characteristic polynomial requires a square matrix")
        if self._ints is None:
            for row in self._grid:
                for e in row:
                    if e.__class__ is UniPoly and e.var != "z":
                        bad = sorted(v for v in _survey([(e,)])[0] if v != "z")
                        raise ValidationError(f"matrix entries must live below the spectral variable, found {bad}")
            names, scales, accs = _survey([(*row, _ETA) for row in self._grid])
            shifts = _det_shifts(names, accs)
            packed = [[-_pack(e, shifts, s) for e in row] for row, s in zip(self._grid, scales)]
        else:
            names, scales, packed = ("eta",), self._dens, [[-x for x in r] for r in self._ints]
            shifts = _det_shifts(names, [(0, 1, 0, sum(map(abs, r)) + s) for r, s in zip(self._ints, scales)])
        for i, s in enumerate(scales):
            packed[i][i] += s << shifts["eta"]
        return _det_bareiss(packed, names, shifts, scales)

    def __repr__(self):
        body = "; ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)
        return f"RingMatrix({self.rows}x{self.cols}: {body})"


def char_poly(matrix: RingMatrix) -> UniPoly:
    return matrix.char_poly()


def pfaffian(matrix: RingMatrix):
    """Pfaffian by first-row expansion; convention Pf([[0, c], [-c, 0]]) = c.
    Antisymmetry is checked and the expansion run on the rows packed (over Q,
    stored) with L, the lcm of the row scales, and read back with L^(n/2).
    By induction on the expansion its coefficients are at most the product of
    the max(1, B_i), B_i the bound of row i times L, and its degrees half the
    sum of the row degrees; both bounds are at least each row's, so the
    comparisons are exact."""
    if not matrix.is_square:
        raise ValidationError("pfaffian requires a square matrix")
    n = matrix.rows
    if n % 2 != 0:
        raise ValidationError("pfaffian requires even size")
    if matrix._ints is None:
        names, scales, accs = _survey(matrix.entries)
        scale = lcm(*scales)
        bound = prod(max(1, acc[-1] // s * scale) for acc, s in zip(accs, scales))
        shifts = _shifts(names, bound, [max(max(d), sum(d) // 2) for d in zip(*accs)])
        p = [[_pack(e, shifts, scale) for e in row] for row in matrix.entries]
    else:
        (p, scale), names, shifts = matrix._over(), (), {}
    if any(p[i][j] != -p[j][i] for i in range(n) for j in range(i, n)):
        raise ValidationError("pfaffian requires an antisymmetric matrix")

    def expand(ids):
        if not ids:
            return 1
        first, rest = p[ids[0]], ids[1:]
        return sum((-1) ** t * first[j] * expand(rest[:t] + rest[t + 1:]) for t, j in enumerate(rest) if first[j])

    return _unpack(expand(tuple(range(n))), names, shifts, scale ** (n // 2))


def kronecker(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """Kronecker product in the lexicographic tensor basis e_i (x) e_j; over
    Q row (i, k) is the products of the ints of rows i and k over d_i d_k."""
    if a._ints is None or b._ints is None:
        inner = b.entries
        return RingMatrix([[x * y for x in r for y in s] for r in a.entries for s in inner])
    dens = [d * e for d in a._dens for e in b._dens]
    return _from_rows([[x * y for x in r for y in s] for r in a._ints for s in b._ints], dens)


def exterior_square(m: RingMatrix) -> RingMatrix:
    """Induced map on the second exterior power of a 4-dimensional space,
    in the fixed wedge basis; entries are the 2x2 minors of ``m``, each the
    int p_ik p_jl - p_il p_jk of the packed (over Q, stored) rows, read back
    with s_i s_j.  Its coefficients are at most the square of the largest row
    bound, and its degrees at most twice the largest row degree."""
    if (m.rows, m.cols) != (4, 4):
        raise ValidationError("exterior square is implemented for 4x4 matrices")
    if m._ints is None:
        names, scales, accs = _survey(m.entries)
        top = [max(a) for a in zip(*accs)]
        shifts = _shifts(names, top[-1] ** 2, [2 * d for d in top])
        p = [[_pack(e, shifts, s) for e in row] for row, s in zip(m.entries, scales)]
    else:
        names, shifts, scales, p = (), {}, m._dens, m._ints
    minors = [[p[i][k] * p[j][l] - p[i][l] * p[j][k] for k, l in WEDGE_PAIRS] for i, j in WEDGE_PAIRS]
    dens = [scales[i] * scales[j] for i, j in WEDGE_PAIRS]
    if not names:
        return _from_rows(minors, dens)
    return RingMatrix([[_unpack(x, names, shifts, d) for x in line] for line, d in zip(minors, dens)])


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


def pairwise_sum_poly(f: UniPoly) -> UniPoly:
    """The monic polynomial, in the variable of ``f``, whose roots are the
    pairwise sums lambda_a + lambda_b (a < b) of the roots of the monic
    ``f``, over any coefficient ring of the tower: the naive composed sum of
    Bostan, Flajolet, Salvy and Schost (2006), on packed integers.

    With c_k the coefficient of v^(n-k) in ``f`` and L the lcm of the
    ``_survey`` scales of c_1..c_n, the roots mu = L lambda are those of the
    monic polynomial with the integer coefficients C_k = L^k c_k, each packed
    by ``_pack``.  Newton's identities give its power sums p_k; the pairwise
    sums of the mu have the power sums S_k = (sum_j C(k, j) p_j p_(k-j) -
    2^k p_k) / 2 (all ordered pairs, minus the equal-index terms, halved),
    and the identities solved for the coefficients E_k rebuild the result.
    Each E_k is unpacked and divided by L^k once.  Every intermediate value
    is an integer symmetric function of the mu, so the halving and each
    division by k are exact, and packing commutes with them.

    The bounds of the packing: on the unit polydisc |C_k| is at most its l1
    norm, so every mu is at most R = 2 max_k |C_k|^(1/k) (Fujiwara), each of
    the m pairwise sums at most 2R, and each E_k, a sum of C(m, k) products
    of k of them, at most (1 + 2R)^m; by Cauchy's estimate so is each of its
    coefficients.  R is rounded up to a power of two.  Give mu weight 1, so
    C_i is symmetric of weight i in the mu and E_k of weight k.  Each
    monomial of E_k in the C_i, prod C_i^(a_i) with sum i a_i = k, then has
    degree at most sum a_i deg(C_i) = sum i a_i deg(C_i) / i <= k max_i
    deg(C_i) / i in each variable, so E_k, k <= m, has degree at most
    floor(m max_i deg(C_i) / i)."""
    if f.is_zero or f.lead != 1:
        raise ValidationError("pairwise root sums require a monic polynomial")
    n = f.degree
    m = n * (n - 1) // 2
    names, scales, accs = _survey([(c,) for c in f.coeffs[-2::-1]])  # c_1, .., c_n
    scale = lcm(*scales)
    shifts = {}
    if names:
        norms = [acc[-1] // s * scale**k for k, (acc, s) in enumerate(zip(accs, scales), 1)]  # >= |C_1|, .., |C_n|
        r = max(-(-norm.bit_length() // k) for k, norm in enumerate(norms, 1))
        degrees = [max(m * d // k for k, d in enumerate(v, 1)) for v in zip(*accs)]
        shifts = _shifts(names, (1 + 2 ** (r + 2)) ** m, degrees)
    c = [None] + [_pack(e, shifts, scale) * scale ** (k - 1) for k, e in enumerate(f.coeffs[-2::-1], 1)] + [0] * (m - n)
    p = [n]
    for k in range(1, m + 1):
        p.append(-k * c[k] - sum(c[i] * p[k - i] for i in range(1, k)))
    s = [None]
    for k in range(1, m + 1):
        s.append((sum(comb(k, j) * p[j] * p[k - j] for j in range(k + 1)) - 2**k * p[k]) // 2)
    e = [1]
    for k in range(1, m + 1):
        e.append(-sum(e[i] * s[k - i] for i in range(k)) // k)
    return UniPoly(f.var, [_unpack(e[k], names, shifts, scale**k) for k in range(m, -1, -1)])
