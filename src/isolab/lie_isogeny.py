"""The rank-2 and rank-3 orthogonal isogenies at the Lie level.

Implements the group maps (tensor product of a pair of unimodular 2x2
matrices; exterior square of a unimodular 4x4 matrix), their derivatives,
the invariant bilinear forms they preserve, the split-basis alpha block
and block Higgs field of a symmetric traceless argument, and the
star-operator decomposition of the 6-dimensional wedge representation.

Sign conventions are fixed once and recorded here:

* the 4-dimensional form is omega (x) omega in the lexicographic tensor
  basis, the 6-dimensional form is the wedge pairing in the fixed wedge
  basis (antidiagonal 1,-1,1,1,-1,1; determinant -1);
* orientation parameters default to +1 and flip the relevant form or
  star operator by an overall sign.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .exact_algebra import (
    Record,
    RingMatrix,
    ValidationError,
    exterior_square,
    fraction_sqrt,
    kronecker,
    products,
    ring_is_zero,
)

__all__ = [
    "QuadraticForm",
    "HodgeSplit",
    "HiggsBlockField",
    "OMEGA",
    "q4",
    "q6",
    "iso2_group",
    "iso3_group",
    "d_iso2",
    "d_iso3",
    "alpha_block",
    "SPLIT_BASIS",
    "to_split_basis",
    "build_block_higgs_so33",
    "hodge_split",
]

#: The symplectic form on the plane preserved by unit-determinant matrices.
OMEGA = RingMatrix([[0, 1], [-1, 0]])


class QuadraticForm(Record):
    """A symmetric invertible Gram matrix; ``hodge_split``, which takes one
    from outside, checks the form it is given."""

    gram: RingMatrix


_Q4 = QuadraticForm(kronecker(OMEGA, OMEGA))
#: The signs of the antidiagonal of the wedge form, row by row.
_Q6_SIGNS = (1, -1, 1, 1, -1, 1)
_Q6 = QuadraticForm(RingMatrix.antidiagonal(_Q6_SIGNS))


def q4() -> QuadraticForm:
    """The 4-dimensional form omega (x) omega; antidiagonal (1, -1, -1, 1)."""
    return _Q4


def q6() -> QuadraticForm:
    """The wedge-pairing form on the fixed wedge basis; antidiagonal
    (1, -1, 1, 1, -1, 1), determinant -1."""
    return _Q6


def _require_shape(m: RingMatrix, n: int, what: str):
    if (m.rows, m.cols) != (n, n):
        raise ValidationError(f"{what} requires a {n}x{n} matrix, got {m.rows}x{m.cols}")


def _require_unit_det(m: RingMatrix, what: str):
    det = m.det()
    if det != Fraction(1):
        raise ValidationError(f"{what} requires determinant 1, got {det}")


def _require_traceless(m: RingMatrix, what: str):
    if not ring_is_zero(m.trace()):
        raise ValidationError(f"{what} requires a traceless matrix")


def iso2_group(a1: RingMatrix, a2: RingMatrix) -> RingMatrix:
    """Tensor product of two unimodular 2x2 matrices; lands in the
    orthogonal group of the 4-dimensional form."""
    _require_shape(a1, 2, "rank-2 isogeny")
    _require_shape(a2, 2, "rank-2 isogeny")
    _require_unit_det(a1, "rank-2 isogeny")
    _require_unit_det(a2, "rank-2 isogeny")
    return kronecker(a1, a2)


def iso3_group(a: RingMatrix) -> RingMatrix:
    """Exterior square of a unimodular 4x4 matrix; lands in the orthogonal
    group of the 6-dimensional wedge form."""
    _require_shape(a, 4, "rank-3 isogeny")
    _require_unit_det(a, "rank-3 isogeny")
    return exterior_square(a)


def d_iso2(a1dot: RingMatrix, a2dot: RingMatrix) -> RingMatrix:
    """Derivative of the rank-2 isogeny: A1 (x) I + I (x) A2 on the tensor
    square; skew for the 4-dimensional form, eigenvalues add.  It is one
    ``linear_image`` of the 2x4 block row [A1 A2]."""
    _require_shape(a1dot, 2, "rank-2 derivative")
    _require_shape(a2dot, 2, "rank-2 derivative")
    _require_traceless(a1dot, "rank-2 derivative")
    _require_traceless(a2dot, "rank-2 derivative")
    return RingMatrix.blocks([[a1dot, a2dot]]).linear_image(lambda a: [
        [a[0][0] + a[0][2], a[0][3], a[0][1], 0],
        [a[1][2], a[0][0] + a[1][3], 0, a[0][1]],
        [a[1][0], 0, a[1][1] + a[0][2], a[0][3]],
        [0, a[1][0], a[1][2], a[1][1] + a[1][3]],
    ])


def d_iso3(adot: RingMatrix) -> RingMatrix:
    """Derivative of the rank-3 isogeny: v^w -> (Av)^w + v^(Aw) in the
    fixed wedge basis; skew for the 6-dimensional form, eigenvalues are
    the pairwise sums of the input's eigenvalues.  The entry of row e_i^e_j
    and column e_k^e_l is a_ii + a_jj on the diagonal, else a_ik if j = l,
    -a_jk if i = l, a_jl if i = k, -a_il if j = k, and 0."""
    _require_shape(adot, 4, "rank-3 derivative")
    _require_traceless(adot, "rank-3 derivative")
    return adot.linear_image(lambda a: [
        [a[0][0] + a[1][1], a[1][2], a[1][3], -a[0][2], -a[0][3], 0],
        [a[2][1], a[0][0] + a[2][2], a[2][3], a[0][1], 0, -a[0][3]],
        [a[3][1], a[3][2], a[0][0] + a[3][3], 0, a[0][1], a[0][2]],
        [-a[2][0], a[1][0], 0, a[1][1] + a[2][2], a[2][3], -a[1][3]],
        [-a[3][0], 0, a[1][0], a[3][2], a[1][1] + a[3][3], a[1][2]],
        [0, -a[3][0], a[2][0], -a[3][1], a[2][1], a[2][2] + a[3][3]],
    ])


def alpha_block(adot: RingMatrix) -> RingMatrix:
    """The 3x3 block of the rank-3 derivative of a symmetric traceless
    matrix, written in the fixed split basis (see ``SPLIT_BASIS``)."""
    _require_shape(adot, 4, "alpha block")
    _require_traceless(adot, "alpha block")
    if not adot.is_symmetric():
        raise ValidationError("alpha block requires a symmetric matrix")
    return adot.linear_image(
        lambda a: [
            [a[0][2] + a[1][3], -a[0][3] + a[1][2], a[0][0] + a[1][1]],
            [-a[0][1] + a[2][3], a[0][0] + a[2][2], a[0][3] + a[1][2]],
            [-a[1][1] - a[2][2], a[0][1] + a[2][3], -a[0][2] + a[1][3]],
        ]
    )


#: Columns of the fixed change of basis that diagonalizes the wedge form to
#: 2*diag(I3, -I3).  The first three columns span the positive part, the
#: last three the negative part; each column is a +/- combination of two
#: wedge basis vectors, normalized with positive first entry.  This is the
#: unique such choice (up to global sign) for which the conjugated rank-3
#: derivative of a symmetric traceless matrix is exactly
#: [[0, alpha], [alpha^t, 0]] with alpha as in ``alpha_block``.
_SPLIT_COLUMNS = (
    (1, 0, 0, 0, 0, 1),    # e1^e2 + e3^e4
    (0, 1, 0, 0, -1, 0),   # e1^e3 - e2^e4
    (0, 0, 1, 1, 0, 0),    # e1^e4 + e2^e3
    (0, 0, 1, -1, 0, 0),   # e1^e4 - e2^e3
    (0, 1, 0, 0, 1, 0),    # e1^e3 + e2^e4
    (1, 0, 0, 0, 0, -1),   # e1^e2 - e3^e4
)


#: Change of basis P with P^T Q6 P = 2 diag(I3, -I3).
SPLIT_BASIS = RingMatrix([[col[r] for col in _SPLIT_COLUMNS] for r in range(6)])
_SPLIT_BASIS_INV = SPLIT_BASIS.inverse()
#: The wedge form restricted to each summand of the split: 2 I3 and -2 I3.
_SPLIT_FORM = RingMatrix.diagonal([2, 2, 2])
_MINUS_SPLIT_FORM = -_SPLIT_FORM
_ZERO3 = RingMatrix.diagonal([0, 0, 0])
#: Gram matrix of each rank-2 summand of ``moduli_invariants.assemble_so22``:
#: the reordered 4-dimensional form is diag(_Q_PAIR, -_Q_PAIR) (verify
#: criterion 10).
_Q_PAIR = RingMatrix([[0, 1], [1, 0]])
_MINUS_Q_PAIR = -_Q_PAIR
_ZERO2 = RingMatrix.diagonal([0, 0])


def to_split_basis(x: RingMatrix) -> RingMatrix:
    """Conjugate a 6x6 matrix into the fixed split basis."""
    _require_shape(x, 6, "split-basis conjugation")
    return _SPLIT_BASIS_INV * x * SPLIT_BASIS


class HiggsBlockField(Record):
    """A two-block Higgs field [[phi11, phi12], [phi21, phi22]] with
    orthogonal structures q1, q2 on the two summands.

    The blocks satisfy the anti-symmetry phi21 = -q2^{-1} phi12^T q1
    (orthogonal transpose), with phi12^T the plain matrix transpose; the
    builders guarantee it and verify criteria 5 and 10 certify it.
    """

    phi11: RingMatrix
    phi12: RingMatrix
    phi21: RingMatrix
    phi22: RingMatrix
    q1: RingMatrix
    q2: RingMatrix

    def __post_init__(self):
        n1, n2 = self.phi11.rows, self.phi22.rows
        if (self.phi12.rows, self.phi12.cols) != (n1, n2) or (
            self.phi21.rows,
            self.phi21.cols,
        ) != (n2, n1):
            raise ValidationError("Higgs block shapes are inconsistent")

    @property
    def alpha(self) -> RingMatrix:
        return self.phi12

    def as_matrix(self) -> RingMatrix:
        return RingMatrix.blocks([[self.phi11, self.phi12], [self.phi21, self.phi22]])


def build_block_higgs_so33(adot: RingMatrix) -> HiggsBlockField:
    """The split-signature block Higgs field [[0, alpha], [alpha^T, 0]] of a
    symmetric traceless 4x4 argument (entries may be polynomial sections),
    with alpha = ``alpha_block(adot)`` and forms 2 I3 and -2 I3.  Verify
    criterion 5 certifies that it is the rank-3 derivative conjugated into
    the fixed split basis."""
    alpha = alpha_block(adot)
    return HiggsBlockField(_ZERO3, alpha, alpha.transpose(), _ZERO3, _SPLIT_FORM, _MINUS_SPLIT_FORM)


class HodgeSplit(Record):
    """The star-operator eigenspace decomposition of the wedge square."""

    star: RingMatrix
    plus_basis: Tuple[Tuple[Fraction, ...], ...]
    minus_basis: Tuple[Tuple[Fraction, ...], ...]
    q_plus: QuadraticForm
    q_minus: QuadraticForm


def _canonical_basis(vectors):
    """Normalize each vector, integer or rational, to leading coefficient 1,
    each entry one ``Fraction(x, lead)``, and sort by pivot."""
    cleaned = []
    for vec in vectors:
        lead_idx = next(i for i, c in enumerate(vec) if c != 0)
        cleaned.append((lead_idx, tuple(Fraction(x, vec[lead_idx]) for x in vec)))
    cleaned.sort(key=lambda item: item[0])
    return tuple(vec for _, vec in cleaned)


def hodge_split(q: QuadraticForm, orientation: int = 1) -> HodgeSplit:
    """Build the involution star = (induced form)^{-1} . Q6, normalized by
    the square root of det(q) (the choice of compatible determinant
    trivialization), and return its +/-1 eigenspace data.

    Since Lambda^2(q)^T Q6 Lambda^2(q) = det(q) Q6, Q6^{-1} = Q6 and q is
    symmetric, the star is the closed form orientation * Q6 * Lambda^2(q) /
    sqrt(det q), whose row r is row 5 - r of Lambda^2(q), signed and scaled
    (``scaled_rows``).  Each eigenspace is read off the integer vectors of
    ``eigenvectors``, each divided by its leading entry once.
    ``q`` is the 4x4 orthogonal structure with rational entries, checked
    first to be symmetric and non-degenerate; its determinant must be a
    rational square.  Orientation -1 flips the star and so swaps the two
    eigenspaces.  Verify criterion 6 certifies the star against the inverse
    of the induced form, that it squares to the identity with rank-3
    eigenspaces, that each basis vector is an eigenvector, and that both
    restricted forms are symmetric and non-degenerate.
    """
    gram = q.gram
    if not gram.is_symmetric():
        raise ValidationError("quadratic form requires a symmetric Gram matrix")
    det = gram.det()
    if ring_is_zero(det):
        raise ValidationError("quadratic form must be non-degenerate")
    if orientation.__class__ is not int or orientation not in (1, -1):
        raise ValidationError("orientation sign must be the int 1 or -1")
    _require_shape(gram, 4, "star-operator construction")
    induced = exterior_square(gram)
    # the star inverts it, in closed form, over Q; det Lambda^2(q) = det(q)^3,
    # so checking before the square root turns away no form it accepts
    induced._require_rational("matrix inversion")
    scale = fraction_sqrt(det)  # ValidationError if det is not a rational square
    star = induced.scaled_rows(range(5, -1, -1), [orientation * s / scale for s in _Q6_SIGNS])

    def restrict(basis):  # the basis against its images under Q6, their signed reversals
        images = [[c if s > 0 else -c for s, c in zip(_Q6_SIGNS, reversed(v))] for v in basis]
        return QuadraticForm(RingMatrix(products(basis, images)))

    plus, minus = _canonical_basis(star.eigenvectors(1)), _canonical_basis(star.eigenvectors(-1))
    return HodgeSplit(star, plus, minus, restrict(plus), restrict(minus))
