from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isolab.exact_algebra import (
    WEDGE_PAIRS,
    RingMatrix,
    UniPoly,
    ValidationError,
    exterior_square,
    fraction_sqrt,
    kronecker,
    pfaffian,
    products,
)
from isolab.lie_isogeny import (
    HodgeSplit,
    QuadraticForm,
    SPLIT_BASIS,
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
from isolab.lie_isogeny import _canonical_basis
from isolab.spectral_base import quartic_of_char_pair, sextic_of_quartic
from isolab.verify import rand_symmetric_traceless, rand_traceless, rand_unimodular
from test_exact_algebra import naive_kernel

Z = UniPoly.variable("z")

#: Rationals and polynomials in z, zero and 40-digit coefficients included.
SCALARS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)
ENTRIES = st.one_of(SCALARS, st.lists(SCALARS, min_size=1, max_size=3).map(lambda cs: UniPoly("z", cs)))


def traceless(n):
    """n x n matrices over Q and Q[z] with trace zero."""

    def close(rows):
        rows[-1][-1] = -sum((rows[i][i] for i in range(n - 1)), Fraction(0))
        return RingMatrix(rows)

    return st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n).map(close)


def loop_d_iso3(adot):
    """The rank-3 derivative as its four index rules, entry by entry."""
    a = adot.entries
    out = []
    for (i, j) in WEDGE_PAIRS:
        row = []
        for (k, l) in WEDGE_PAIRS:
            val = Fraction(0)
            if j == l:
                val = val + a[i][k]
            if i == l:
                val = val - a[j][k]
            if i == k:
                val = val + a[j][l]
            if j == k:
                val = val - a[i][l]
            row.append(val)
        out.append(row)
    return RingMatrix(out)


@given(traceless(2), traceless(2))
@settings(max_examples=60, deadline=None)
def test_d_iso2_is_the_tensor_sum(a1, a2):
    ident = RingMatrix.identity(2)
    got, want = d_iso2(a1, a2), kronecker(a1, ident) + kronecker(ident, a2)
    assert got == want and repr(got) == repr(want)
    assert (got._grid, got._ints, got._dens) == (want._grid, want._ints, want._dens)


@given(traceless(4))
@settings(max_examples=60, deadline=None)
def test_d_iso3_matches_the_index_rules(adot):
    got, want = d_iso3(adot), loop_d_iso3(adot)
    assert got == want and repr(got) == repr(want)


def test_forms_are_the_fixed_antidiagonals():
    assert q4().gram == RingMatrix.antidiagonal([1, -1, -1, 1])
    assert q6().gram == RingMatrix.antidiagonal([1, -1, 1, 1, -1, 1])
    assert q6().gram.det() == -1
    assert q4().gram.det() == 1


def test_group_map_examples_and_kernel():
    ident2, ident4 = RingMatrix.identity(2), RingMatrix.identity(4)
    assert iso2_group(ident2, ident2) == ident4
    assert iso2_group(-ident2, -ident2) == ident4
    r = iso2_group(RingMatrix.diagonal([2, Fraction(1, 2)]), ident2)
    assert r == RingMatrix.diagonal([2, 2, Fraction(1, 2), Fraction(1, 2)])
    assert r.transpose() * q4().gram * r == q4().gram

    assert iso3_group(ident4) == RingMatrix.identity(6)
    assert iso3_group(-ident4) == RingMatrix.identity(6)
    r3 = iso3_group(RingMatrix.diagonal([1, -1, 2, Fraction(-1, 2)]))
    assert r3 == RingMatrix.diagonal([-1, 2, Fraction(-1, 2), -2, Fraction(1, 2), -1])


def test_group_maps_reject_non_unit_determinant():
    with pytest.raises(ValidationError):
        iso2_group(RingMatrix.diagonal([2, 1]), RingMatrix.identity(2))
    with pytest.raises(ValidationError):
        iso3_group(RingMatrix.diagonal([1, 1, 1, 2]))


def test_kernels_contain_nothing_else_diagonal():
    import itertools

    ident4, ident6 = RingMatrix.identity(4), RingMatrix.identity(6)
    hits2 = [
        (s, t)
        for s in itertools.product((1, -1), repeat=2)
        for t in itertools.product((1, -1), repeat=2)
        if s[0] * s[1] == 1 and t[0] * t[1] == 1
        and iso2_group(RingMatrix.diagonal(list(s)), RingMatrix.diagonal(list(t))) == ident4
    ]
    assert sorted(hits2) == [((-1, -1), (-1, -1)), ((1, 1), (1, 1))]
    hits3 = [
        s
        for s in itertools.product((1, -1), repeat=4)
        if s[0] * s[1] * s[2] * s[3] == 1
        and iso3_group(RingMatrix.diagonal(list(s))) == ident6
    ]
    assert sorted(hits3) == [(-1, -1, -1, -1), (1, 1, 1, 1)]


def test_derivative_diagonal_examples():
    x = d_iso2(RingMatrix.diagonal([1, -1]), RingMatrix.diagonal([2, -2]))
    assert x == RingMatrix.diagonal([3, -1, 1, -3])
    assert d_iso2(RingMatrix([[0, 0], [0, 0]]), RingMatrix([[0, 0], [0, 0]])).is_zero()
    y = d_iso3(RingMatrix.diagonal([1, -1, 2, -2]))
    assert y == RingMatrix.diagonal([0, 3, -1, 1, -3, 0])
    assert d_iso3(RingMatrix([[0] * 4] * 4)).is_zero()


def test_derivatives_reject_trace():
    with pytest.raises(ValidationError):
        d_iso2(RingMatrix.identity(2), RingMatrix([[0, 0], [0, 0]]))
    with pytest.raises(ValidationError):
        d_iso3(RingMatrix.identity(4))
    # a polynomial diagonal with a nonzero constant sum
    with pytest.raises(ValidationError, match="traceless"):
        d_iso2(RingMatrix([[Z, 0], [0, 1 - Z]]), RingMatrix([[Z, 0], [0, -Z]]))
    with pytest.raises(ValidationError, match="traceless"):
        d_iso3(RingMatrix.diagonal([Z, -Z, 1, 0]))


def test_identity_is_neither_traceless_nor_skew():
    ident4 = RingMatrix.identity(4)
    assert ident4.trace() != 0
    for ident, gram in ((ident4, q4().gram), (RingMatrix.identity(6), q6().gram)):
        assert not (ident.transpose() * gram + gram * ident).is_zero()


def test_derivative_skewness_random(rng_factory):
    rng = rng_factory("skew")
    g4, g6 = q4().gram, q6().gram
    for _ in range(10):
        x = d_iso2(rand_traceless(rng, 2), rand_traceless(rng, 2))
        assert (x.transpose() * g4 + g4 * x).is_zero()
        y = d_iso3(rand_traceless(rng, 4))
        assert (y.transpose() * g6 + g6 * y).is_zero()


def test_eigenvalue_laws_via_oracles(rng_factory):
    rng = rng_factory("eig")
    for _ in range(10):
        a1, a2 = rand_traceless(rng, 2), rand_traceless(rng, 2)
        assert d_iso2(a1, a2).char_poly() == quartic_of_char_pair(a1.char_poly(), a2.char_poly())
        a = rand_traceless(rng, 4)
        assert d_iso3(a).char_poly() == sextic_of_quartic(a.char_poly())


def test_homomorphism_on_random_pairs(rng_factory):
    rng = rng_factory("hom")
    for _ in range(5):
        a1, b1 = rand_unimodular(rng, 2), rand_unimodular(rng, 2)
        a2, b2 = rand_unimodular(rng, 2), rand_unimodular(rng, 2)
        assert iso2_group(a1 * b1, a2 * b2) == iso2_group(a1, a2) * iso2_group(b1, b2)
        a, b = rand_unimodular(rng, 4), rand_unimodular(rng, 4)
        assert iso3_group(a * b) == iso3_group(a) * iso3_group(b)


def test_alpha_block_fixed_instances():
    assert alpha_block(RingMatrix.diagonal([1, 1, -1, -1])) == RingMatrix(
        [[0, 0, 2], [0, 0, 0], [0, 0, 0]]
    )
    assert alpha_block(RingMatrix([[0] * 4] * 4)).is_zero()
    with pytest.raises(ValidationError):
        alpha_block(RingMatrix([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))


def test_split_basis_diagonalizes_the_form():
    restricted = SPLIT_BASIS.transpose() * q6().gram * SPLIT_BASIS
    expected = RingMatrix.diagonal([2, 2, 2, -2, -2, -2])
    assert restricted == expected


def test_split_conjugation_reproduces_alpha(rng_factory):
    rng = rng_factory("alpha")
    for _ in range(10):
        adot = rand_symmetric_traceless(rng)
        conj = to_split_basis(d_iso3(adot))
        alpha = alpha_block(adot)
        assert conj.block(0, 0, 3, 3).is_zero()
        assert conj.block(3, 3, 3, 3).is_zero()
        assert conj.block(0, 3, 3, 3) == alpha
        assert conj.block(3, 0, 3, 3) == alpha.transpose()


def test_pfaffian_sign_is_minus_det_alpha(rng_factory):
    rng = rng_factory("pf")
    for _ in range(10):
        adot = rand_symmetric_traceless(rng)
        pf = pfaffian(q6().gram * d_iso3(adot))
        det_alpha = alpha_block(adot).det()
        assert pf * pf == det_alpha * det_alpha
        assert pf == -det_alpha


def test_block_higgs_over_polynomial_sections():
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    entries = {(0, 1): Z, (0, 2): 1 - Z, (1, 3): 2 * Z, (2, 3): Fraction(1, 2)}
    for (i, j), val in entries.items():
        rows[i][j] = rows[j][i] = val
    diag = [Z, -Z, 3, -3]
    for i in range(4):
        rows[i][i] = diag[i]
    field = RingMatrix(rows)
    higgs = build_block_higgs_so33(field)
    assert higgs.phi11.is_zero() and higgs.phi22.is_zero()
    assert higgs.alpha == alpha_block(field)
    assert higgs.as_matrix().char_poly() == d_iso3(field).char_poly()
    assert to_split_basis(d_iso3(field)) == higgs.as_matrix()


def test_hodge_split_identity_form():
    split = hodge_split(QuadraticForm(RingMatrix.identity(4)))
    assert split.star == q6().gram
    # star sends e1^e2 to e3^e4 in the wedge basis
    image = [split.star.entries[r][0] for r in range(6)]
    assert image == [0, 0, 0, 0, 0, 1]
    assert split.plus_basis == (
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1), Fraction(1), Fraction(0), Fraction(0)),
    )


def test_hodge_split_orientation_swap_and_random_forms(rng_factory):
    plus = hodge_split(QuadraticForm(RingMatrix.identity(4)))
    minus = hodge_split(QuadraticForm(RingMatrix.identity(4)), orientation=-1)
    assert minus.plus_basis == plus.minus_basis
    assert minus.minus_basis == plus.plus_basis
    rng = rng_factory("hodge")
    for _ in range(5):
        p = rand_unimodular(rng, 4, steps=5)
        split = hodge_split(QuadraticForm(p.transpose() * p))
        assert split.star * split.star == RingMatrix.identity(6)
        assert len(split.plus_basis) == 3 and len(split.minus_basis) == 3
        assert split.q_plus.gram.det() != 0 and split.q_minus.gram.det() != 0


def test_hodge_split_is_the_inverse_of_the_induced_form_without_inverting(rng_factory, monkeypatch):
    rng = rng_factory("hodge closed form")
    for _ in range(5):
        p = rand_unimodular(rng, 4, steps=5)
        sign = rng.choice((1, -1))
        gram = p.transpose() * RingMatrix.diagonal([rng.choice((1, 4, "1/9")), 1, sign, sign]) * p
        scale = fraction_sqrt(gram.det())
        for orientation in (1, -1):
            star = exterior_square(gram).inverse() * q6().gram
            expected = star.scale(scale * orientation)
            with monkeypatch.context() as m:
                m.setattr(RingMatrix, "inverse", lambda self: pytest.fail("hodge_split inverted a matrix"))
                split = hodge_split(QuadraticForm(gram), orientation=orientation)
            assert split.star == expected


@pytest.mark.parametrize("orientation", [2, 0, True, False, 1.0, -1.0, Fraction(1), "1", None], ids=repr)
def test_hodge_split_orientation_must_be_the_int_one_or_minus_one(orientation):
    with pytest.raises(ValidationError, match="^orientation sign must be the int 1 or -1$"):
        hodge_split(QuadraticForm(RingMatrix.identity(4)), orientation=orientation)


def closed_form_hodge_split(q, orientation):
    """The star as the product Q6 * Lambda^2(q), scaled, its eigenspaces as
    the Fraction Gauss-Jordan kernels of star -/+ I, and each restricted
    form as B^T Q6 B."""
    gram = q.gram
    induced = exterior_square(gram)
    induced._require_rational("matrix inversion")
    scale = fraction_sqrt(gram.det())
    star = (q6().gram * induced).scale(Fraction(orientation) / scale)
    ident = RingMatrix.identity(6)

    def restrict(basis):
        b = RingMatrix([[vec[i] for vec in basis] for i in range(6)])
        return QuadraticForm(b.transpose() * q6().gram * b)

    plus, minus = (_canonical_basis(naive_kernel((star + sign * ident).entries)) for sign in (-1, 1))
    return HodgeSplit(star, plus, minus, restrict(plus), restrict(minus))


def test_hodge_split_matches_its_closed_form_by_products(rng_factory):
    rng = rng_factory("hodge products")
    for k in range(12):
        p = rand_unimodular(rng, 4, steps=5)
        sign = rng.choice((1, -1))
        gram = p.transpose() * RingMatrix.diagonal([rng.choice((1, 4, "9/4", "1/9")), 1, sign, sign]) * p
        for orientation in (1, -1):
            got = hodge_split(QuadraticForm(gram), orientation=orientation)
            want = closed_form_hodge_split(QuadraticForm(gram), orientation)
            assert got == want and repr(got) == repr(want)


def test_hodge_split_checks_the_induced_form_for_rational_entries():
    """A Q[z] form is refused because its minors are polynomials.  A Q[z]
    Gram matrix whose 2x2 minors are all constant would pass that check, but
    it is singular (Lambda^2 is injective up to sign on invertible matrices),
    so it is refused first, as a degenerate form."""
    with pytest.raises(ValidationError, match="^matrix inversion requires rational entries$"):
        hodge_split(QuadraticForm(RingMatrix([[1, Z, 0, 0], [Z, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])))
    gram = RingMatrix([[1, Z, 0, 0], [Z, 1 + Z * Z, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert all(e.__class__ is Fraction for row in exterior_square(gram).entries for e in row)
    for orientation in (1, -1):
        with pytest.raises(ValidationError, match="^quadratic form must be non-degenerate$"):
            hodge_split(QuadraticForm(gram), orientation=orientation)


@pytest.mark.parametrize(
    "gram,message",
    [
        ([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "quadratic form requires a symmetric Gram matrix"),
        ([[1, 0, 0], [0, 1, 0]], "quadratic form requires a symmetric Gram matrix"),
        ([[0, 0], [0, 0]], "quadratic form must be non-degenerate"),
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], "quadratic form must be non-degenerate"),
    ],
    ids=["non-symmetric", "non-square", "degenerate-2x2", "degenerate"],
)
def test_hodge_split_checks_its_form_before_the_orientation(gram, message):
    """The form is checked first; a bad orientation is reported only for a
    symmetric non-degenerate form."""
    for orientation in (1, 0):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            hodge_split(QuadraticForm(RingMatrix(gram)), orientation=orientation)


def test_hodge_split_rejects_non_square_determinant():
    with pytest.raises(ValidationError):
        hodge_split(QuadraticForm(RingMatrix.diagonal([1, 1, 1, 2])))


def _long_digit_gram(rng, digits):
    """g^T g for a 4x4 g whose entries are p/q with p and q of ``digits`` digits."""
    def part():
        return rng.randint(10 ** (digits - 1), 10**digits - 1)

    g = RingMatrix([[Fraction(rng.choice((1, -1)) * part(), part()) for _ in range(4)] for _ in range(4)])
    return g.transpose() * g


@pytest.mark.parametrize("digits,samples", [(2, 6), (10, 3), (100, 1)])
def test_restricted_forms_match_the_fraction_products(rng_factory, digits, samples):
    """Each restricted form is stored as ``RingMatrix(products(basis, images))``
    stores it, images the basis under Q6 (each vector reversed and signed)."""
    rng = rng_factory(f"restricted forms {digits}")
    for _ in range(samples):
        split = hodge_split(QuadraticForm(_long_digit_gram(rng, digits)), orientation=rng.choice((1, -1)))
        for basis, form in ((split.plus_basis, split.q_plus), (split.minus_basis, split.q_minus)):
            images = [[c * s for s, c in zip((1, -1, 1, 1, -1, 1), reversed(v))] for v in basis]
            want = RingMatrix(products(basis, images))
            assert form.gram == want and (form.gram._ints, form.gram._dens) == (want._ints, want._dens)
            assert form.gram.is_symmetric() and form.gram.det() != 0
