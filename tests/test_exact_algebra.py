import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isolab.exact_algebra import (
    RingMatrix,
    UniPoly,
    ValidationError,
    as_fraction,
    char_poly,
    discriminant,
    exact_div,
    exterior_square,
    kronecker,
    pfaffian,
    poly_gcd,
    poly_sqrt,
    resultant,
)
from isolab.exact_algebra import _sylvester

Z = UniPoly.variable("z")
ETA = UniPoly.variable("eta")

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def tower(names):
    """Elements of Q[names[0]][names[1]]...: rationals with non-trivial
    denominators, zero included, and polynomials of degree 0 to 2 in each
    variable whose coefficients are drawn one level down."""
    scalars = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    if not names:
        return scalars
    lower = tower(names[:-1])
    return st.one_of(lower, st.lists(lower, min_size=1, max_size=3).map(lambda cs: UniPoly(names[-1], cs)))


def x_poly(coeffs, min_degree, max_degree):
    """Polynomials in x of the given degree range with a nonzero lead."""
    lead = coeffs.filter(lambda c: c != 0)
    return st.tuples(st.lists(coeffs, min_size=min_degree, max_size=max_degree), lead).map(
        lambda t: UniPoly("x", t[0] + [t[1]])
    )


def naive_det(m: RingMatrix):
    """Independent determinant: signed permutation expansion."""
    n = m.rows
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term = term * m.entries[i][perm[i]]
        total = total + term
    return total


def naive_pfaffian(m: RingMatrix):
    """Independent Pfaffian: sum over perfect matchings with crossing signs."""

    def pairings(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for idx, partner in enumerate(rest):
            for tail in pairings(rest[:idx] + rest[idx + 1:]):
                yield [(first, partner)] + tail

    n = m.rows
    total = Fraction(0)
    for pairing in pairings(list(range(n))):
        flat = [x for pair in pairing for x in pair]
        sign = 1
        for i in range(len(flat)):
            for j in range(i + 1, len(flat)):
                if flat[i] > flat[j]:
                    sign = -sign
        term = sign
        for (a, b) in pairing:
            term = term * m.entries[a][b]
        total = total + term
    return total


# -- polynomials ---------------------------------------------------------------


@pytest.mark.parametrize("value", [True, False])
def test_as_fraction_rejects_booleans(value):
    with pytest.raises(ValidationError):
        as_fraction(value)


@pytest.mark.parametrize("text", ["1e400", "1E5", "2.5e-3", "1/2e3"])
def test_as_fraction_rejects_exponent_notation(text):
    with pytest.raises(ValidationError, match="exponent notation"):
        as_fraction(text)


@pytest.mark.parametrize("text,value", [("3/4", Fraction(3, 4)), ("-7", Fraction(-7)), ("0.5", Fraction(1, 2))])
def test_as_fraction_reads_ratios_integers_and_plain_decimals(text, value):
    assert as_fraction(text) == value


@pytest.mark.parametrize("text", ["\u0663", "1_0", "\uff11\uff12", "1/2_0", "0.2_5", "\u00a03", "1 / 2", "1/0", ""])
def test_as_fraction_accepts_only_ascii_ratios_and_decimals(text):
    with pytest.raises(ValidationError, match="not a rational number"):
        as_fraction(text)


@pytest.mark.parametrize(
    "text,value",
    [(" 3/4 ", Fraction(3, 4)), ("+2", Fraction(2)), ("\t-7\n", Fraction(-7)), (".5", Fraction(1, 2)), ("5.", Fraction(5))],
)
def test_as_fraction_keeps_signs_short_decimals_and_surrounding_whitespace(text, value):
    assert as_fraction(text) == value


def test_zero_polynomial_normalizes():
    p = UniPoly("z", [0, 0, 0])
    assert p.is_zero and p.degree == -1


def test_leading_coefficient_nonzero():
    p = UniPoly("z", [1, 2, 0])
    assert p.degree == 1 and p.lead == 2


def test_variable_tower_rejects_inversion():
    with pytest.raises(ValidationError):
        UniPoly("z", [ETA])


def test_mixed_variable_arithmetic_lifts_the_lower_one():
    p = Z + ETA
    assert p.var == "eta"
    assert p.coeff(1) == 1 and p.coeff(0) == Z


def test_exact_division_and_remainder_error():
    p = (Z - 1) * (Z + 2)
    assert exact_div(p, Z - 1) == Z + 2
    with pytest.raises(ValidationError):
        exact_div(p + 1, Z - 1)


def test_poly_sqrt_round_trip_and_failure():
    q = Z**3 - 2 * Z + Fraction(1, 3)
    assert poly_sqrt(q * q) == q
    with pytest.raises(ValidationError):
        poly_sqrt(q * q + 1)


@given(st.lists(rationals, min_size=1, max_size=4), st.lists(rationals, min_size=1, max_size=4))
def test_gcd_divides_both(c1, c2):
    f, g = UniPoly("z", c1), UniPoly("z", c2)
    d = poly_gcd(f, g)
    if d.is_zero:
        assert f.is_zero and g.is_zero
    else:
        assert f.div_mod(d)[1].is_zero
        assert g.div_mod(d)[1].is_zero


# -- resultants ----------------------------------------------------------------


def test_resultant_of_disjoint_quadratics():
    f = UniPoly("x", [-1, 0, 1])
    g = UniPoly("x", [-4, 0, 1])
    assert resultant(f, g) == 9


def test_resultant_linear_factor_is_evaluation():
    g = UniPoly("x", [Fraction(1, 2), -3, 0, 1])
    c = Fraction(-5, 3)
    lin = UniPoly("x", [-c, 1])
    assert resultant(lin, g) == g.evaluate(c)


def test_resultant_pair_of_shifted_quadratics():
    # the quartic whose roots are sums of roots of x^2+a1 and x^2+a2
    a1, a2 = Z, Z - 1
    f = UniPoly("x", [a1, 0, 1])
    shift = UniPoly("x", [ETA, -1])
    g = shift * shift + a2
    assert resultant(f, g) == ETA**4 + 2 * (a1 + a2) * ETA**2 + (a1 - a2) ** 2


@given(
    st.lists(rationals, min_size=2, max_size=3),
    st.lists(rationals, min_size=2, max_size=3),
    rationals,
)
@settings(max_examples=40)
def test_resultant_vanishes_iff_common_root(c1, c2, root):
    f = UniPoly("x", c1 + [1])
    g = UniPoly("x", c2 + [1])
    lin = UniPoly("x", [-root, 1])
    assert resultant(f * lin, g * lin) == 0
    vanishes = resultant(f, g) == 0
    common = poly_gcd(f, g).degree > 0
    assert vanishes == common


@given(x_poly(tower(["z", "eta"]), 1, 3), x_poly(tower(["z", "eta"]), 0, 2))
@settings(max_examples=40, deadline=None)
def test_resultant_matches_permutation_expansion_over_polynomials(f, g):
    assert resultant(f, g) == naive_det(RingMatrix(_sylvester(f, g)))


def test_resultant_rejects_zero_input():
    with pytest.raises(ValidationError):
        resultant(UniPoly("x"), UniPoly("x", [1, 1]))


def test_discriminant_of_quadratic():
    assert discriminant(ETA * ETA + Z) == -4 * Z
    assert discriminant(UniPoly("z", [1, 2, 1])) == 0  # (z+1)^2


# -- determinants --------------------------------------------------------------


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=30)
def test_det_matches_permutation_expansion(rows):
    m = RingMatrix(rows)
    assert m.det() == naive_det(m)


def test_interpolated_det_matches_bareiss_over_polynomials():
    m = RingMatrix([[Z, Z + 1, 2], [0, Z * Z, 1], [3, Z, Z - 4]])
    assert m.det() == naive_det(m)


@given(st.lists(st.lists(tower(["z", "eta"]), min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_det_matches_permutation_expansion_over_polynomials(rows):
    m = RingMatrix(rows)
    assert m.det() == naive_det(m)


@given(st.lists(st.lists(tower(["z", "eta", "v"]), min_size=2, max_size=2), min_size=2, max_size=2))
@settings(max_examples=30, deadline=None)
def test_det_matches_permutation_expansion_over_three_variables(rows):
    m = RingMatrix(rows)
    assert m.det() == naive_det(m)


def test_inverse_round_trip():
    m = RingMatrix([[1, 2, 0], [0, 1, 5], [7, 0, 1]])
    assert m * m.inverse() == RingMatrix.identity(3)
    with pytest.raises(ValidationError):
        RingMatrix([[1, 1], [1, 1]]).inverse()


# -- characteristic polynomial ---------------------------------------------------


def test_char_poly_identity_and_diagonal():
    assert char_poly(RingMatrix.identity(2)) == (ETA - 1) ** 2
    assert char_poly(RingMatrix.diagonal([1, -1, 2, -2])) == ETA**4 - 5 * ETA**2 + 4


def test_char_poly_of_polynomial_block():
    beta, gamma = Z + 2, 3 * Z
    m = RingMatrix([[0, beta], [gamma, 0]])
    assert char_poly(m) == ETA * ETA - beta * gamma


def test_char_poly_rejects_spectral_variable_entries():
    with pytest.raises(ValidationError):
        char_poly(RingMatrix([[ETA, 0], [0, ETA]]))


def test_char_poly_rejects_entries_above_the_spectral_variable():
    with pytest.raises(ValidationError, match=r"\['v'\]"):
        char_poly(RingMatrix([[UniPoly.variable("v"), 0], [0, 1]]))


def test_char_poly_of_1x1():
    assert char_poly(RingMatrix([[Fraction(-3, 2)]])) == ETA + Fraction(3, 2)
    assert char_poly(RingMatrix([[Z * Z]])) == ETA - Z * Z


def square_matrices(entries, max_size):
    return st.integers(1, max_size).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


def assert_char_poly_is_det_of_eta_minus(rows):
    m = RingMatrix(rows)
    shifted = RingMatrix([[ETA - e if i == j else -e for j, e in enumerate(row)] for i, row in enumerate(m.entries)])
    p = char_poly(m)
    assert isinstance(p, UniPoly) and p.var == "eta" and p.degree == m.rows and p.lead == 1
    assert p == naive_det(shifted)


@given(square_matrices(st.one_of(st.just(Fraction(0)), rationals), 4))
@settings(max_examples=40, deadline=None)
def test_char_poly_matches_permutation_expansion(rows):
    assert_char_poly_is_det_of_eta_minus(rows)


@given(square_matrices(st.one_of(st.just(Fraction(0)), tower(["z"])), 3))
@settings(max_examples=40, deadline=None)
def test_char_poly_matches_permutation_expansion_over_polynomials(rows):
    assert_char_poly_is_det_of_eta_minus(rows)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cayley_hamilton(n, rng_factory):
    rng = rng_factory(n)
    m = RingMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)])
    p = char_poly(m)
    acc = RingMatrix.zeros(n, n)
    power = RingMatrix.identity(n)
    for c in p.coeffs:
        acc = acc + power.scale(c)
        power = power * m
    assert acc.is_zero()


# -- pfaffian ------------------------------------------------------------------


def test_pfaffian_2x2_and_zero():
    c = Fraction(7, 3)
    assert pfaffian(RingMatrix([[0, c], [-c, 0]])) == c
    assert pfaffian(RingMatrix.zeros(4, 4)) == 0


def test_pfaffian_4x4_closed_form():
    a, b, c, d, e, f = (Fraction(k) for k in (2, -3, 5, 7, -1, 4))
    m = RingMatrix([[0, a, b, c], [-a, 0, d, e], [-b, -d, 0, f], [-c, -e, -f, 0]])
    assert pfaffian(m) == a * f - b * e + c * d
    assert pfaffian(m) == naive_pfaffian(m)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_pfaffian_squares_to_determinant(n, rng_factory):
    rng = rng_factory(n)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            rows[i][j], rows[j][i] = v, -v
    m = RingMatrix(rows)
    assert pfaffian(m) ** 2 == m.det()
    assert pfaffian(m) == naive_pfaffian(m)


def test_pfaffian_validation():
    with pytest.raises(ValidationError):
        pfaffian(RingMatrix.identity(4))
    with pytest.raises(ValidationError):
        pfaffian(RingMatrix.zeros(3, 3))


# -- kronecker and exterior square -----------------------------------------------


def test_kronecker_examples():
    ident = RingMatrix.identity(2)
    assert kronecker(ident, ident) == RingMatrix.identity(4)
    w = RingMatrix([[0, 1], [-1, 0]])
    assert kronecker(w, w) == RingMatrix.antidiagonal([1, -1, -1, 1])
    assert kronecker(RingMatrix.diagonal([1, -1]), RingMatrix.diagonal([2, -2])) == RingMatrix.diagonal(
        [2, -2, -2, 2]
    )


def test_exterior_square_examples():
    assert exterior_square(RingMatrix.identity(4)) == RingMatrix.identity(6)
    assert exterior_square(RingMatrix.diagonal([1, -1, 2, -2])) == RingMatrix.diagonal(
        [-1, 2, -2, -2, 2, -4]
    )


def test_exterior_square_determinant_cube_and_functoriality(rng_factory):
    rng = rng_factory(0)
    for _ in range(5):
        m = RingMatrix([[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)])
        n = RingMatrix([[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)])
        assert exterior_square(m).det() == m.det() ** 3
        assert exterior_square(m * n) == exterior_square(m) * exterior_square(n)
