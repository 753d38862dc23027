import itertools
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isolab.exact_algebra import (
    VAR_ORDER,
    WEDGE_PAIRS,
    RingMatrix,
    UniPoly,
    ValidationError,
    as_element,
    as_fraction,
    as_poly,
    exact_div,
    exterior_square,
    kronecker,
    pairwise_sum_poly,
    pfaffian,
    poly_gcd,
    poly_sqrt,
    resultant,
    ring_is_zero,
)
from isolab.exact_algebra import (
    _as_poly_pair,
    _pack,
    _rref_int,
    _shifts,
    _survey,
    _sylvester,
    _unpack,
    products,
)

Z = UniPoly.variable("z")
ETA = UniPoly.variable("eta")

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def tower(names, scalars=st.fractions(min_value=-3, max_value=3, max_denominator=6)):
    """Elements of Q[names[0]][names[1]]...: rationals with non-trivial
    denominators, zero included, and polynomials of degree 0 to 2 in each
    variable whose coefficients are drawn one level down."""
    if not names:
        return scalars
    lower = tower(names[:-1], scalars)
    return st.one_of(lower, st.lists(lower, min_size=1, max_size=3).map(lambda cs: UniPoly(names[-1], cs)))


#: Rationals with up to 40-digit numerators and denominators.
LONG_RATIONALS = st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40))


def with_zero_rows(entries, n):
    """n x n lists of ``entries`` in which any row may be zero."""
    row = st.one_of(st.just([Fraction(0)] * n), st.lists(entries, min_size=n, max_size=n))
    return st.lists(row, min_size=n, max_size=n)


def x_poly(coeffs, min_degree, max_degree):
    """Polynomials in x of the given degree range with a nonzero lead."""
    lead = coeffs.filter(lambda c: c != 0)
    return st.tuples(st.lists(coeffs, min_size=min_degree, max_size=max_degree), lead).map(
        lambda t: UniPoly("x", t[0] + [t[1]])
    )


def square_matrices(entries, max_size):
    return st.integers(1, max_size).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
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
    with pytest.raises(ValidationError, match=r"^inexact division: remainder 1$"):
        exact_div(p + 1, Z - 1)
    with pytest.raises(ValidationError, match=r"^inexact division: remainder -1$"):
        UniPoly("eta", [1, Z]).div_mod(UniPoly("eta", [1, Z + 1]))
    with pytest.raises(ValidationError, match="^polynomial division by zero$"):
        ETA.div_mod(UniPoly("z"))


# -- the coercion rule -----------------------------------------------------------

TOWER = tower(["z", "eta", "x"])


def _level(e) -> int:
    return VAR_ORDER[e.var] if isinstance(e, UniPoly) else -1


def _representations(e):
    """``e``, its canonical element, and ``e`` as a constant in every variable at or above its own."""
    return [e, as_element(e)] + [as_poly(e, v) for v in VAR_ORDER if VAR_ORDER[v] >= _level(e)]


def _is_canonical(e) -> bool:
    return isinstance(e, Fraction) or (isinstance(e, UniPoly) and e.degree >= 1)


@given(st.one_of(TOWER, st.integers(-5, 5)))
def test_as_element_is_idempotent(e):
    once = as_element(e)
    again = as_element(once)
    assert _is_canonical(once) and type(again) is type(once) and again == once


@given(TOWER, st.sampled_from(sorted(VAR_ORDER)))
def test_as_poly_keeps_the_value_at_or_above_its_variable(e, var):
    assume(VAR_ORDER[var] >= _level(e))
    p = as_poly(e, var)
    assert p.var == var and p == e and e == p
    if isinstance(e, UniPoly) and e.var == var:
        assert p is e


@given(TOWER, TOWER)
@settings(deadline=None)
def test_equality_is_symmetric_and_agrees_with_as_element(a, b):
    assert (a == b) == (b == a) == (as_element(a) == as_element(b))
    assert (a != b) == (not a == b)


@given(TOWER)
@settings(deadline=None)
def test_equality_holds_across_representations(e):
    for r, s in itertools.product(_representations(e), repeat=2):
        assert r == s and s == r and as_element(r) == as_element(s)


def test_constants_equal_their_values_in_every_representation():
    three = UniPoly("eta", [3])
    assert three == Fraction(3) and Fraction(3) == three and three == 3 and 3 == three
    wrapped = UniPoly("eta", [Z + 1])
    assert wrapped == Z + 1 and Z + 1 == wrapped and as_element(wrapped) is wrapped.coeffs[0]
    assert ETA != Z and Z != ETA and ETA + 1 != 1 and UniPoly("x", [ETA]) != Z


nonzero_scalars = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(lambda c: c != 0)
divisors = st.one_of(
    nonzero_scalars,
    st.tuples(st.sampled_from(sorted(VAR_ORDER)), nonzero_scalars).map(lambda t: UniPoly(t[0], [t[1]])),
    TOWER.filter(lambda e: isinstance(e, UniPoly) and e.degree >= 1),
)


@given(TOWER, divisors)
@settings(max_examples=60, deadline=None)
def test_exact_div_undoes_a_product(a, b):
    assert exact_div(a * b, b) == a


def test_operands_outside_the_tower_are_left_to_the_other_side():
    assert Z * RingMatrix.identity(2) == RingMatrix.diagonal([Z, Z])
    assert (Z == None) is False  # noqa: E711


@pytest.mark.parametrize("value", [True, False])
def test_boolean_coefficients_are_refused(value):
    with pytest.raises(ValidationError, match=f"cannot interpret {value} as an exact scalar"):
        UniPoly("z", [1, value])


def test_unsupported_coefficient_gets_the_scalar_message():
    with pytest.raises(ValidationError, match="cannot interpret 1.5 as an exact scalar"):
        UniPoly("z", [1.5])


def test_as_poly_refuses_a_higher_variable_but_collapses_a_constant():
    with pytest.raises(ValidationError, match="coefficient in 'eta' cannot sit inside a polynomial in 'z'"):
        as_poly(ETA + Z, "z")
    assert as_poly(UniPoly("eta", [Z]), "z") == Z and as_poly(UniPoly("eta", [2]), "z") == 2
    with pytest.raises(ValidationError, match="coefficient in 'z' cannot sit inside a polynomial in 'z'"):
        UniPoly("z", [UniPoly("z", [1])])


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
    assert resultant(lin, g) == sum(a * c**k for k, a in enumerate(g.coeffs))


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


def test_resultant_with_a_constant_is_its_power():
    """A constant c against a polynomial of degree n: the Sylvester matrix is
    c times the n x n identity, in either order, and Res(c, d) = 1."""
    g = UniPoly("x", [ETA, Z, 0, 1])
    for c, expected in ((Fraction(-2, 3), Fraction(-8, 27)), (Z + ETA, (Z + ETA) ** 3)):
        const = UniPoly("x", [c])
        assert resultant(const, g) == expected and resultant(g, const) == expected
    assert resultant(UniPoly("x", [Z]), UniPoly("x", [2])) == 1


def test_resultant_rejects_zero_input():
    with pytest.raises(ValidationError):
        resultant(UniPoly("x"), UniPoly("x", [1, 1]))


# -- polynomial products and long division against the Fraction loops they replace

#: Numerators and denominators up to 10^12, so the integer scales are big.
huge_rationals = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**12))


def operand_coeffs(names):
    """Elements of Q[names]: zero, small and huge rationals, and polynomials
    of degree -1 (zero) to 3 in each variable."""
    scalars = st.one_of(st.just(Fraction(0)), rationals, huge_rationals)
    if not names:
        return scalars
    return st.one_of(operand_coeffs(names[:-1]), polynomial_operands(names))


def polynomial_operands(names):
    """Polynomials in ``names[-1]`` over Q[names[:-1]], the zero polynomial
    and constants included."""
    return st.lists(operand_coeffs(names[:-1]), max_size=4).map(lambda cs: UniPoly(names[-1], cs))


#: Polynomials at depths 1 to 3, in z, eta over Q[z], x over Q[z][eta], and eta over Q.
OPERANDS = st.one_of(*(polynomial_operands(n) for n in (["z"], ["z", "eta"], ["z", "eta", "x"], ["eta"])))


def loop_product(a, b):
    """The product of two tower elements by the Fraction double loop, with
    this function for the products of coefficients."""
    if not isinstance(a, UniPoly) and not isinstance(b, UniPoly):
        return as_fraction(a) * as_fraction(b)
    a, b = _as_poly_pair(a, b)
    out = [Fraction(0)] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] = out[i + j] + loop_product(ca, cb)
    return UniPoly(a.var, out)


def loop_exact_div(a, b):
    if not isinstance(b, UniPoly):
        return loop_product(a, 1 / b)
    q, r = loop_div_mod(*_as_poly_pair(a, b))
    if not r.is_zero:
        raise ValidationError(f"inexact division: remainder {r}")
    return q


def loop_div_mod(a, b):
    """Long division that subtracts a monomial multiple of ``b`` per step."""
    q, r = UniPoly(a.var), a
    while not r.is_zero and r.degree >= b.degree:
        mono = UniPoly(a.var, [Fraction(0)] * (r.degree - b.degree) + [loop_exact_div(r.lead, b.lead)])
        q, r = q + mono, r - loop_product(mono, b)
    return q, r


def outcome(fn):
    """The value of ``fn()`` with its ``repr``, or the error text."""
    try:
        value = fn()
    except ValidationError as exc:
        return "error", str(exc)
    return value, repr(value)


@given(OPERANDS, st.one_of(OPERANDS, operand_coeffs([])))
@settings(max_examples=150, deadline=None)
def test_polynomial_product_matches_the_fraction_double_loop(a, b):
    expected = loop_product(a, b)
    for got in (a * b, b * a):
        assert got == expected and repr(got) == repr(expected) and got.var == expected.var


@given(OPERANDS, OPERANDS.filter(lambda b: not b.is_zero), OPERANDS)
@settings(max_examples=150, deadline=None)
def test_div_mod_matches_the_monomial_loop(a, b, c):
    for dividend in (a, loop_product(c, b), loop_product(c, b) + a):
        got = outcome(lambda: dividend.div_mod(b))
        assert got == outcome(lambda: loop_div_mod(*_as_poly_pair(dividend, b)))
        if got[0] != "error":
            q, r = got[0]
            assert loop_product(q, b) + r == dividend
            assert r.is_zero or r.degree < as_poly(b, r.var).degree


# -- pairwise root sums against the Fraction Newton route they replace ------------

#: Large denominators, so that the integer scale L and its powers are big.
wide_rationals = st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**9))


def pairwise_coeffs(names):
    """Coefficients over Q[names]: zero, small and wide rationals, and
    polynomials of degree 0 or 1 in each variable."""
    scalars = st.one_of(st.just(Fraction(0)), rationals, wide_rationals)
    if not names:
        return scalars
    lower = pairwise_coeffs(names[:-1])
    return st.one_of(lower, st.lists(lower, min_size=1, max_size=2).map(lambda cs: UniPoly(names[-1], cs)))


def monic(names, var):
    """Monic polynomials in ``var`` of degree 1 to 5 over Q[names]."""
    return st.lists(pairwise_coeffs(names), min_size=1, max_size=5).map(
        lambda cs: UniPoly(var, cs + [Fraction(1)])
    )


PAIRWISE_CASES = [
    pytest.param(monic([], "eta"), id="eta-over-Q"),
    pytest.param(monic(["z"], "eta"), id="eta-over-Qz"),
    pytest.param(monic(["z", "eta"], "x"), id="x-over-Qzeta"),
]


def naive_pairwise_sums(f):
    """Newton's identities in ``Fraction`` arithmetic over the tower: power
    sums p_k of the roots of ``f``, S_k = (sum_j C(k, j) p_j p_(k-j) - 2^k p_k) / 2
    for the pairwise sums, and the monic polynomial rebuilt from S_1..S_m."""
    n = f.degree
    m = n * (n - 1) // 2
    c = [f.coeff(n - k) for k in range(n + 1)] + [Fraction(0)] * m  # c[k]: v^(n-k)
    p = [Fraction(n)]
    for k in range(1, m + 1):
        p.append(-sum((c[i] * p[k - i] for i in range(1, k)), k * c[k]))
    s = [(sum(comb(k, j) * p[j] * p[k - j] for j in range(k + 1)) - 2**k * p[k]) * Fraction(1, 2) for k in range(m + 1)]
    out = [Fraction(1)]  # leading coefficient first
    for k in range(1, m + 1):
        out.append(sum((out[i] * s[k - i] for i in range(k)), Fraction(0)) * Fraction(-1, k))
    return UniPoly(f.var, out[::-1])


@pytest.mark.parametrize("polys", PAIRWISE_CASES)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_pairwise_sum_poly_matches_the_fraction_newton_route(polys, data):
    f = data.draw(polys)
    result = pairwise_sum_poly(f)
    expected = naive_pairwise_sums(f)
    assert result == expected and repr(result) == repr(expected)


@given(st.lists(st.one_of(rationals, wide_rationals, tower(["z"])), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_pairwise_sum_poly_of_a_product_of_linear_factors(roots):
    """Roots in Q or Q[z], so the pairwise sums are known without power sums."""
    f = UniPoly("eta", [1])
    for r in roots:
        f = f * (ETA - r)
    expected = UniPoly("eta", [1])
    for a, b in itertools.combinations(roots, 2):
        expected = expected * (ETA - a - b)
    assert pairwise_sum_poly(f) == expected


@given(st.lists(tower(["z", "eta"]), min_size=2, max_size=4))
@settings(max_examples=30, deadline=None)
def test_pairwise_sum_poly_of_linear_factors_over_two_variables(roots):
    """Roots of degree up to 2 in z and eta, so the packed result needs
    several slots of z, the inner variable, per power of eta."""
    x = UniPoly.variable("x")
    f = UniPoly("x", [1])
    for r in roots:
        f = f * (x - r)
    expected = UniPoly("x", [1])
    for a, b in itertools.combinations(roots, 2):
        expected = expected * (x - a - b)
    assert pairwise_sum_poly(f) == expected


def test_pairwise_sum_poly_small_degrees():
    assert pairwise_sum_poly(UniPoly("eta", [1])) == 1
    assert pairwise_sum_poly(ETA + Fraction(3, 7)) == 1
    assert pairwise_sum_poly(ETA**2 + Fraction(5, 3) * ETA + 11) == ETA + Fraction(5, 3)
    assert pairwise_sum_poly(ETA**3 - 7 * ETA + 6) == ETA**3 - 7 * ETA - 6  # roots 1, 2, -3: sums 3, -1, -2
    pair = pairwise_sum_poly(UniPoly("x", [ETA, Z, 1]))
    assert pair.var == "x" and pair == UniPoly("x", [Z, 1])


@pytest.mark.parametrize("a", [Fraction(10**40 + 1, 7), 10**25 * Z - Fraction(3, 10**15)], ids=["Q", "Qz"])
def test_pairwise_sum_poly_of_a_fourfold_root(a):
    """Six pairwise sums 2a, with coefficients of more than 100 digits."""
    assert pairwise_sum_poly((ETA - a) ** 4) == (ETA - 2 * a) ** 6


@pytest.mark.parametrize(
    "f",
    [UniPoly("eta"), UniPoly("eta", [1, 2]), UniPoly("eta", [0, 0, Fraction(1, 2)]), UniPoly("eta", [1, Z])],
    ids=["zero", "lead-2", "lead-half", "lead-z"],
)
def test_pairwise_sum_poly_requires_a_monic_polynomial(f):
    with pytest.raises(ValidationError, match="^pairwise root sums require a monic polynomial$"):
        pairwise_sum_poly(f)


def pairwise_degree_bound(m, degrees):
    """floor(m max_i d_i / i) for the degrees d_1, .., d_n of C_1, .., C_n."""
    return max(m * d // i for i, d in enumerate(degrees, 1))


@pytest.mark.parametrize(
    "f,top",
    [
        (ETA**2 + (10**30 * Z**3 - 1) * ETA, 3),  # E_1 = -C_1: degree 1 * 3 / 1
        (ETA**4 + (10**20 * Z**2 + Fraction(1, 3)) * ETA, 4),  # E_6 = -C_3^2: degree 6 * 2 / 3
        (ETA**4 + Fraction(7, 10**12) * Z, 1),  # E_4 = -4 C_4: degree floor(6 * 1 / 4)
        (ETA**4 + (5 * Z**2 - 3) * ETA**2 + Z**3 * ETA + 10**15 * Z**4, 6),  # E_6 = -C_3^2: 6 * 3 / 3
    ],
    ids=["linear", "cubic-term", "floor", "so6-shape"],
)
def test_pairwise_sum_poly_reaches_its_degree_bound(f, top):
    """Coefficients whose degree in z is exactly floor(m max_i deg(C_i) / i),
    with long numerators, so the z slots that bound allows are all used."""
    n = f.degree
    m = n * (n - 1) // 2
    degrees = [as_poly(f.coeff(n - i), "z").degree for i in range(1, n + 1)]
    assert pairwise_degree_bound(m, [max(d, 0) for d in degrees]) == top
    result = pairwise_sum_poly(f)
    assert max(as_poly(c, "z").degree for c in result.coeffs) == top
    expected = naive_pairwise_sums(f)
    assert result == expected and repr(result) == repr(expected)


def pairwise_sum_replay(f):
    """The steps of ``pairwise_sum_poly`` on the packed integers C_k, with
    the halving of each S_k and each Newton division by k a ``divmod``;
    returns its result and the remainders."""
    n = f.degree
    m = n * (n - 1) // 2
    coeffs = f.coeffs[-2::-1]
    names, scales, accs = _survey([(c,) for c in coeffs])
    scale = lcm(*scales)
    shifts = {}
    if names:
        norms = [acc[-1] // s * scale**k for k, (acc, s) in enumerate(zip(accs, scales), 1)]
        r = max(-(-norm.bit_length() // k) for k, norm in enumerate(norms, 1))
        shifts = _shifts(names, (1 + 2 ** (r + 2)) ** m, [pairwise_degree_bound(m, v) for v in zip(*accs)])
    remainders = []

    def divide(x, k):
        q, rem = divmod(x, k)
        remainders.append(rem)
        return q

    c = [None] + [_pack(e, shifts, scale) * scale ** (k - 1) for k, e in enumerate(coeffs, 1)] + [0] * (m - n)
    p = [n]
    for k in range(1, m + 1):
        p.append(-k * c[k] - sum(c[i] * p[k - i] for i in range(1, k)))
    s = [None]
    for k in range(1, m + 1):
        s.append(divide(sum(comb(k, j) * p[j] * p[k - j] for j in range(k + 1)) - 2**k * p[k], 2))
    e = [1]
    for k in range(1, m + 1):
        e.append(divide(-sum(e[i] * s[k - i] for i in range(k)), k))
    return UniPoly(f.var, [_unpack(e[k], names, shifts, scale**k) for k in range(m, -1, -1)]), remainders


@pytest.mark.parametrize("polys", PAIRWISE_CASES)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_pairwise_sum_divisions_are_exact(polys, data):
    f = data.draw(polys)
    replay, remainders = pairwise_sum_replay(f)
    assert replay == pairwise_sum_poly(f)
    assert all(rem == 0 for rem in remainders)


# -- the one entry into the integer kernels ------------------------------------


def tower_vars(e) -> set:
    """The variables of the polynomials in ``e``, zero and constant ones included."""
    if isinstance(e, UniPoly):
        return {e.var}.union(*map(tower_vars, e.coeffs))
    return set()


def leaf_denominators(e) -> list:
    if isinstance(e, UniPoly):
        return [d for c in e.coeffs for d in leaf_denominators(c)]
    return [e.denominator]


def leaf_numerators(e) -> list:
    if isinstance(e, UniPoly):
        return [n for c in e.coeffs for n in leaf_numerators(c)]
    return [e.numerator]


def degree_in(e, var: str) -> int:
    """The largest degree of a polynomial in ``var`` inside ``e``, 0 for the
    zero polynomial and when there is none."""
    if not isinstance(e, UniPoly):
        return 0
    own = max(e.degree, 0) if e.var == var else 0
    return max([own] + [degree_in(c, var) for c in e.coeffs])


#: Elements over every subset of the tower's variables: zero, small and huge
#: rationals, and polynomials of degree -1 (zero) to 3, constants included.
MIXED_ELEMENTS = st.sampled_from(
    [names for k in range(4) for names in itertools.combinations(("z", "eta", "x"), k)]
).flatmap(operand_coeffs)
RATIONAL_LINES = st.lists(st.lists(st.one_of(operand_coeffs(()), st.integers()), max_size=4), min_size=1, max_size=4)
TOWER_LINES = st.lists(st.lists(st.one_of(MIXED_ELEMENTS, st.integers()), max_size=4), min_size=1, max_size=4)


@pytest.mark.parametrize("lines", [RATIONAL_LINES, TOWER_LINES], ids=["rational", "tower"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_survey_then_pack_and_unpack_round_trip(lines, data):
    """The survey finds the variables, the scales, the bounds and the degrees,
    and every element packed with its line's scale unpacks to itself."""
    lines = data.draw(lines)
    names, scales, accs = _survey(lines)
    present = set().union(*(tower_vars(e) for line in lines for e in line))
    assert names == tuple(sorted(present, key=VAR_ORDER.get, reverse=True))
    assert len(scales) == len(lines)
    for line, scale in zip(lines, scales):
        assert scale == lcm(*(d for e in line for d in leaf_denominators(e)))
    shifts = {}
    if names:
        for line, scale, acc in zip(lines, scales, accs):
            assert acc[-1] == scale * sum(abs(n) for e in line for n in leaf_numerators(e))
            assert acc[:-1] == [max([degree_in(e, v) for e in line], default=0) for v in VAR_ORDER]
        top = [max(column) for column in zip(*accs)]
        shifts = _shifts(names, top[-1], top)
    else:
        assert accs is None
    for line, scale in zip(lines, scales):
        for e in line:
            packed = _pack(e, shifts, scale)
            back = _unpack(packed, names, shifts, scale)
            want = as_element(e)
            assert type(packed) is int
            assert back == e and type(back) is type(want) and repr(back) == repr(want)


def schoolbook_products(rows, cols):
    """The table of dot products in Fraction arithmetic, each entry a sum of
    ``loop_product`` terms from Fraction(0), read by ``as_element``."""
    return [[as_element(sum((loop_product(a, b) for a, b in zip(r, c)), Fraction(0))) for c in cols] for r in rows]


@pytest.mark.parametrize("names", [[], ["z"], ["z", "eta"], ["z", "eta", "x"]], ids=["Q", "Qz", "Qzeta", "x"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_products_match_the_fraction_schoolbook_table(names, data):
    """Tables of 1x1 to 3x3 entries over lines of length 0 to 3, with int
    entries, huge rationals, zero and constant polynomials, and zero lines."""
    entries = st.one_of(st.integers(-10**15, 10**15), operand_coeffs(names))
    m, k, n = data.draw(st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(1, 3)), label="shape")
    rows, cols = data.draw(grid(entries, m, k), label="rows"), data.draw(grid(entries, n, k), label="cols")
    if data.draw(st.booleans(), label="zero row"):
        rows[0] = [0] * k
    if data.draw(st.booleans(), label="zero column"):
        cols[-1] = [Fraction(0)] * k
    got, want = products(rows, cols), schoolbook_products(rows, cols)
    assert got == want
    assert [[(type(e), repr(e)) for e in line] for line in got] == [[(type(e), repr(e)) for e in line] for line in want]


@pytest.mark.parametrize(
    "entry,outcome",
    [(True, None), (False, None), (1.5, None), (None, None), ("x", None), ("1/2", Fraction(1, 2)), (3, Fraction(3))],
    ids=["True", "False", "float", "None", "text", "ratio-string", "int"],
)
@pytest.mark.parametrize("side", ["row", "column"])
def test_products_reads_each_entry_as_a_tower_element(entry, outcome, side):
    """An entry that is not a Fraction, int or polynomial goes through
    ``as_element``: booleans, floats and None are refused, "1/2" is read."""
    rows, cols = [(Z, entry)], [(Z, 2)]
    if side == "column":
        rows, cols = cols, rows
    if outcome is None:
        with pytest.raises(ValidationError):
            products(rows, cols)
    else:
        assert products(rows, cols) == [[Z * Z + 2 * outcome]]


# -- determinants --------------------------------------------------------------


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=30)
def test_det_matches_permutation_expansion(rows):
    m = RingMatrix(rows)
    assert m.det() == naive_det(m)


@given(square_matrices(st.one_of(st.just(Fraction(0)), rationals), 5), st.data())
@settings(max_examples=40, deadline=None)
def test_rational_det_with_zero_rows_and_zero_pivots(rows, data):
    """A rational matrix skips the packing; zero leading entries send the
    elimination through its row swaps, and a zero row through its early exit."""
    n = len(rows)
    if data.draw(st.booleans(), label="zero first pivot"):
        rows[0][0] = Fraction(0)
    for i in data.draw(st.sets(st.integers(0, n - 1), max_size=1), label="zero rows"):
        rows[i] = [Fraction(0)] * n
    m = RingMatrix(rows)
    assert m.det() == naive_det(m)


def test_interpolated_det_matches_bareiss_over_polynomials():
    # a negative coefficient (-7 z^2) below a positive leading one, so the
    # packed determinant has digits of both signs
    m = RingMatrix([[Z, Z + 1, 2], [0, Z * Z, 1], [3, Z, Z - 4]])
    assert m.det() == naive_det(m)


def test_det_of_a_matrix_that_vanishes_at_an_interpolation_node():
    # every entry is a multiple of eta, so the packed determinant's lowest
    # slots of eta are zero digits
    m = RingMatrix([[ETA * Z, ETA], [ETA, ETA * Z]])
    assert m.det() == ETA**2 * (Z * Z - 1) == naive_det(m)


def test_det_coefficient_equal_to_its_l1_bound():
    # the product of the rows' l1 norms is 3 * 5 * 7 = 105, the one
    # coefficient; without the sign bit its slot would read it as negative
    assert RingMatrix.diagonal([-3 * Z**2, 5 * ETA * Z, -7]).det() == 105 * ETA * Z**3


def test_det_with_a_zero_row_over_polynomials():
    m = RingMatrix([[ETA * Z, 1, Z - ETA], [0, 0, 0], [ETA**2, Fraction(1, 3) * Z, 2]])
    assert m.det() == 0 == naive_det(m)


def test_det_over_three_variables():
    x = UniPoly.variable("x")
    m = RingMatrix([
        [x + ETA, Z, Fraction(1, 2)],
        [ETA * Z, x * x - Z, -ETA],
        [3, x * ETA - Z * Z, Fraction(2, 3) * x],
    ])
    assert m.det() == naive_det(m)


@given(st.lists(st.lists(tower(["z", "eta"]), min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_det_matches_permutation_expansion_over_polynomials(rows):
    m = RingMatrix(rows)
    assert m.det() == naive_det(m)


@given(st.lists(st.lists(tower(["z", "eta", "x"]), min_size=2, max_size=2), min_size=2, max_size=2))
@settings(max_examples=30, deadline=None)
def test_det_matches_permutation_expansion_over_three_variables(rows):
    m = RingMatrix(rows)
    assert m.det() == naive_det(m)


def test_inverse_round_trip():
    m = RingMatrix([[1, 2, 0], [0, 1, 5], [7, 0, 1]])
    assert m * m.inverse() == RingMatrix.identity(3)
    with pytest.raises(ValidationError):
        RingMatrix([[1, 1], [1, 1]]).inverse()


@given(square_matrices(rationals, 6))
@settings(max_examples=40, deadline=None)
def test_inverse_is_two_sided(rows):
    m = RingMatrix(rows)
    assume(m.det() != 0)
    inv, ident = m.inverse(), RingMatrix.identity(m.rows)
    assert m * inv == ident and inv * m == ident


@given(square_matrices(rationals, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_rank_deficient_inverse_is_singular(rows, data):
    n = len(rows)
    k = data.draw(st.integers(0, n - 1))
    weights = data.draw(st.lists(rationals, min_size=n, max_size=n))
    others = [(w, row) for i, (w, row) in enumerate(zip(weights, rows)) if i != k]
    rows[k] = [sum((w * row[j] for w, row in others), Fraction(0)) for j in range(n)]
    with pytest.raises(ValidationError, match="^matrix is singular$"):
        RingMatrix(rows).inverse()


def test_inverse_guards_in_order():
    with pytest.raises(ValidationError, match="^matrix inversion requires rational entries$"):
        RingMatrix([[Z, 0], [0, 1]]).inverse()
    with pytest.raises(ValidationError, match="^matrix inversion requires rational entries$"):
        RingMatrix([[Z, 0]]).inverse()
    with pytest.raises(ValidationError, match="^inverse requires a square matrix$"):
        RingMatrix([[1, 0]]).inverse()


# -- products and row reduction against the Fraction loops they replace ---------


def naive_product(a, b):
    """The triple loop, with ``loop_product`` for the entry products."""
    return [
        [sum((loop_product(a[i][k], b[k][j]) for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def naive_rref(rows):
    """Gauss-Jordan in Fraction arithmetic: normalize each pivot row, clear
    its column everywhere else."""
    work = [list(row) for row in rows]
    pivots = []
    for c in range(len(work[0])):
        r = len(pivots)
        if r == len(work):
            break
        found = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        work[r] = [e / work[r][c] for e in work[r]]
        for i in range(len(work)):
            f = work[i][c]
            if i != r and f != 0:
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
    return work, tuple(pivots)


def naive_kernel(rows):
    """The canonical kernel basis of ``naive_rref``: unit in each free column."""
    work, pivots = naive_rref(rows)
    n = len(work[0])
    return [
        tuple(Fraction(int(c == fc)) if c not in pivots else -work[pivots.index(c)][fc] for c in range(n))
        for fc in range(n)
        if fc not in pivots
    ]


def grid(entries, rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def product_pair(entries):
    """Factors of shapes m x k and k x n, each side 1 to 4."""
    return st.tuples(*(st.integers(1, 4) for _ in range(3))).flatmap(
        lambda s: st.tuples(grid(entries, s[0], s[1]), grid(entries, s[1], s[2]))
    )


@st.composite
def low_rank(draw, shape=st.tuples(st.integers(1, 5), st.integers(1, 7)), entries=rationals):
    """A matrix of the drawn shape whose rows are rational combinations of
    ``rank`` drawn rows; the rank may be 0 (the zero matrix)."""
    m, n = draw(shape)
    rank = draw(st.integers(0, min(m, n)))
    base = draw(grid(entries, rank, n))
    weights = draw(grid(st.one_of(st.just(Fraction(0)), rationals), m, rank))
    return [[sum((w * row[j] for w, row in zip(ws, base)), Fraction(0)) for j in range(n)] for ws in weights]


zero_or_rational = st.one_of(st.just(Fraction(0)), rationals)
any_rank = st.one_of(
    low_rank(), st.tuples(st.integers(1, 5), st.integers(1, 7)).flatmap(lambda s: grid(zero_or_rational, *s))
)


@pytest.mark.parametrize("names", [[], ["z"], ["z", "eta"], ["z", "eta", "x"]], ids=["Q", "Qz", "Qzeta", "Qzetax"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_product_matches_the_triple_loop(names, data):
    a, b = data.draw(product_pair(st.one_of(st.just(Fraction(0)), tower(names))))
    got = RingMatrix(a) * RingMatrix(b)
    want = RingMatrix(naive_product(a, b))
    assert got == want and repr(got) == repr(want)


@given(product_pair(tower(["z"])), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_product_refuses_mismatched_shapes(pair, extra):
    a, b = pair
    wider = [row + [Fraction(1)] * extra for row in a]
    with pytest.raises(ValidationError, match="^matrix shape mismatch in product$"):
        RingMatrix(wider) * RingMatrix(b)


def rref(rows):
    """The reduced row echelon form and pivots that ``_rref_int`` gives on
    the stored rows: its reduced rows divided by its last pivot."""
    work, pivots, d = _rref_int(RingMatrix(rows)._ints)
    return RingMatrix([[Fraction(a, d) for a in row] for row in work]), pivots


@given(any_rank)
@settings(max_examples=80, deadline=None)
def test_rref_and_nullspace_match_fraction_gauss_jordan(rows):
    m = RingMatrix(rows)
    work, pivots = naive_rref(rows)
    reduced, got_pivots = rref(rows)
    assert got_pivots == pivots
    assert reduced == RingMatrix(work) and repr(reduced) == repr(RingMatrix(work))
    kernel = (m.transpose() * m).eigenvectors(0)  # the kernel of M^T M is the kernel of M over Q
    assert len(kernel) == m.cols - len(pivots)
    for v in kernel:
        assert m * RingMatrix([[e] for e in v]) == RingMatrix([[0]] * m.rows)


def test_rref_of_zero_and_wide_matrices():
    zero = RingMatrix([[0, 0, 0], [0, 0, 0]])
    assert rref(zero.entries) == (zero, ())
    assert (zero.transpose() * zero).eigenvectors(0) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    wide = RingMatrix([[2, 4, 1, 3], [1, 2, 0, 1]])
    assert rref(wide.entries) == (RingMatrix([[1, 2, 0, 1], [0, 0, 1, 1]]), (0, 2))


@given(st.one_of(low_rank(st.integers(1, 5).map(lambda n: (n, n))), square_matrices(zero_or_rational, 5)))
@settings(max_examples=80, deadline=None)
def test_inverse_matches_fraction_gauss_jordan(rows):
    n = len(rows)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    work, pivots = naive_rref([row + ident[i] for i, row in enumerate(rows)])
    if pivots != tuple(range(n)):
        with pytest.raises(ValidationError, match="^matrix is singular$"):
            RingMatrix(rows).inverse()
    else:
        assert RingMatrix(rows).inverse() == RingMatrix([row[n:] for row in work])


def fraction_free_replay(rows):
    """The steps of ``_rref_int`` with every division a ``divmod``; returns
    its result and the remainders."""
    work = [list(r) for r in rows]
    pivots, prev, remainders = [], 1, []
    for c in range(len(work[0])):
        r = len(pivots)
        found = next((i for i in range(r, len(work)) if work[i][c]), None)
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        pivot = work[r][c]
        for i in range(len(work)):
            if i != r:
                f = work[i][c]
                steps = [divmod(pivot * a - f * b, prev) for a, b in zip(work[i], work[r])]
                work[i] = [q for q, _ in steps]
                remainders += [rem for _, rem in steps]
        pivots.append(c)
        prev = pivot
    return (work, tuple(pivots), prev), remainders


@given(st.one_of(any_rank, low_rank(entries=st.fractions(-40, 40, max_denominator=9))))
@settings(max_examples=100, deadline=None)
def test_fraction_free_divisions_are_exact(rows):
    int_rows = [[_pack(e, {}, scale) for e in row] for row, scale in zip(rows, _survey(rows)[1])]
    result, remainders = fraction_free_replay(int_rows)
    assert result == _rref_int(int_rows)
    assert all(rem == 0 for rem in remainders)


# -- characteristic polynomial ---------------------------------------------------


def test_char_poly_identity_and_diagonal():
    assert RingMatrix.identity(2).char_poly() == (ETA - 1) ** 2
    assert RingMatrix.diagonal([1, -1, 2, -2]).char_poly() == ETA**4 - 5 * ETA**2 + 4


def test_char_poly_of_polynomial_block():
    beta, gamma = Z + 2, 3 * Z
    m = RingMatrix([[0, beta], [gamma, 0]])
    assert m.char_poly() == ETA * ETA - beta * gamma


def test_char_poly_rejects_spectral_variable_entries():
    with pytest.raises(ValidationError):
        RingMatrix([[ETA, 0], [0, ETA]]).char_poly()


def test_char_poly_rejects_entries_above_the_spectral_variable():
    with pytest.raises(ValidationError, match=r"\['x'\]"):
        RingMatrix([[UniPoly.variable("x"), 0], [0, 1]]).char_poly()


def test_char_poly_of_1x1():
    assert RingMatrix([[Fraction(-3, 2)]]).char_poly() == ETA + Fraction(3, 2)
    assert RingMatrix([[Z * Z]]).char_poly() == ETA - Z * Z


def assert_char_poly_is_det_of_eta_minus(rows):
    m = RingMatrix(rows)
    shifted = RingMatrix([[ETA - e if i == j else -e for j, e in enumerate(row)] for i, row in enumerate(m.entries)])
    p = m.char_poly()
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


@given(
    st.sampled_from([(), ("z",)]).flatmap(
        lambda names: square_matrices(st.one_of(st.just(Fraction(0)), tower(names, LONG_RATIONALS)), 3)
    )
)
@settings(max_examples=30, deadline=None)
def test_char_poly_with_long_coefficients_matches_permutation_expansion(rows):
    """40-digit entries over Q and Q[z]: the same result, value and repr, as
    the determinant of the matrix with eta - m_ii on the diagonal."""
    assert_char_poly_is_det_of_eta_minus(rows)
    m = RingMatrix(rows)
    shifted = RingMatrix(
        [[UniPoly("eta", [-e, 1]) if i == j else -e for j, e in enumerate(row)] for i, row in enumerate(m.entries)]
    )
    assert repr(m.char_poly()) == repr(shifted.det())


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cayley_hamilton(n, rng_factory):
    rng = rng_factory(n)
    m = RingMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)])
    p = m.char_poly()
    acc = RingMatrix([[0] * n] * n)
    power = RingMatrix.identity(n)
    for c in p.coeffs:
        acc = acc + power.scale(c)
        power = power * m
    assert acc.is_zero()


# -- pfaffian ------------------------------------------------------------------


def test_pfaffian_2x2_and_zero():
    c = Fraction(7, 3)
    assert pfaffian(RingMatrix([[0, c], [-c, 0]])) == c
    assert pfaffian(RingMatrix([[0] * 4] * 4)) == 0


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
        pfaffian(RingMatrix([[0] * 3] * 3))


def antisymmetric_rows(draw, names, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = draw(tower(names))
            rows[i][j], rows[j][i] = e, -e
    for k in draw(st.sets(st.integers(0, n - 1), max_size=2), label="zero rows"):
        for j in range(n):
            rows[k][j] = rows[j][k] = Fraction(0)
    return rows


@given(st.sampled_from([(), ("z",), ("z", "eta")]), st.sampled_from([2, 4, 6]), st.data())
@settings(max_examples=60, deadline=None)
def test_pfaffian_matches_the_sum_over_matchings(names, n, data):
    """Over Q, Q[z] and Q[z][eta], with zero rows: the value of the sum over
    perfect matchings, as a canonical tower element."""
    m = RingMatrix(antisymmetric_rows(data.draw, names, n))
    expected = as_element(naive_pfaffian(m))
    assert pfaffian(m) == expected and repr(pfaffian(m)) == repr(expected)


@given(st.sampled_from([("z",), ("z", "eta")]), st.sampled_from([2, 4, 6]), st.data())
@settings(max_examples=60, deadline=None)
def test_pfaffian_refuses_what_is_not_antisymmetric(names, n, data):
    """The packed check agrees with A + A^T = 0 on matrices that are
    antisymmetric up to one changed entry, zero rows included."""
    rows = antisymmetric_rows(data.draw, names, n)
    i, j = data.draw(st.integers(0, n - 1), label="i"), data.draw(st.integers(0, n - 1), label="j")
    rows[i][j] = rows[i][j] + data.draw(tower(names), label="change")
    m = RingMatrix(rows)
    if (m + m.transpose()).is_zero():
        assert pfaffian(m) == naive_pfaffian(m)
    else:
        with pytest.raises(ValidationError, match="^pfaffian requires an antisymmetric matrix$"):
            pfaffian(m)


@pytest.mark.parametrize("upper,lower", [(Z, Fraction(-2)), (Z * Z, -ETA)], ids=["zero-rows", "row-degree"])
def test_pfaffian_refuses_near_misses(upper, lower):
    """Rows 0 and 3 are zero, so the product of the row bounds is 0: with a
    one-bit slot z would pack to 2, as -(-2) does.  Half the sum of the row
    degrees in z is 1: with z slots for degree 1 only, z^2 would pack as
    eta does."""
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    rows[1][2], rows[2][1] = upper, lower
    with pytest.raises(ValidationError, match="antisymmetric"):
        pfaffian(RingMatrix(rows))


# -- kronecker and exterior square -----------------------------------------------


def test_kronecker_examples():
    ident = RingMatrix.identity(2)
    assert kronecker(ident, ident) == RingMatrix.identity(4)
    w = RingMatrix([[0, 1], [-1, 0]])
    assert kronecker(w, w) == RingMatrix.antidiagonal([1, -1, -1, 1])
    assert kronecker(RingMatrix.diagonal([1, -1]), RingMatrix.diagonal([2, -2])) == RingMatrix.diagonal(
        [2, -2, -2, 2]
    )


def fraction_exterior_square(m: RingMatrix) -> RingMatrix:
    """The 2x2 minors in tower arithmetic, entry by entry."""
    e = m.entries
    return RingMatrix([[e[i][k] * e[j][l] - e[i][l] * e[j][k] for (k, l) in WEDGE_PAIRS] for (i, j) in WEDGE_PAIRS])


@given(
    st.sampled_from([(), ("z",), ("z", "eta")]).flatmap(
        lambda names: with_zero_rows(st.one_of(tower(names), tower(names, LONG_RATIONALS)), 4)
    )
)
@settings(max_examples=80, deadline=None)
def test_exterior_square_matches_the_fraction_minors(rows):
    """Over Q, Q[z] and Q[z][eta], with zero rows and 40-digit entries."""
    m = RingMatrix(rows)
    got, want = exterior_square(m), fraction_exterior_square(m)
    assert got == want and repr(got) == repr(want)


def test_exterior_square_minor_reaches_its_bound():
    """The minor of rows 3 z eta e1 and 3 z eta e2 is 9 z^2 eta^2: its
    coefficient is the square of the largest row bound, 3, and its degree in
    z, which sits inside eta, twice the largest row degree."""
    m = RingMatrix([[3 * Z * ETA, 0, 0, 0], [0, 3 * Z * ETA, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert exterior_square(m) == fraction_exterior_square(m)
    assert exterior_square(m).entries[0][0] == 9 * Z**2 * ETA**2


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


# -- stored rows against Fraction references --------------------------------------

#: Zero, small and huge rationals (denominators up to 10^12).
row_entries = st.one_of(st.just(Fraction(0)), rationals, huge_rationals)
#: Scalars for ``scale``, zero and negative ones included.
scalars = st.one_of(st.just(Fraction(0)), st.integers(-3, 3), rationals, huge_rationals)


@st.composite
def rational_grids(draw, rows=st.integers(1, 7), cols=None):
    """Rational lists of the drawn shape (square unless ``cols`` is given),
    with any zero rows, or the zero matrix."""
    m = draw(rows)
    n = m if cols is None else draw(cols)
    if draw(st.integers(0, 9)) == 0:
        return [[Fraction(0)] * n for _ in range(m)]
    grid = draw(st.lists(st.lists(row_entries, min_size=n, max_size=n), min_size=m, max_size=m))
    for i in draw(st.sets(st.integers(0, m - 1), max_size=2), label="zero rows"):
        grid[i] = [Fraction(0)] * n
    return grid


def assert_same(got, want_rows):
    """``got`` equals the matrix of the Fraction lists ``want_rows``, prints the
    same, and stores canonical rows: each over a positive denominator with
    no factor common to it and the row."""
    want = RingMatrix(want_rows)
    assert got == want and repr(got) == repr(want)
    assert all(d > 0 and gcd(d, *row) == 1 for row, d in zip(got._ints, got._dens))
    assert all(e.__class__ is Fraction for row in got.entries for e in row)


def triple_loop(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))] for i in range(len(a))]


def cofactor_det(rows):
    """Laplace expansion along the first row, memoised on the columns left;
    tower arithmetic, so it also serves for eta*I - M."""
    n = len(rows)
    memo = {}

    def minor(r, cols):
        if r == n:
            return Fraction(1)
        if cols not in memo:
            total = Fraction(0)
            for t, c in enumerate(cols):
                if not ring_is_zero(rows[r][c]):
                    term = rows[r][c] * minor(r + 1, cols[:t] + cols[t + 1:])
                    total = total + term if t % 2 == 0 else total - term
            memo[cols] = total
        return memo[cols]

    return minor(0, tuple(range(n)))


@given(rational_grids(cols=st.integers(1, 7)))
@settings(max_examples=60, deadline=None)
def test_stored_rows_are_the_entries_over_their_scales(rows):
    m = RingMatrix(rows)
    assert m.entries == tuple(map(tuple, rows))
    assert_same(m, rows)
    assert m.is_zero() == all(e == 0 for row in rows for e in row)


@pytest.mark.parametrize(
    "entries,message",
    [([], "matrix needs at least one row"), ([[]], "matrix rows must be non-empty and equal length"),
     ([[1, 2], [3]], "matrix rows must be non-empty and equal length"),
     ([[1], [2, 3]], "matrix rows must be non-empty and equal length"),
     ([[Z], []], "matrix rows must be non-empty and equal length")],
    ids=["no rows", "empty row", "short last row", "long last row", "polynomial"],
)
def test_stored_rows_need_a_nonempty_rectangular_grid(entries, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        RingMatrix(entries)


@given(rational_grids(cols=st.integers(1, 7)), st.data())
@settings(max_examples=60, deadline=None)
def test_rational_blocks_and_linear_images_match_the_entries(rows, data):
    """``block`` and ``linear_image`` against the same map on the Fraction
    lists; reading ``entries`` keeps no second copy of the matrix."""
    m, height, width = RingMatrix(rows), len(rows), len(rows[0])
    r0, c0 = data.draw(st.integers(0, height - 1)), data.draw(st.integers(0, width - 1))
    h, w = data.draw(st.integers(1, height - r0)), data.draw(st.integers(1, width - c0))
    assert_same(m.block(r0, c0, h, w), [row[c0:c0 + w] for row in rows[r0:r0 + h]])
    k = data.draw(st.integers(-3, 3))

    def fn(a):  # linear in the entries with integer coefficients, zeros included
        return [[k * a[i][j] - a[height - 1 - i][j] + 0 * a[0][0] for j in range(width)] for i in range(height)] + [[0] * width]

    assert_same(m.linear_image(fn), fn(rows))
    assert m.entries == tuple(map(tuple, rows)) and m._grid is None


@given(rational_grids(cols=st.integers(1, 7)), st.data())
@settings(max_examples=60, deadline=None)
def test_scaled_rows_match_the_monomial_matrix_product(rows, data):
    """Rows picked in any order, repeats included, each times a scalar."""
    order = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=7), label="order")
    factors = data.draw(st.lists(scalars, min_size=len(order), max_size=len(order)), label="factors")
    assert_same(RingMatrix(rows).scaled_rows(order, factors), [[x * f for x in rows[i]] for i, f in zip(order, factors)])


@given(st.one_of(rational_grids(), low_rank(st.integers(1, 6).map(lambda n: (n, n)), huge_rationals)), st.integers(-2, 2))
@settings(max_examples=60, deadline=None)
def test_eigenvectors_are_the_nullspace_of_the_shifted_matrix_scaled_to_integers(rows, v):
    """``eigenvectors(v)`` of B + vI against the Fraction Gauss-Jordan kernel
    of B, which for a singular B is not empty."""
    n = len(rows)
    moved = RingMatrix([[e + v if i == j else e for j, e in enumerate(row)] for i, row in enumerate(rows)])
    got, want = moved.eigenvectors(v), naive_kernel(rows)
    assert len(got) == len(want)
    for vec, canonical in zip(got, want):
        assert all(x.__class__ is int for x in vec) and len(vec) == n
        assert all((x == 0) == (y == 0) for x, y in zip(vec, canonical))
        assert len({Fraction(x) / y for x, y in zip(vec, canonical) if y}) == 1


def test_linear_images_scaled_rows_and_eigenvectors_refuse_what_is_outside_their_contract():
    m, poly = RingMatrix([[1, Fraction(1, 2)], [3, 4]]), RingMatrix([[Z, 1], [0, 1]])
    for matrix in (m, poly):
        with pytest.raises(ValidationError, match="^matrix needs at least one row$"):
            matrix.linear_image(lambda a: [])
        with pytest.raises(ValidationError, match="^matrix rows must be non-empty and equal length$"):
            matrix.linear_image(lambda a: [[a[0][0]], []])
    assert poly.linear_image(lambda a: [[a[0][0] - a[1][1], 0]]) == RingMatrix([[Z - 1, 0]])
    with pytest.raises(ValidationError, match="^row reduction requires rational entries$"):
        poly.eigenvectors(1)
    with pytest.raises(ValidationError, match="^row scaling requires rational entries$"):
        poly.scaled_rows([0], [1])
    with pytest.raises(ValidationError, match="^matrix needs at least one row$"):
        m.scaled_rows([], [])
    with pytest.raises(ValidationError, match="^eigenvectors require a square matrix$"):
        m.block(0, 0, 1, 2).eigenvectors(0)


@pytest.mark.parametrize("v", [2.5, Fraction(5, 2), Fraction(1), True, "1", None], ids=repr)
def test_eigenvectors_refuse_an_eigenvalue_that_is_not_an_int(v):
    """An exact toolkit returns no float vector and no ``Fraction`` entry, and ``True`` is not 1."""
    with pytest.raises(ValidationError, match="^eigenvalue must be an int$"):
        RingMatrix([[3, 1], [0, Fraction(5, 2)]]).eigenvectors(v)


@given(st.tuples(*(st.integers(1, 7) for _ in range(3))).flatmap(
    lambda s: st.tuples(rational_grids(st.just(s[0]), st.just(s[1])), rational_grids(st.just(s[1]), st.just(s[2])))
))
@settings(max_examples=60, deadline=None)
def test_rational_product_matches_the_triple_loop(pair):
    a, b = pair
    assert_same(RingMatrix(a) * RingMatrix(b), triple_loop(a, b))


@given(st.tuples(st.integers(1, 7), st.integers(1, 7)).flatmap(
    lambda s: st.tuples(*(rational_grids(st.just(s[0]), st.just(s[1])) for _ in range(2)))
), scalars)
@settings(max_examples=60, deadline=None)
def test_rational_sum_difference_negation_scale_transpose_and_symmetry(pair, s):
    a, b = pair
    ma, mb = RingMatrix(a), RingMatrix(b)
    assert_same(ma + mb, [[x + y for x, y in zip(r, t)] for r, t in zip(a, b)])
    assert_same(ma - mb, [[x - y for x, y in zip(r, t)] for r, t in zip(a, b)])
    assert_same(-ma, [[-x for x in r] for r in a])
    for scaled in (ma.scale(s), ma * s, s * ma):
        assert_same(scaled, [[x * s for x in r] for r in a])
    assert_same(ma.transpose(), [list(c) for c in zip(*a)])
    assert (ma == mb) == (a == b) and ma - ma == RingMatrix([[0] * len(a[0])] * len(a))
    square = len(a) == len(a[0])
    assert ma.is_symmetric() == (square and all(a[i][j] == a[j][i] for i in range(len(a)) for j in range(i)))
    assert (ma + ma.transpose()).is_symmetric() if square else not ma.is_symmetric()


@given(rational_grids())
@settings(max_examples=60, deadline=None)
def test_rational_det_trace_and_char_poly_match_the_cofactor_expansion(rows):
    """Sizes 1-7: ``det`` against the cofactor expansion, ``trace`` against
    the diagonal sum, and ``char_poly`` against the cofactor expansion of
    eta*I - M, which up to 4x4 is also ``naive_det`` of it."""
    m, n = RingMatrix(rows), len(rows)
    det = m.det()
    assert det == cofactor_det(rows) and det.__class__ is Fraction
    assert m.trace() == sum((rows[i][i] for i in range(n)), Fraction(0))
    shifted = [[ETA - e if i == j else -e for j, e in enumerate(row)] for i, row in enumerate(rows)]
    p = m.char_poly()
    want = cofactor_det(shifted)
    assert p == want and repr(p) == repr(want)
    if n <= 4:
        assert p == naive_det(RingMatrix(shifted))


@given(st.one_of(rational_grids(), low_rank(st.integers(1, 6).map(lambda n: (n, n)), huge_rationals)))
@settings(max_examples=60, deadline=None)
def test_rational_inverse_and_nullspace_match_fraction_gauss_jordan(rows):
    n = len(rows)
    m = RingMatrix(rows)
    pivots = naive_rref(rows)[1]
    kernel, want = m.eigenvectors(0), naive_kernel(rows)
    free = [c for c in range(n) if c not in pivots]
    assert len(kernel) == len(want) and all(x.__class__ is int for vec in kernel for x in vec)
    # the last pivot d in its own free column, 0 in the others; divided by d, the canonical basis
    assert len({vec[fc] for vec, fc in zip(kernel, free)}) <= 1
    assert all(vec[c] == 0 for vec, fc in zip(kernel, free) for c in free if c != fc)
    got = [tuple(Fraction(x, vec[fc]) for x in vec) for vec, fc in zip(kernel, free)]
    assert got == want and repr(got) == repr(want)
    if pivots == tuple(range(n)):
        ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        inverse = m.inverse()
        assert_same(inverse, [row[n:] for row in naive_rref([row + ident[i] for i, row in enumerate(rows)])[0]])
        assert m * inverse == RingMatrix.identity(n) == inverse * m
    else:
        with pytest.raises(ValidationError, match="^matrix is singular$"):
            m.inverse()


@given(rational_grids(st.just(4)), rational_grids(st.integers(1, 3), st.integers(1, 3)), rational_grids(st.integers(1, 3), st.integers(1, 3)))
@settings(max_examples=60, deadline=None)
def test_rational_exterior_square_and_kronecker_match_the_fraction_loops(rows, a, b):
    m = RingMatrix(rows)
    assert_same(exterior_square(m), [list(r) for r in fraction_exterior_square(m).entries])
    assert_same(kronecker(RingMatrix(a), RingMatrix(b)), [[x * y for x in r for y in s] for r in a for s in b])


@given(st.sampled_from([2, 4, 6]), st.data())
@settings(max_examples=60, deadline=None)
def test_rational_pfaffian_matches_the_sum_over_matchings(n, data):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = data.draw(row_entries)
            rows[i][j], rows[j][i] = e, -e
    m = RingMatrix(rows)
    assert pfaffian(m) == naive_pfaffian(m) and pfaffian(m).__class__ is Fraction


@given(st.tuples(*(st.integers(1, 4) for _ in range(3))).flatmap(
    lambda s: st.tuples(rational_grids(st.just(s[0]), st.just(s[1])), grid(tower(["z"]), s[1], s[2]))
))
@settings(max_examples=40, deadline=None)
def test_rational_by_polynomial_products_match_the_triple_loop(pair):
    """A rational factor against a Q[z] one, in both orders: the product of
    the entries, rational rows when every entry of it is a constant."""
    a, b = pair
    for got, want in ((RingMatrix(a) * RingMatrix(b), naive_product(a, b)),
                      (RingMatrix(b).transpose() * RingMatrix(a).transpose(),
                       [list(c) for c in zip(*naive_product(a, b))])):
        want = RingMatrix(want)
        assert got == want and repr(got) == repr(want)
        assert (got._ints is None) == any(isinstance(e, UniPoly) for row in got.entries for e in row)


@given(st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda s: st.tuples(rational_grids(st.just(s[0]), st.just(s[1])), grid(tower(["z"]), *s))
), scalars, polynomial_operands(["z"]))
@settings(max_examples=40, deadline=None)
def test_rational_and_polynomial_sums_scales_kronecker_and_equality(pair, s, p):
    """A rational matrix with a Q[z] one of its shape, either side first: the
    entrywise sums and differences, the negation, scalings and trace of the
    second, the rational one scaled by a polynomial, the Kronecker products,
    ``==`` and the symmetry of the second."""
    a, b = pair
    ma, mb = RingMatrix(a), RingMatrix(b)
    for got in (mb.scale(s), mb * s, s * mb):
        want = RingMatrix([[y * s for y in t] for t in b])
        assert got == want and repr(got) == repr(want)
    for got in (ma.scale(p), ma * p, p * ma):
        want = RingMatrix([[x * p for x in r] for r in a])
        assert got == want and repr(got) == repr(want)
    for got, want in ((ma + mb, [[x + y for x, y in zip(r, t)] for r, t in zip(a, b)]),
                      (mb + ma, [[y + x for x, y in zip(r, t)] for r, t in zip(a, b)]),
                      (ma - mb, [[x - y for x, y in zip(r, t)] for r, t in zip(a, b)]),
                      (mb - ma, [[y - x for x, y in zip(r, t)] for r, t in zip(a, b)]),
                      (-mb, [[-y for y in t] for t in b]),
                      (kronecker(ma, mb), [[x * y for x in r for y in t] for r in a for t in b]),
                      (kronecker(mb, ma), [[y * x for y in t for x in r] for t in b for r in a])):
        want = RingMatrix(want)
        assert got == want and repr(got) == repr(want)
    same = all(as_element(x) == as_element(y) for r, t in zip(a, b) for x, y in zip(r, t))
    assert (ma == mb) == (mb == ma) == same
    square = len(b) == len(b[0])
    if square:
        assert mb.trace() == as_element(sum((b[i][i] for i in range(len(b))), Fraction(0)))
    assert mb.is_symmetric() == (square and all(as_element(b[i][j]) == as_element(b[j][i]) for i in range(len(b)) for j in range(i)))
    assert (mb + mb.transpose()).is_symmetric() if square else not mb.is_symmetric()


@pytest.mark.parametrize("m", [RingMatrix([[1, 2], [3, 4]]), RingMatrix([[Z, 2], [3, 4]])], ids=["Q", "Qz"])
def test_scale_reads_its_scalar_as_a_tower_element_on_both_paths(m):
    """``scale``, ``M * s`` and ``s * M`` read ``s`` by ``as_element`` on the
    stored rows and with a polynomial entry alike: a boolean, a float and
    ``None`` are refused, and ``"1/2"`` is one half, as in the constructor."""
    for bad in (True, 1.5, None):
        for scaled in (lambda: m.scale(bad), lambda: m * bad, lambda: bad * m):
            with pytest.raises(ValidationError):
                scaled()
    half = RingMatrix([[e * Fraction(1, 2) for e in row] for row in m.entries])
    for got in (m.scale("1/2"), m * "1/2", "1/2" * m):
        assert got == half and repr(got) == repr(half)


@pytest.mark.parametrize("rows, want", [
    ([[Z, 1], [0, -Z]], Fraction(0)),
    ([[Z, 0], [0, 1 - Z]], Fraction(1)),
    ([[Z, 0], [0, Z + 1]], 2 * Z + 1),
    ([[1, 2], [3, Fraction(1, 2)]], Fraction(3, 2)),
    ([[0, 2], [3, 0]], Fraction(0)),
])
def test_trace_is_in_as_element_form_on_both_paths(rows, want):
    """A polynomial diagonal whose sum is constant gives a ``Fraction``, as
    the stored rows do."""
    got = RingMatrix(rows).trace()
    assert type(got) is type(want) and repr(got) == repr(want)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(*(rational_grids(st.just(n)) for _ in range(3)))))
@settings(max_examples=40, deadline=None)
def test_a_matrix_reached_by_two_routes_is_stored_the_same(triple):
    a, b, c = map(RingMatrix, triple)
    for left, right in (((a * b) * c, a * (b * c)), ((a + b).transpose(), a.transpose() + b.transpose()),
                        ((a * b).transpose(), b.transpose() * a.transpose()), (a - b, -(b - a))):
        assert left == right and repr(left) == repr(right)
        assert (left._ints, left._dens) == (right._ints, right._dens)


# -- constructors that reach the stored rows without a Fraction ------------------

#: Entries the constructor reads: ints (bool excluded), small and huge
#: rationals, "p/q" and decimal strings, and polynomials in z, constant and
#: zero ones included, which collapse to a Fraction.
MIXED_ENTRIES = st.one_of(
    st.integers(-10**20, 10**20), rationals, huge_rationals, rationals.map(str),
    st.sampled_from([" 3/4 ", "-0.25", "+2", "7.", ".5"]),
    st.lists(rationals, max_size=3).map(lambda cs: UniPoly("z", cs)),
)
#: Entries that ``as_element`` refuses.
REFUSED_ENTRIES = st.sampled_from([True, False, 1.5, None, "x", "1e3", float("nan")])


def fraction_constructor(entries):
    """The constructor read through Fractions: every entry by ``as_element``,
    and a rational grid as rows of numerators over the lcm of each row's
    denominators.  Returns the stored grid, ints and denominators."""
    grid = [[as_element(e) for e in row] for row in entries]
    if any(isinstance(e, UniPoly) for row in grid for e in row):
        return tuple(map(tuple, grid)), None, None
    dens = [lcm(*[e.denominator for e in row]) for row in grid]
    return None, tuple(tuple(e.numerator * (d // e.denominator) for e in row) for row, d in zip(grid, dens)), tuple(dens)


@given(st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(lambda s: grid(MIXED_ENTRIES, *s)), st.data())
@settings(max_examples=150, deadline=None)
def test_the_constructor_reads_mixed_grids_as_the_fraction_reference(entries, data):
    """Mixed int, Fraction, str and polynomial grids against the Fraction
    reading; a refused entry (bool, float, None, text) raises the error of
    ``as_element`` on the first such entry, as before."""
    if data.draw(st.integers(0, 4), label="refuse") == 0:
        i, j = data.draw(st.integers(0, len(entries) - 1)), data.draw(st.integers(0, len(entries[0]) - 1))
        entries[i][j] = data.draw(REFUSED_ENTRIES, label="refused")
        with pytest.raises(ValidationError) as want:
            fraction_constructor(entries)
        with pytest.raises(ValidationError) as got:
            RingMatrix(entries)
        assert str(got.value) == str(want.value)
        return
    m = RingMatrix(entries)
    assert (m._grid, m._ints, m._dens) == fraction_constructor(entries)
    for row, want_row in zip(m.entries, fraction_constructor(entries)[0] or ()):
        assert [(type(e), repr(e)) for e in row] == [(type(e), repr(e)) for e in want_row]
    assert m.entries == tuple(tuple(as_element(e) for e in row) for row in entries)


@pytest.mark.parametrize("n", [1, 2, 6])
def test_identity_diagonal_and_antidiagonal_are_built_from_ints(n):
    values = [Fraction(k - 1, 3) for k in range(n)]
    assert RingMatrix.identity(n) == RingMatrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])
    assert_same(RingMatrix.diagonal(values), [[values[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)])
    anti = [[values[i] if j == n - 1 - i else Fraction(0) for j in range(n)] for i in range(n)]
    assert_same(RingMatrix.antidiagonal(values), anti)
    with pytest.raises(ValidationError, match="^cannot interpret True as an exact scalar$"):
        RingMatrix.diagonal([True] * n)
    assert RingMatrix.diagonal([Z, 1])._grid == ((Z, Fraction(0)), (Fraction(0), Fraction(1)))


@st.composite
def block_grids(draw):
    """Block rows of heights 1-3 and block columns of widths 1-3, each block
    rational (zero rows and huge entries included) or, sometimes, over Q[z]."""
    heights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    entries = st.one_of(row_entries, polynomial_operands(["z"])) if draw(st.booleans()) else row_entries
    return [[draw(grid(entries, h, w)) for w in widths] for h in heights]


@given(block_grids())
@settings(max_examples=100, deadline=None)
def test_blocks_match_the_concatenated_entries(lists):
    """Over Q the stored rows concatenate over their lcm and stay canonical;
    either way the matrix is that of the concatenated entries."""
    got = RingMatrix.blocks([[RingMatrix(b) for b in line] for line in lists])
    want = RingMatrix([[e for b in line for e in RingMatrix(b).entries[i]] for line in lists for i in range(len(line[0]))])
    assert got == want and repr(got) == repr(want)
    assert (got._grid, got._ints, got._dens) == (want._grid, want._ints, want._dens)
    if got._ints is not None:
        assert all(d > 0 and gcd(d, *row) == 1 for row, d in zip(got._ints, got._dens))


def test_blocks_with_a_polynomial_entry_in_every_block():
    got = RingMatrix.blocks([[RingMatrix([[Z, 1]]), RingMatrix([[Z * Z]])], [RingMatrix([[2, Z]]), RingMatrix([[-Z]])]])
    assert got == RingMatrix([[Z, 1, Z * Z], [2, Z, -Z]]) and got._ints is None


def test_blocks_refuse_ragged_block_rows():
    one, two = RingMatrix([[1, 2]]), RingMatrix([[1], [Fraction(1, 2)]])
    for bad in ([[]], [[one, two]], [[two], []]):
        with pytest.raises(ValidationError, match="^block matrix needs block rows of blocks of equal height$"):
            RingMatrix.blocks(bad)
    with pytest.raises(ValidationError, match="^matrix needs at least one row$"):
        RingMatrix.blocks([])
    with pytest.raises(ValidationError, match="^matrix rows must be non-empty and equal length$"):
        RingMatrix.blocks([[one], [two]])
    with pytest.raises(ValidationError, match="^matrix rows must be non-empty and equal length$"):
        RingMatrix.blocks([[RingMatrix([[Z, 1]])], [two]])


@pytest.mark.parametrize("names", [[], ["z"], ["z", "eta"]], ids=["Q", "Qz", "Qzeta"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_matrix_product_is_the_matrix_of_products(names, data):
    """1x1 to 3x3 tables over lines of length 1 to 3, zero lines and int
    entries included: the rows times the transposed columns (over Q the
    stored-row product) against the constructor on ``products``."""
    entries = st.one_of(st.integers(-10**15, 10**15), operand_coeffs(names))
    m, k, n = data.draw(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)), label="shape")
    rows, cols = data.draw(grid(entries, m, k), label="rows"), data.draw(grid(entries, n, k), label="cols")
    if data.draw(st.booleans(), label="zero row"):
        rows[0] = [0] * k
    got, want = RingMatrix(rows) * RingMatrix(list(zip(*cols))), RingMatrix(products(rows, cols))
    assert got == want and repr(got) == repr(want)
    assert (got._grid, got._ints, got._dens) == (want._grid, want._ints, want._dens)
