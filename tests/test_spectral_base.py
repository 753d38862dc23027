from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isolab.exact_algebra import UniPoly, ValidationError, exact_div, poly_sqrt, resultant
from isolab.lie_isogeny import d_iso3
from isolab.spectral_base import (
    BaseSL2Pair,
    BaseSL4,
    BaseSO4,
    BaseSO6,
    genericity_report,
    so4_base,
    so4_oracle,
    so6_base,
    so6_oracle,
)
from isolab.verify import rand_companion_quartic, rand_section

Z = UniPoly.variable("z")
ETA = UniPoly.variable("eta")


def test_so4_base_fixed_instances():
    assert so4_base(BaseSL2Pair(-1, -4)).quartic() == ETA**4 - 10 * ETA**2 + 9
    mapped = so4_base(BaseSL2Pair(Z, 0), sign=-1)
    assert mapped.b1 == 2 * Z and mapped.pf == -Z
    degenerate = so4_base(BaseSL2Pair(Z, Z))
    assert degenerate.pf.is_zero


def test_so4_oracle_fixed_instances():
    assert so4_oracle(BaseSL2Pair(-1, -4)) == ETA**4 - 10 * ETA**2 + 9
    assert so4_oracle(BaseSL2Pair(0, 0)) == ETA**4
    assert so4_oracle(BaseSL2Pair(Z, -Z)) == ETA**4 + 4 * Z * Z


def test_so4_base_matches_oracle_on_random_sections(rng_factory):
    rng = rng_factory("so4")
    for _ in range(15):
        pair = BaseSL2Pair(rand_section(rng, 3), rand_section(rng, 3))
        assert so4_base(pair).quartic() == so4_oracle(pair)
        assert so4_base(pair, sign=-1).quartic() == so4_oracle(pair)


def test_so6_base_fixed_instances():
    mapped = so6_base(BaseSL4(-5, 0, 4))
    assert (mapped.b1, mapped.b2, mapped.pf) == (UniPoly("z", [-10]), UniPoly("z", [9]), UniPoly("z"))
    assert mapped.sextic() == ETA**6 - 10 * ETA**4 + 9 * ETA**2
    assert so6_base(BaseSL4(0, 1, 0)).sextic() == ETA**6 - 1
    assert so6_base(BaseSL4(0, 0, 0)).sextic() == ETA**6


def test_so6_oracle_fixed_instances():
    assert so6_oracle(BaseSL4(-5, 0, 4)) == ETA**6 - 10 * ETA**4 + 9 * ETA**2
    assert so6_oracle(BaseSL4(0, 1, 0)) == ETA**6 - 1


#: Sections of degree <= 2: the empty list is the zero section, a single
#: coefficient a constant one.
sections = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), max_size=3).map(
    lambda cs: UniPoly("z", cs)
)


@given(sections, sections, sections)
@example(Z, UniPoly("z"), Z - 1)  # a3 = 0
@example(Z + 1, Z * Z, UniPoly("z"))  # a4 = 0
@example(UniPoly("z", [-5]), UniPoly("z", [2]), UniPoly("z", [4]))  # constant sections
@settings(max_examples=20, deadline=None)
def test_so6_oracle_is_the_square_root_of_the_pairwise_resultant(a2, a3, a4):
    """Elimination, kept here as a reference for the power-sum oracle:
    Res_x(P(x), P(eta - x)) has as roots all ordered sums lambda_a + lambda_b,
    so it equals 16 P(eta/2) (the equal-index sums 2 lambda_a) times the
    square of the pairwise-sum sextic."""
    base = BaseSL4(a2, a3, a4)
    coeffs = [a4, a3, a2, Fraction(0), Fraction(1)]
    shifted = sum((c * UniPoly("x", [ETA, -1]) ** k for k, c in enumerate(coeffs)), Fraction(0))
    ordered_sums = resultant(UniPoly("x", coeffs), shifted)
    equal_index = 16 * sum((c * (ETA * Fraction(1, 2)) ** k for k, c in enumerate(coeffs)), Fraction(0))
    sextic = so6_oracle(base)
    assert ordered_sums == equal_index * sextic * sextic
    assert poly_sqrt(exact_div(ordered_sums, equal_index)) == sextic


def test_so6_base_matches_oracle_on_random_sections(rng_factory):
    rng = rng_factory("so6")
    for deg in (0, 0, 0, 1, 1, 2):
        base = BaseSL4(rand_section(rng, deg), rand_section(rng, deg), rand_section(rng, deg))
        oracle = so6_oracle(base)
        assert so6_base(base).sextic() == oracle
        assert so6_base(base, sign=-1).sextic() == oracle


def test_sextic_constant_term_is_minus_pf_squared(rng_factory):
    rng = rng_factory("const")
    for _ in range(5):
        base = BaseSL4(rand_section(rng, 1), rand_section(rng, 1), rand_section(rng, 1))
        mapped = so6_base(base)
        assert mapped.sextic().coeff(0) == -(mapped.pf * mapped.pf)
    quartic = so4_base(BaseSL2Pair(rand_section(rng, 2), rand_section(rng, 2)))
    assert quartic.quartic().coeff(0) == quartic.pf * quartic.pf


def test_curves_are_even_in_the_fiber_variable(rng_factory):
    rng = rng_factory("even")
    base = BaseSL4(rand_section(rng, 2), rand_section(rng, 2), rand_section(rng, 2))
    sextic = so6_oracle(base)
    assert all(sextic.coeff(k) == 0 for k in (1, 3, 5))
    quartic = so4_oracle(BaseSL2Pair(rand_section(rng, 2), rand_section(rng, 2)))
    assert all(quartic.coeff(k) == 0 for k in (1, 3))


def test_companion_link_to_the_wedge_representation(rng_factory):
    rng = rng_factory("companion")
    for _ in range(5):
        comp, base = rand_companion_quartic(rng)
        assert d_iso3(comp).char_poly() == so6_oracle(base)


def test_genericity_generic_instance():
    report = genericity_report(BaseSL4(0, 1, 0))
    assert report.generic and report.jacobian_full_rank
    assert report.gcd_loose.degree == 0 and report.gcd_tight.degree == 0


def test_genericity_vanishing_a3_is_degenerate():
    report = genericity_report(BaseSL4(Z, 0, 0))
    assert not report.generic and report.witness == "a3 == 0"


def test_genericity_shared_zero_is_flagged():
    report = genericity_report(BaseSL4(Z, Z, 0))
    assert not report.generic
    assert report.gcd_tight == Z
    assert report.witness is not None


def test_genericity_loose_gcd_alone_does_not_degenerate():
    # a2^2 - a4 vanishes identically but a2^2 - 4 a4 is coprime to a3
    report = genericity_report(BaseSL4(Z, Z + 1, Z * Z))
    assert report.generic
    assert report.gcd_loose == Z + 1
    assert report.gcd_tight.degree == 0


def _cover_equations(a2, a3, a4, u, v):
    """(f1, f2): the symmetrized double-cover component in (z, u, v)."""
    f1 = 8 * u**3 - 4 * u * v + 2 * a2 * u + a3
    f2 = 8 * u**4 + 2 * a2 * u**2 - 8 * u**2 * v - a2 * v + a3 * u + v**2 + a4
    return f1, f2


def _at(section, t):
    """section(t), written out so the check shares no evaluation code."""
    return sum((c * t**k for k, c in enumerate(section.coeffs)), Fraction(0))


def _jacobian_at(base, z0, v0):
    """The 2x3 Jacobian of (f1, f2) in (z, u, v) at (z0, 0, v0): each column
    is the slope at x = 0 of the restriction to the line through the point
    along one coordinate, x itself being the parameter."""
    x = UniPoly.variable("x")
    columns = []
    for dz, du, dv in ((x, 0, 0), (0, x, 0), (0, 0, x)):
        sections = [_at(p, z0 + dz) for p in (base.a2, base.a3, base.a4)]
        restricted = _cover_equations(*sections, du, v0 + dv)
        columns.append([f.coeff(1) if isinstance(f, UniPoly) else Fraction(0) for f in restricted])
    return [[col[i] for col in columns] for i in range(2)]


def _rank_at_most_one(jac):
    return all(jac[0][i] * jac[1][j] == jac[0][j] * jac[1][i] for i in range(3) for j in range(i + 1, 3))


def _interpolate(points):
    """The polynomial in z of least degree through the (r, value) points."""
    total = UniPoly("z")
    for i, (r, value) in enumerate(points):
        term = UniPoly("z", [value])
        for j, (s, _) in enumerate(points):
            if j != i:
                term = term * (Z - s) * (1 / (r - s))
        total = total + term
    return total


def test_genericity_fails_exactly_at_planted_degenerate_roots(rng_factory):
    """a3 = c prod(z - r_i); at each r_i the fiber of B = v^2 - a2 v + a4 is
    planted either as a double root (a2^2 = 4 a4) or as two distinct
    rational roots v1 != v2.  The verdict and the witness must follow the
    degenerate roots, and the Jacobian, computed here from the defining map
    itself, must lose rank exactly at them."""
    rng = rng_factory("planted")
    q = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    for _ in range(30):
        roots = rng.sample([Fraction(k, 2) for k in range(-8, 9)], rng.randint(1, 4))
        fibers = {}
        for r in roots:
            if rng.random() < 0.5:
                fibers[r] = [q()] * 2
            else:
                v1, v2 = q(), q()
                fibers[r] = [v1, v2 if v2 != v1 else v1 + 1]
        a3 = rng.choice([-2, Fraction(1, 3), 5]) * UniPoly("z", [1])
        for r in roots:
            a3 = a3 * (Z - r)
        # add multiples of a3: the values at the roots are all that is planted
        a2 = _interpolate([(r, v1 + v2) for r, (v1, v2) in fibers.items()]) + q() * a3
        a4 = _interpolate([(r, v1 * v2) for r, (v1, v2) in fibers.items()]) + q() * Z * a3
        base = BaseSL4(a2, a3, a4)
        degenerate = [r for r, (v1, v2) in fibers.items() if v1 == v2]

        report = genericity_report(base)
        assert report.generic == report.jacobian_full_rank == (not degenerate)
        expected = UniPoly("z", [1])
        for r in degenerate:
            expected = expected * (Z - r)
        assert report.witness == (str(expected) if degenerate else None)

        for r, vs in fibers.items():
            for v in vs:
                assert _cover_equations(*(_at(p, r) for p in (a2, a3, a4)), 0, v) == (0, 0)
                assert _rank_at_most_one(_jacobian_at(base, r, v)) == (r in degenerate)


def test_orientation_sign_validation():
    with pytest.raises(ValidationError):
        so4_base(BaseSL2Pair(1, 2), sign=2)


#: Orientation signs that are not exactly the int 1 or -1: the bools are
#: refused although ``True.denominator == 1``, and equal floats and
#: Fractions are refused although ``1.0 == 1``.
BAD_SIGNS = [2, 0, True, False, 1.0, -1.0, Fraction(1), Fraction(-1), "1", None]


@pytest.mark.parametrize("sign", BAD_SIGNS, ids=repr)
def test_so4_base_sign_must_be_the_int_one_or_minus_one(sign):
    with pytest.raises(ValidationError, match="^orientation sign must be the int 1 or -1$"):
        so4_base(BaseSL2Pair(1, 2), sign=sign)


@pytest.mark.parametrize("sign", BAD_SIGNS, ids=repr)
def test_so6_base_sign_must_be_the_int_one_or_minus_one(sign):
    with pytest.raises(ValidationError, match="^orientation sign must be the int 1 or -1$"):
        so6_base(BaseSL4(1, 2, 3), sign)


#: Sections for the differential tests: the zero section, constants, mixed
#: degrees up to 8, and numerators up to 30 digits over small or long
#: denominators.
long_sections = st.lists(
    st.builds(
        Fraction,
        st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30)),
        st.one_of(st.integers(1, 12), st.integers(1, 10**12)),
    ),
    max_size=9,
).map(lambda cs: UniPoly("z", cs))

signs = st.sampled_from([1, -1])


def _fields(record):
    return [(name, getattr(record, name), repr(getattr(record, name))) for name in record._fields]


@given(long_sections, long_sections, signs)
@example(UniPoly("z"), UniPoly("z"), 1)
@example(UniPoly("z", [3]), UniPoly("z", [Fraction(-1, 2)]), -1)
@example(Z, Z, -1)  # pf vanishes
@example(Z, -Z, 1)  # b1 vanishes
@settings(max_examples=60, deadline=None)
def test_so4_base_equals_its_closed_form(a1, a2, sign):
    """The product table against (2(a1 + a2), sign (a1 - a2)) in ``UniPoly``
    arithmetic."""
    mapped = so4_base(BaseSL2Pair(a1, a2), sign)
    expected = BaseSO4(b1=2 * (a1 + a2), pf=sign * (a1 - a2))
    assert _fields(mapped) == _fields(expected)
    assert repr(mapped) == repr(expected)


@given(long_sections, long_sections, long_sections, signs)
@example(UniPoly("z"), UniPoly("z"), UniPoly("z"), 1)
@example(UniPoly("z", [2]), UniPoly("z", [-7]), UniPoly("z", [1]), -1)  # b2 = 0
@example(Z + 1, UniPoly("z"), (Z + 1) * (Z + 1) * Fraction(1, 4), 1)  # b2 = 0, degree 2
@example(Z**8 * 10**30, Z * Fraction(1, 3), UniPoly("z", [Fraction(1, 10**12)]), -1)
@settings(max_examples=60, deadline=None)
def test_so6_base_equals_its_closed_form(a2, a3, a4, sign):
    """The product table against (2 a2, a2^2 - 4 a4, sign a3) in ``UniPoly``
    arithmetic."""
    mapped = so6_base(BaseSL4(a2, a3, a4), sign)
    expected = BaseSO6(b1=2 * a2, b2=a2 * a2 - 4 * a4, pf=sign * a3)
    assert _fields(mapped) == _fields(expected)
    assert repr(mapped) == repr(expected)


@given(long_sections, long_sections)
@example(UniPoly("z"), UniPoly("z"))
@example(UniPoly("z", [-1]), UniPoly("z", [-4]))
@example(Z, -Z)
@settings(max_examples=25, deadline=None)
def test_so4_oracle_equals_the_shift_squared_construction(a1, a2):
    """``so4_oracle`` writes (eta - x)^2 + a2 out; the product it replaced
    gives the same Sylvester input and so the same resultant."""
    pair = BaseSL2Pair(a1, a2)
    shift = UniPoly("x", [ETA, Fraction(-1)])
    fx = UniPoly("x", [pair.a1, Fraction(0), Fraction(1)])
    expected = resultant(fx, shift * shift + pair.a2)
    quartic = so4_oracle(pair)
    assert quartic == expected and repr(quartic) == repr(expected)


def test_sections_refuse_a_non_constant_fiber_polynomial():
    with pytest.raises(ValidationError, match="coefficient in 'eta' cannot sit inside a polynomial in 'z'"):
        BaseSL2Pair(ETA + 1, 0)
    pair = BaseSL2Pair(UniPoly("eta", [Z]), "1/2")
    assert (pair.a1.var, pair.a2.var) == ("z", "z") and pair.a1 == Z and pair.a2 == Fraction(1, 2)
