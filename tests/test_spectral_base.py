from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isolab.exact_algebra import UniPoly, ValidationError, exact_div, poly_sqrt, resultant
from isolab.lie_isogeny import d_iso3
from isolab.spectral_base import (
    BaseSL2Pair,
    BaseSL4,
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
    ordered_sums = resultant(UniPoly("x", coeffs), shifted, var="x")
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


def test_orientation_sign_validation():
    with pytest.raises(ValidationError):
        so4_base(BaseSL2Pair(1, 2), sign=2)
    with pytest.raises(ValidationError):
        BaseSO6(b1=0, b2=0, pf=0, sign=0)
