from fractions import Fraction

import pytest

from isolab.exact_algebra import RingMatrix, UniPoly, ValidationError, pfaffian
from isolab.lie_isogeny import q4
from isolab.moduli_invariants import (
    MAX_GENUS,
    ToledoPair,
    W2Label,
    _reordered,
    assemble_so22,
    component_census,
    liftable,
    milnor_wood_check,
    preimage_count,
    toledo_map,
)
from isolab.spectral_base import BaseSL2Pair, so4_base
from isolab.verify import rand_section

Z = UniPoly.variable("z")
ETA = UniPoly.variable("eta")


def test_toledo_map_examples():
    t = toledo_map(ToledoPair(2, 1, 2))
    assert (t.d1, t.d2) == (3, 1)
    zero = toledo_map(ToledoPair(0, 0, 2))
    assert (zero.d1, zero.d2) == (0, 0)


def test_toledo_map_image_is_the_parity_lattice():
    image = set()
    for d1 in range(-5, 6):
        for d2 in range(-5, 6):
            t = toledo_map(ToledoPair(d1, d2, 2))
            assert (t.d1 - t.d2) % 2 == 0
            image.add((t.d1, t.d2))
    assert len(image) == 121  # injective on the scanned square
    expected = {
        (c1, c2)
        for c1 in range(-10, 11)
        for c2 in range(-10, 11)
        if (c1 + c2) % 2 == 0 and abs(c1 + c2) <= 10 and abs(c1 - c2) <= 10
    }
    assert image == expected


def test_milnor_wood_bounds():
    assert not milnor_wood_check(ToledoPair(2, 0, 2), "sl2xsl2")
    assert milnor_wood_check(ToledoPair(1, 1, 2), "sl2xsl2")
    assert milnor_wood_check(ToledoPair(2, 2, 2), "so22")
    assert not milnor_wood_check(ToledoPair(3, 0, 2), "so22")
    assert milnor_wood_check(ToledoPair(0, 0, 5), "sl2xsl2")
    with pytest.raises(ValidationError):
        milnor_wood_check(ToledoPair(0, 0, 2), "sp4")


def test_liftable_criteria():
    assert not liftable(ToledoPair(1, 2, 2), "so22")
    assert liftable(ToledoPair(0, 0, 2), "so22")
    assert liftable(ToledoPair(2, 2, 2), "so22")
    assert not liftable(ToledoPair(4, 4, 2), "so22")  # parity fine, bound fails
    assert liftable((1, 1), "so33")
    assert liftable((W2Label(0), W2Label(0)), "so33")
    assert not liftable((0, 1), "so33")
    for labels in ((2, 1), (0, 2)):
        with pytest.raises(ValidationError, match="^Z/2 labels are 0 or 1$"):
            liftable(labels, "so33")


@pytest.mark.parametrize("value", [True, False, 1.0, 0.0, Fraction(1)], ids=repr)
def test_degree_labels_of_another_class_are_refused(value):
    """A bool, a float or a Fraction equal to an integer label is still not one."""
    with pytest.raises(ValidationError, match="^a Z/2 label is 0 or 1$"):
        W2Label(value)
    for pair in ((value, 1), (1, value)):
        with pytest.raises(ValidationError, match="^Z/2 labels are 0 or 1$"):
            liftable(pair, "so33")
    for degrees in ((value, 0), (0, value)):
        with pytest.raises(ValidationError, match="^degree labels must be integers$"):
            ToledoPair(*degrees, 2)


def test_bounded_sources_land_in_liftable_targets():
    for d1 in range(-4, 5):
        for d2 in range(-4, 5):
            d = ToledoPair(d1, d2, 3)
            if milnor_wood_check(d, "sl2xsl2"):
                assert liftable(toledo_map(d), "so22")


def test_preimage_count_rank3():
    for g in (2, 3):
        report = preimage_count("rank3", g)
        assert report.stated == 2 ** (2 * g)
        assert report.enumerated == report.stated
        assert not report.discrepancy
    for g, stated in ((4, 2**8), (5, 2**10), (MAX_GENUS, 2**128)):
        big = preimage_count("rank3", g)
        assert big.enumerated == big.stated == stated


def test_preimage_count_rank2_reports_discrepancy():
    report = preimage_count("rank2", 2)
    assert report.stated == 32
    assert report.proof_count == 16
    assert report.enumerated == 256
    assert report.discrepancy
    assert report.note == (
        "stated covering degree 2^5=32, per-bundle solution count 2^4=16, "
        "ordered solution pairs 2^8=256; the intended identification is left open"
    )
    big = preimage_count("rank2", 4)
    assert big.enumerated == 2**16
    assert big.note.startswith("stated covering degree 2^9=512, per-bundle solution count 2^8=256, "
                               "ordered solution pairs 2^16=65536;")


@pytest.mark.parametrize("g", [1, MAX_GENUS + 1, 4000, True, 2.0, "3"])
def test_genus_outside_the_budget_is_refused(g):
    for make in (
        lambda: preimage_count("rank2", g),
        lambda: component_census("so22", g),
        lambda: ToledoPair(0, 0, g),
    ):
        with pytest.raises(ValidationError, match="genus must be an integer between 2 and 64"):
            make()


def test_component_census_so33():
    census = component_census("so33", 2)
    assert census.labels == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert census.image_labels == ((0, 0), (1, 1))
    assert census.hitchin_components_source == 16
    assert census.hitchin_components_target == 1
    assert census.total_components == 5


def test_component_census_so22():
    census = component_census("so22", 2)
    assert census.bound == 2
    assert len(census.labels) == 25
    assert all((c1 - c2) % 2 == 0 for c1, c2 in census.image_labels)
    assert len(census.image_labels) == 13


def test_assemble_companion_factor():
    a1 = Z - 3
    result = assemble_so22(0, 0, 1, -a1, 1, 0)
    _, remainder = result.quartic.div_mod(ETA * ETA + a1)
    assert remainder.is_zero


def test_assemble_degree_labels():
    result = assemble_so22(2, 1, 1, 1, 1, 1)
    assert (result.m1_degree, result.m2_degree) == (3, 1)


def test_assemble_frozen_instance():
    result = assemble_so22(0, 0, 1, 1, 1, -1)
    assert result.quartic == ETA**4 + 4
    assert result.higgs.alpha == RingMatrix([[1, 1], [1, -1]])
    assert result.base.pf == Fraction(-2)  # a1 - a2 = -1 - 1


def test_assemble_matches_base_map_on_random_sections(rng_factory):
    rng = rng_factory("assembly")
    for _ in range(10):
        beta1, gamma1 = rand_section(rng, 2), rand_section(rng, 2)
        beta2, gamma2 = rand_section(rng, 2), rand_section(rng, 2)
        result = assemble_so22(1, -2, beta1, gamma1, beta2, gamma2)
        pair = BaseSL2Pair(-(beta1 * gamma1), -(beta2 * gamma2))
        assert result.quartic == so4_base(pair).quartic()
        assert result.base.quartic() == result.quartic
        field = result.higgs.as_matrix()
        assert field.char_poly() == result.quartic
        assert pfaffian(_reordered(q4().gram) * field) == result.base.pf


def test_assemble_block_antisymmetry_invariant():
    result = assemble_so22(0, 0, Z, 1, 2, Z + 1)
    higgs = result.higgs
    expected = -(higgs.q2.inverse() * higgs.phi12.transpose() * higgs.q1)
    assert higgs.phi21 == expected
