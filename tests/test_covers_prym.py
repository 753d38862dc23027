import itertools
import re

import pytest

from isolab.exact_algebra import ValidationError
from isolab.covers_prym import (
    Divisor,
    FiberModel,
    GENERIC_BRANCH,
    PairFiber,
    SymFiber,
    correspondence_push,
    fiber_product,
    mumford_divisor,
    norm,
    prym_test,
    ramification_check,
    self_product_minus_diagonal,
    sigma_orbit_split,
    symmetrize,
    twist_ledger,
)

REG2A = FiberModel.regular("x", ("p1", "p2"))
REG2B = FiberModel.regular("x", ("q1", "q2"))
BR2 = FiberModel.generic_branch("x", ("p",))
REG4 = FiberModel.regular("x", ("y1", "y2", "y3", "y4"))
BR4 = FiberModel.generic_branch("x", ("y1", "y2", "y3"))


def sym_of(fiber):
    return symmetrize(self_product_minus_diagonal(fiber))


# -- fibers and products --------------------------------------------------------


def test_fiber_validation():
    with pytest.raises(ValidationError):
        FiberModel("x", (("a", 1), ("a", 1)), "regular")
    with pytest.raises(ValidationError):
        FiberModel("x", (("a", 2), ("b", 1)), "regular")
    with pytest.raises(ValidationError):
        FiberModel("x", (("a", 1), ("b", 2)), GENERIC_BRANCH)
    with pytest.raises(ValidationError, match="generic branch"):
        FiberModel("x", (), GENERIC_BRANCH)


NOT_INTEGERS = [1.0, 1.7, 0.4, True, False, "1", None]


@pytest.mark.parametrize("mult", NOT_INTEGERS, ids=repr)
def test_fiber_multiplicities_must_be_integers(mult):
    with pytest.raises(ValidationError, match=f"^a multiplicity must be an integer, got {re.escape(repr(mult))}$"):
        FiberModel("x", (("a", mult), ("b", 1)), "regular")


@pytest.mark.parametrize("label", [None, True, 1.5, 7], ids=repr)
@pytest.mark.parametrize(
    "fiber",
    [lambda l: FiberModel("x", ((l, 1), ("b", 1)), "regular"), lambda l: FiberModel(l, (("a", 1),), "regular")],
    ids=["point", "base"],
)
def test_fiber_labels_must_be_strings(label, fiber):
    with pytest.raises(ValidationError, match=f"^a fiber label must be a string, got {re.escape(repr(label))}$"):
        fiber(label)


@pytest.mark.parametrize("weight", NOT_INTEGERS, ids=repr)
def test_divisor_weights_must_be_integers(weight):
    with pytest.raises(ValidationError, match=f"^a divisor weight must be an integer, got {re.escape(repr(weight))}$"):
        Divisor({"a": 1, "c": weight})


def test_divisor_keeps_integer_weights_and_drops_zeros():
    d = Divisor({"a": 2, "b": 0, "c": -3})
    assert d.items() == [("a", 2), ("c", -3)]
    assert FiberModel("x", (("a", 1),), "regular").points == (("a", 1),)


@pytest.mark.parametrize("label", ["a,b", "(a", "a)", "[a", "a]"])
def test_fiber_labels_exclude_key_delimiters(label):
    with pytest.raises(ValidationError, match="may not contain"):
        FiberModel.regular("x", (label, "b"))


@pytest.mark.parametrize("label", [" a", "a ", "\ta", "a\n"])
def test_fiber_labels_exclude_surrounding_whitespace(label):
    with pytest.raises(ValidationError, match="whitespace"):
        FiberModel.regular("x", (label, "b"))


def test_fiber_product_regular():
    pf = fiber_product(REG2A, REG2B)
    assert pf.degree == 4 and all(m == 1 for _, m in pf.points)
    inv = pf.product_involution()
    assert all(inv[k] != k for k in inv)


def test_fiber_product_one_branched_factor():
    pf = fiber_product(BR2, REG2B)
    assert dict(pf.points) == {("p", "q1"): 2, ("p", "q2"): 2}
    inv = pf.product_involution()
    assert all(inv[k] != k for k in inv)


def test_fiber_product_guards():
    with pytest.raises(ValidationError):
        fiber_product(REG2A, FiberModel.regular("y", ("q1", "q2")))
    with pytest.raises(ValidationError):
        fiber_product(REG2A, REG2A)  # same labels: not two distinct covers
    with pytest.raises(ValidationError):
        fiber_product(BR2, FiberModel.generic_branch("x", ("q",)))


def test_self_product_regular_has_twelve_ordered_pairs():
    pf = self_product_minus_diagonal(REG4)
    assert len(pf.points) == 12 and pf.degree == 12
    assert all(m == 1 for _, m in pf.points)


def test_self_product_branch_profile():
    pf = self_product_minus_diagonal(BR4)
    expected = {
        ("y1", "y1"): 2,
        ("y1", "y2"): 2,
        ("y2", "y1"): 2,
        ("y1", "y3"): 2,
        ("y3", "y1"): 2,
        ("y2", "y3"): 1,
        ("y3", "y2"): 1,
    }
    assert dict(pf.points) == expected
    assert pf.degree == 12


def test_self_product_rejects_other_profiles():
    with pytest.raises(ValidationError):
        self_product_minus_diagonal(FiberModel("x", (("a", 2), ("b", 2)), GENERIC_BRANCH))
    with pytest.raises(ValidationError):
        self_product_minus_diagonal(REG2A)


# -- symmetrization --------------------------------------------------------------


def test_symmetrize_regular():
    sym = sym_of(REG4)
    assert len(sym.points) == 6 and sym.degree == 6
    assert all(m == 1 for _, m in sym.points)
    sigma = sym.sigma()
    assert sigma[("y1", "y2")] == ("y3", "y4")
    assert sigma[("y1", "y3")] == ("y2", "y4")
    assert all(sigma[sigma[k]] == k for k in sigma)
    assert all(sigma[k] != k for k in sigma)


def test_symmetrize_branch_multiplicities_and_sigma():
    sym = sym_of(BR4)
    assert dict(sym.points) == {
        ("y1", "y1"): 1,
        ("y1", "y2"): 2,
        ("y1", "y3"): 2,
        ("y2", "y3"): 1,
    }
    sigma = sym.sigma()
    assert sigma[("y1", "y1")] == ("y2", "y3")
    assert sigma[("y1", "y2")] == ("y1", "y3")
    assert all(sigma[k] != k for k in sigma)


@pytest.mark.parametrize(
    "fiber",
    [
        FiberModel.regular("x", ("d", "b", "c", "a")),
        FiberModel.generic_branch("x", ("q", "a", "m")),
        FiberModel.generic_branch("x", ("m", "q", "a")),
    ],
    ids=["regular", "branch-double-last", "branch-double-middle"],
)
def test_residual_involution_is_the_multiset_complement(fiber):
    """With labels out of sorted order, sigma sends each unordered pair to
    the rest of the fiber's points counted with multiplicity."""
    sym = sym_of(fiber)
    sigma = sym.sigma()
    assert sorted(sigma) == sorted(sym.keys)
    for key, image in sigma.items():
        rest = [l for l, m in fiber.points for _ in range(m)]
        for label in key:
            rest.remove(label)
        assert image == tuple(sorted(rest))


def test_residual_involution_with_the_double_point_sorting_last():
    sigma = sym_of(FiberModel.generic_branch("x", ("q", "a", "m"))).sigma()
    assert sigma == {
        ("q", "q"): ("a", "m"),
        ("a", "m"): ("q", "q"),
        ("a", "q"): ("m", "q"),
        ("m", "q"): ("a", "q"),
    }


def test_symmetrize_requires_diagonal_removal():
    pf = fiber_product(REG2A, REG2B)
    with pytest.raises(ValidationError):
        symmetrize(pf)


def test_symmetrize_refuses_a_hand_built_orbit_of_odd_multiplicity():
    pf = PairFiber("x", ((("y2", "y3"), 1),), (BR4, BR4))
    with pytest.raises(ValidationError, match="^swap orbit with odd total multiplicity$"):
        symmetrize(pf)


@pytest.mark.parametrize(
    "pull",
    [
        lambda pf: pf.pullback(Divisor({"y1": 1}), 1),
        lambda pf: pf.pullback(Divisor({"y2": 1}), 2),
        lambda pf: symmetrize(pf).quotient_ramification(),
    ],
    ids=["first-projection", "second-projection", "quotient"],
)
def test_fiber_maps_refuse_hand_built_multiplicities_that_do_not_divide(pull):
    """(y1, y2) has multiplicity 1 over the double point y1 of the first
    factor, and its swap orbit has total multiplicity 4, so 2 on the
    quotient: no ramification index divides either way."""
    pf = PairFiber("x", ((("y1", "y2"), 1), (("y2", "y1"), 3)), (BR4, BR4))
    with pytest.raises(ValidationError, match="^inconsistent multiplicities along a fiber map$"):
        pull(pf)


# -- ramification ----------------------------------------------------------------


def test_ramification_identity_branch_fiber_ledger():
    ok, ledger = ramification_check(BR4)
    assert ok
    assert ledger["lhs"] == Divisor(
        {("y1", "y1"): 2, ("y1", "y2"): 1, ("y2", "y1"): 1, ("y1", "y3"): 1, ("y3", "y1"): 1}
    )
    assert ledger["quotient_ramification"] == Divisor({("y1", "y1"): 1})
    assert ledger["sym_cover_ramification"] == Divisor({("y1", "y2"): 1, ("y1", "y3"): 1})


def test_ramification_identity_regular_fiber_is_trivial():
    ok, ledger = ramification_check(REG4)
    assert ok and ledger["lhs"].is_zero and ledger["rhs"].is_zero


def test_twist_ledger_degrees():
    sl4 = twist_ledger("sl4")
    assert sl4.branch == (6, 4, 2) and sl4.regular == (0, 0, 0) and sl4.identity_holds
    so4 = twist_ledger("so4")
    assert so4.branch == (2, 2) and so4.regular == (0, 0) and so4.identity_holds
    so6 = twist_ledger("so6")
    assert so6.branch == (3, 2, 1) and so6.identity_holds
    with pytest.raises(ValidationError):
        twist_ledger("sp4")


# -- the correspondence -----------------------------------------------------------


def test_push_regular_fiber():
    d = Divisor({"y1": 1, "y2": -1})
    pushed = correspondence_push(d, REG4)
    assert pushed == Divisor(
        {("y1", "y3"): 1, ("y1", "y4"): 1, ("y2", "y3"): -1, ("y2", "y4"): -1}
    )


def test_push_branch_fiber():
    d = Divisor({"y1": 1, "y3": -1})
    pushed = correspondence_push(d, BR4)
    assert pushed == Divisor(
        {("y1", "y1"): 1, ("y2", "y3"): -1, ("y1", "y2"): 1, ("y1", "y3"): -1}
    )


def test_push_zero_and_linearity(rng_factory):
    assert correspondence_push(Divisor({}), REG4).is_zero
    rng = rng_factory("lin")
    for fiber in (REG4, BR4):
        for _ in range(10):
            d1 = Divisor({l: rng.randint(-3, 3) for l in fiber.labels})
            d2 = Divisor({l: rng.randint(-3, 3) for l in fiber.labels})
            assert correspondence_push(d1 + d2, fiber) == correspondence_push(
                d1, fiber
            ) + correspondence_push(d2, fiber)


def test_push_order_two_compatibility():
    # an order-2 weight vector stays order-2 after the push (linearity shadow)
    d = Divisor({"y1": 1, "y2": 1, "y3": -1, "y4": -1})
    pushed = correspondence_push(d, REG4)
    assert correspondence_push(d + d, REG4) == pushed + pushed


def test_push_validates_support():
    with pytest.raises(ValidationError):
        correspondence_push(Divisor({"w": 1}), REG4)


# -- norms ------------------------------------------------------------------------


def test_norm_down_to_base():
    assert norm(Divisor({"y1": 1, "y2": -1}), REG4, "pi").is_zero
    assert norm(Divisor({"y1": 2}), REG4, "pi") == Divisor({"x": 2})


def test_norm_on_quotient_regular():
    d = Divisor({"y1": 1, "y2": -1})
    c = correspondence_push(d, REG4)
    assert norm(c, sym_of(REG4), "sigma").is_zero


def test_norm_on_quotient_branch_matches_weighted_orbit_sum():
    sym = sym_of(BR4)
    for weights in [(1, 1, 1), (2, 0, 1), (1, -1, 3)]:
        d = Divisor(dict(zip(BR4.labels, weights)))
        total = sum(weights)
        pushed = correspondence_push(d, BR4)
        assert norm(pushed, sym, "sigma") == Divisor(
            {("y1", "y1"): total, ("y1", "y2"): 2 * total}
        )


def test_norm_on_paired_involution_quotient():
    pf = fiber_product(BR2, REG2B)
    d = Divisor({("p", "q1"): 3, ("p", "q2"): -3})
    assert norm(d, pf, "sigma4").is_zero
    assert norm(Divisor({("p", "q1"): 1}), pf, "sigma4") == Divisor({("p", "q1"): 1})


@pytest.mark.parametrize(
    "carrier,covering,what",
    [
        (sym_of(REG4), "pi", "the pi covering pushes down a cover fiber"),
        (REG4, "sigma", "the sigma covering pushes down a symmetrized fiber"),
        (REG4, "sigma4", "the sigma4 covering pushes down a two-factor product fiber"),
        (self_product_minus_diagonal(REG4), "sigma4", "the sigma4 covering pushes down a two-factor product fiber"),
    ],
    ids=["pi-of-sym", "sigma-of-fiber", "sigma4-of-fiber", "sigma4-of-self-product"],
)
def test_norm_refuses_a_carrier_of_another_covering(carrier, covering, what):
    with pytest.raises(ValidationError, match=f"^{what}$"):
        norm(Divisor({}), carrier, covering)


def _with_sigma(sym, image):
    """The symmetrized fiber with its involution replaced by ``image``."""
    return SymFiber(sym.base_label, sym.points, tuple((k, image(k, v)) for k, v in sym.sigma_pairs), sym.source)


def test_norm_refuses_a_residual_involution_with_a_fixed_point():
    fixed = (("y1", "y2"), ("y3", "y4"))
    sym = _with_sigma(sym_of(REG4), lambda k, v: k if k in fixed else v)
    with pytest.raises(ValidationError, match="^residual involution has a fixed point on this fiber$"):
        norm(Divisor({("y1", "y2"): 1}), sym, "sigma")


def test_norm_refuses_a_paired_involution_with_a_fixed_point():
    """Two branched factors, which ``fiber_product`` refuses, built by hand."""
    pf = PairFiber("x", ((("p", "q"), 4),), (BR2, FiberModel.generic_branch("x", ("q",))))
    with pytest.raises(ValidationError, match="^paired involution has a fixed point on this fiber$"):
        norm(Divisor({("p", "q"): 1}), pf, "sigma4")


def test_norm_refuses_a_residual_map_that_is_not_an_involution():
    sym = sym_of(REG4)
    keys = [k for k, _ in sym.sigma_pairs]
    rotated = _with_sigma(sym, lambda k, v: keys[(keys.index(k) + 1) % len(keys)])
    with pytest.raises(ValidationError, match="^residual involution does not square to one on this fiber$"):
        norm(Divisor({("y1", "y2"): 1}), rotated, "sigma")


def test_norm_unknown_covering():
    with pytest.raises(ValidationError):
        norm(Divisor({}), REG4, "tau")


def test_prym_test_family():
    reg_sym = sym_of(REG4)
    br_sym = sym_of(BR4)
    good = [
        (reg_sym, correspondence_push(Divisor({"y1": 2, "y2": -2}), REG4)),
        (br_sym, correspondence_push(Divisor({"y1": 1, "y2": -1}), BR4)),
    ]
    assert prym_test(good, "sigma")
    bad = good + [(reg_sym, Divisor({("y1", "y2"): 1}))]
    assert not prym_test(bad, "sigma")


def test_prym_preservation_exhaustive():
    reg_sym, br_sym = sym_of(REG4), sym_of(BR4)
    for weights in itertools.product(range(-2, 3), repeat=4):
        if sum(weights):
            continue
        c = correspondence_push(Divisor(dict(zip(REG4.labels, weights))), REG4)
        assert norm(c, reg_sym, "sigma").is_zero
    for weights in itertools.product(range(-2, 3), repeat=3):
        if sum(weights):
            continue
        c = correspondence_push(Divisor(dict(zip(BR4.labels, weights))), BR4)
        assert norm(c, br_sym, "sigma").is_zero


# -- Prym membership helpers -------------------------------------------------------


def test_mumford_divisor_single_point():
    sym = sym_of(REG4)
    result = mumford_divisor(Divisor({("y1", "y2"): 1}), sym)
    assert result.divisor == Divisor({("y1", "y2"): 1, ("y3", "y4"): -1})
    assert result.parity == "odd"
    assert norm(result.divisor, sym, "sigma").is_zero


def test_mumford_divisor_zero_and_random(rng_factory):
    sym = sym_of(REG4)
    zero = mumford_divisor(Divisor({}), sym)
    assert zero.divisor.is_zero and zero.parity == "even"
    rng = rng_factory("mumford")
    for _ in range(5):
        n = Divisor({k: rng.randint(-2, 2) for k in sym.keys})
        res = mumford_divisor(n, sym)
        assert norm(res.divisor, sym, "sigma").is_zero


def test_sigma_orbit_split_cases():
    sym = sym_of(REG4)
    invariant = Divisor({("y1", "y2"): 2, ("y3", "y4"): 2})
    inv, defect = sigma_orbit_split(invariant, sym)
    assert inv == invariant and defect.is_zero
    anti = Divisor({("y1", "y2"): 1, ("y3", "y4"): -1})
    inv, defect = sigma_orbit_split(anti, sym)
    assert inv.is_zero and defect == anti


def test_sigma_orbit_split_recomposes(rng_factory):
    sym = sym_of(BR4)
    rng = rng_factory("split")
    sigma = sym.sigma()
    for _ in range(10):
        d = Divisor({k: rng.randint(-4, 4) for k in sym.keys})
        inv, defect = sigma_orbit_split(d, sym)
        assert inv + defect == d
        assert all(inv.get(k) == inv.get(sigma[k]) for k in sym.keys)
        for k in defect.support():
            assert d.get(k) != d.get(sigma[k])
