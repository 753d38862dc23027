"""The frozen value types share one base class, ``Record``: fields from the
annotations of the class's own body, construction by position or keyword
followed by ``__post_init__``, equality within one class, the hash of the
field tuple, refused assignment, and the ``Name(field=value, ...)`` repr."""

from fractions import Fraction

import pytest

from isolab.covers_prym import FiberModel, twist_ledger
from isolab.exact_algebra import Record, RingMatrix, UniPoly, ValidationError
from isolab.lie_isogeny import QuadraticForm
from isolab.moduli_invariants import ToledoPair, TorsionVector, W2Label
from isolab.spectral_base import BaseSL2Pair, BaseSL4, BaseSO4, BaseSO6
from isolab.verify import CheckResult, VerifyReport


class Left(Record):
    a: int
    b: int


class Right(Record):
    a: int
    b: int


def test_fields_are_the_annotations_of_the_class_body_in_order():
    assert Left._fields == ("a", "b")
    assert ToledoPair._fields == ("d1", "d2", "g")
    # the annotation on the non-record mixin _PointTable is not a field
    assert FiberModel._fields == ("base_label", "points", "kind")
    assert BaseSO6._fields == ("b1", "b2", "pf")


def test_records_of_two_classes_with_equal_fields_are_unequal():
    assert Left(1, 2) == Left(1, 2)
    assert Left(1, 2) != Right(1, 2) and not Left(1, 2) == Right(1, 2)
    assert BaseSL2Pair(1, 2) != BaseSO4(1, 2)
    assert W2Label(1) != (1,) and Left(1, 2) != (1, 2)


def test_equality_compares_every_field():
    assert ToledoPair(1, 0, 2) == ToledoPair(1, 0, 2)
    assert ToledoPair(1, 0, 2) != ToledoPair(1, 0, 3)
    assert ToledoPair(1, 0, 2) != ToledoPair(0, 0, 2)


def test_equal_records_hash_equally_as_their_field_tuple():
    assert hash(ToledoPair(1, 0, 2)) == hash(ToledoPair(1, 0, 2)) == hash((1, 0, 2))
    assert hash(W2Label(1)) == hash((1,))
    assert hash(CheckResult("c", True, "ok")) == hash(CheckResult(detail="ok", name="c", passed=True))
    with pytest.raises(TypeError, match="unhashable type: 'UniPoly'"):
        hash(BaseSO6(1, 2, 3))
    assert len({Left(1, 2), Left(1, 2), Right(1, 2)}) == 2


def test_assignment_and_deletion_raise_attribute_error():
    t = ToledoPair(1, 0, 2)
    with pytest.raises(AttributeError, match=r"^cannot assign to field 'g'$"):
        t.g = 3
    with pytest.raises(AttributeError, match=r"^cannot assign to field 'extra'$"):
        t.extra = 3
    with pytest.raises(AttributeError, match=r"^cannot delete field 'g'$"):
        del t.g
    assert t == ToledoPair(1, 0, 2)


def test_keyword_construction():
    assert ToledoPair(d2=0, g=2, d1=1) == ToledoPair(1, 0, 2)
    assert ToledoPair(1, g=2, d2=0) == ToledoPair(1, 0, 2)
    assert CheckResult(name="c", passed=True, detail="ok").detail == "ok"


@pytest.mark.parametrize(
    ("args", "kwargs"),
    [
        ((1, 0), {}),
        ((), {"d1": 1, "d2": 0}),
        ((1, 0, 2, 3), {}),
        ((1, 0, 2), {"h": 1}),
        ((1, 0), {"g": 2, "h": 1}),
        ((1, 0), {"d1": 1}),
        ((1, 0, 2), {"d1": 1}),
    ],
    ids=["few-positional", "few-keywords", "extra-positional", "extra-keyword", "extra-with-keywords",
         "keyword-repeats-positional", "keyword-after-all-positional"],
)
def test_missing_or_extra_fields_raise_type_error(args, kwargs):
    with pytest.raises(TypeError, match=r"^ToledoPair\(\) takes the fields \(d1, d2, g\)"):
        ToledoPair(*args, **kwargs)


def test_post_init_runs_after_positional_and_keyword_construction():
    with pytest.raises(ValidationError):
        W2Label(2)
    with pytest.raises(ValidationError):
        W2Label(value=2)
    fiber = FiberModel("x", [["a", 1], ["b", 1]], "regular")
    assert fiber.points == (("a", 1), ("b", 1)) and type(fiber.points[0]) is tuple
    assert FiberModel(kind="regular", points=[["a", 1]], base_label="x").points == (("a", 1),)


def test_sections_are_coerced_to_z_polynomials():
    for b in (BaseSO6(1, "1/2", Fraction(3)), BaseSO6(pf=Fraction(3), b2="1/2", b1=1)):
        assert all(isinstance(getattr(b, n), UniPoly) and getattr(b, n).var == "z" for n in b._fields)
        assert b == BaseSO6(UniPoly("z", [1]), UniPoly("z", [Fraction(1, 2)]), UniPoly("z", [3]))
    with pytest.raises(ValidationError):
        BaseSL4(UniPoly("eta", [0, 1]), 0, 0)


# Reprs as the dataclass-generated __repr__ printed them.
REPRS = [
    (lambda: Left(1, "b"), "Left(a=1, b='b')"),
    (lambda: BaseSL2Pair(1, "1/2"), "BaseSL2Pair(a1=UniPoly('z', ['1']), a2=UniPoly('z', ['1/2']))"),
    (
        lambda: BaseSL4(UniPoly("z", [0, 1]), 0, UniPoly("z", [2, 0, -1])),
        "BaseSL4(a2=UniPoly('z', ['0', '1']), a3=UniPoly('z', []), a4=UniPoly('z', ['2', '0', '-1']))",
    ),
    (
        lambda: FiberModel.generic_branch("p", ["y", "s", "t"]),
        "FiberModel(base_label='p', points=(('y', 2), ('s', 1), ('t', 1)), kind='generic_branch')",
    ),
    (
        lambda: twist_ledger("so4"),
        "TwistLedger(context='so4', columns=('product_ramification', 'pulled_back_factors'), "
        "regular=(0, 0), branch=(2, 2), identity='product_ramification == pulled_back_factors', "
        "identity_holds=True)",
    ),
    (lambda: QuadraticForm(RingMatrix.identity(2)), "QuadraticForm(gram=RingMatrix(2x2: [1, 0]; [0, 1]))"),
    (lambda: ToledoPair(1, 0, 2), "ToledoPair(d1=1, d2=0, g=2)"),
    (lambda: W2Label(1), "W2Label(value=1)"),
    (lambda: TorsionVector((0, 1, 1, 0), 2), "TorsionVector(bits=(0, 1, 1, 0), g=2)"),
    (
        lambda: VerifyReport(0, 1, "+1", (CheckResult("c", False, "no"),)),
        "VerifyReport(seed=0, samples=1, orientation='+1', "
        "results=(CheckResult(name='c', passed=False, detail='no'),))",
    ),
]


@pytest.mark.parametrize(("build", "text"), REPRS, ids=[text.split("(")[0] for _, text in REPRS])
def test_repr_is_pinned(build, text):
    assert repr(build()) == text
