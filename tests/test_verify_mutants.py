"""Every identity the verify suite certifies for the production builders
can fail.

The builders (``build_block_higgs_so33``, ``hodge_split``,
``assemble_so22``, ``symmetrize``, ``twist_ledger``) do not re-check their
own results, and ``correspondence_push`` re-checks neither that the
self-product table of ``self_product_minus_diagonal`` is swap-symmetric
nor that its push divides exactly; each identity is checked once, by the
criterion named below.  The so(3,3) and so(2,2) builders and the star
operator return closed forms (``alpha_block``, the so(2,2) blocks,
``so4_base``, Q6 Lambda^2(q) / sqrt(det q)), and their criteria hold the
definitions as the reference: the split-basis conjugation of the rank-3
derivative; the reordered Kronecker tensor sum and the characteristic
polynomial and Pfaffian of the assembled field; the inverse of the induced
form times Q6, whose eigenvectors must be the returned bases, whose sign
orientation -1 must flip, and whose restrictions to the eigenspaces must
be symmetric and non-degenerate.  The fiber builders' references are the
definitions too: each square-root twist row doubled is the self-product
row (criterion 7), and a pushed divisor pulled back to the self-product is
the sum of the two projections' pullbacks (criterion 8).  ``twist_ledger``
reads its self-product degrees from the ledger of ``ramification_check``,
so a wrong ledger reaches both, and each criterion 7 comparison has a case.
The preimage counts of criterion 9 are solutions of one equation, and each
count comparison has a case that rewrites that equation.

Each case swaps one function for a variant that breaks exactly one
identity, in every isolab module namespace that holds the function, and
asserts that the covering criterion reports FAIL at that identity.  A
function swapped everywhere also reaches the builders that call it and
the references that could share it: an oracle that derived its sextic
from ``so6_base``, or a criterion 10 that compared the assembly only with
``so4_base``, would agree with the wrong map and pass.
"""

import importlib
import inspect
import pkgutil
import random

import pytest

import isolab
from isolab import moduli_invariants, verify
from isolab.covers_prym import Divisor, self_product_minus_diagonal, symmetrize
from isolab.exact_algebra import RingMatrix, UniPoly
from isolab.lie_isogeny import QuadraticForm, hodge_split

MODULES = [isolab] + [
    importlib.import_module(f"isolab.{info.name}") for info in pkgutil.iter_modules(isolab.__path__)
]
IDENTITY4 = RingMatrix.identity(4)
SWAP2 = RingMatrix([[0, 1], [1, 0]])


def replace(record, **changes):
    """A new record of the same class with the named fields changed; it runs
    the class's ``__post_init__`` as construction does."""
    return record.__class__(**{**{name: getattr(record, name) for name in record._fields}, **changes})


def _higgs(**edits):
    """Edit the blocks of an assembled so(2,2) field."""
    return lambda r, *_: replace(
        r, higgs=replace(r.higgs, **{k: f(r.higgs) for k, f in edits.items()})
    )


def _fixed_point(sym, *_):
    (key, _), *rest = sym.sigma_pairs
    return replace(sym, sigma_pairs=((key, key), *rest))


def _rotated(sym, *_):
    keys = tuple(k for k, _ in sym.sigma_pairs)
    return replace(sym, sigma_pairs=tuple(zip(keys, keys[1:] + keys[:1])))


def _asymmetric(pf, *_):
    """One ordered pair's multiplicity up by 2: its swap orbit's total stays
    even, so ``symmetrize`` still accepts the table."""
    (key, m), *rest = pf.points
    return replace(pf, points=((key, m + 2), *rest))


def _asymmetric_restriction(s, *_):
    """q_plus times a unipotent matrix: its determinant stays, its symmetry
    goes."""
    unipotent = RingMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    return replace(s, q_plus=QuadraticForm(s.q_plus.gram * unipotent))


def _halved_up(ledger, context):
    """The square-root twist rows with the two halved degrees one too large:
    first == second + third still holds on both fibers."""
    if context != "so6":
        return ledger
    up = lambda row: (row[0] + 1, row[1] + 1, row[2])
    return replace(ledger, regular=up(ledger.regular), branch=up(ledger.branch))


def _quotient_once(checked, *_):
    """The right-hand side with the quotient ramification counted once, the
    verdict recomputed: unchanged on a regular fiber, where it is zero."""
    _, ledger = checked
    rhs = ledger["rhs"] - ledger["quotient_ramification"]
    return ledger["lhs"] == rhs, {**ledger, "rhs": rhs}


def _quotient_doubled(checked, *_):
    """The ledger's quotient ramification doubled, its verdict kept: the
    self-product branch row read from it is (6, 2, 4), which still adds up."""
    ok, ledger = checked
    return ok, {**ledger, "quotient_ramification": ledger["quotient_ramification"].scale(2)}


def _two_factor_doubled(ledger, context):
    """The two-factor branch row doubled: its two columns still agree."""
    return replace(ledger, branch=(4, 4)) if context == "so4" else ledger


def _square_root_identity_dropped(ledger, context):
    """The square-root twist rows kept, the identity they satisfy reported
    false."""
    return replace(ledger, identity_holds=False) if context == "so6" else ledger


def _undivided(pushed, d, f):
    """The push without the division by the quotient map's ramification
    index: the same push on a regular fiber, where every index is 1, and
    twice the weight at (y1, y1) on a branch fiber."""
    pf = self_product_minus_diagonal(f)
    combined = pf.pullback(d, 1) + pf.pullback(d, 2)
    return Divisor({key: combined.get(key) for key in symmetrize(pf).keys})


def _congruence_only(edit):
    """Leave the fixed identity-form instances alone, break the samples."""
    return lambda s, q, *_: s if q.gram == IDENTITY4 else edit(s)


def _conjugated(h):
    """The field conjugated by [[I, X], [0, I]] with X = u v^T, u = e1 and
    v^T phi21 u = 0: the off-diagonal blocks, the characteristic polynomial
    and (since the new phi11 has a zero (2, 2) entry) the Pfaffian of the
    form times the field stay, and the diagonal blocks become X phi21 and
    -phi21 X."""
    c = h.phi21
    x = RingMatrix([[c.entries[1][0], -c.entries[0][0]], [0, 0]])
    return replace(h, phi11=x * c, phi22=-(c * x))


# (criterion, function in verify's namespace, wrong variant, expected detail)
CASES = {
    "so33 diagonal blocks vanish": (
        5, "build_block_higgs_so33",
        lambda h, *_: replace(h, phi11=h.phi11 + RingMatrix.identity(3)),
        "diagonal blocks sample 0",
    ),
    "so33 phi12 is alpha_block": (
        5, "build_block_higgs_so33",
        lambda h, *_: replace(h, phi12=h.phi12.transpose()),
        "off-diagonal blocks sample 0",
    ),
    "so33 phi21 is alpha^T": (
        5, "build_block_higgs_so33",
        lambda h, *_: replace(h, phi21=-h.phi21),
        "off-diagonal blocks sample 0",
    ),
    "so33 alpha_block transposed": (
        5, "alpha_block",
        lambda a, *_: a.transpose(),
        "off-diagonal blocks sample 0",
    ),
    "so33 block anti-symmetry": (
        5, "build_block_higgs_so33",
        lambda h, *_: replace(h, q2=h.q2.scale(2)),
        "block anti-symmetry sample 0",
    ),
    "star squares to one": (
        6, "hodge_split",
        _congruence_only(lambda s: replace(s, star=s.star.scale(2))),
        "involution sample 0",
    ),
    "star eigenspace ranks": (
        6, "hodge_split",
        _congruence_only(lambda s: replace(s, plus_basis=s.plus_basis[:2])),
        "rank sample 0",
    ),
    "star ignores the form": (
        6, "hodge_split",
        _congruence_only(lambda s: hodge_split(QuadraticForm(IDENTITY4))),
        "star sample 0",
    ),
    "eigenspaces swapped off the identity form": (
        6, "hodge_split",
        _congruence_only(lambda s: replace(s, plus_basis=s.minus_basis, minus_basis=s.plus_basis)),
        "eigenspace sample 0",
    ),
    "star drops the orientation off the identity form": (
        6, "hodge_split",
        lambda s, q, *_: s if q.gram == IDENTITY4 else hodge_split(q),
        "orientation sample 0",
    ),
    "restricted forms are symmetric": (
        6, "hodge_split", _asymmetric_restriction, "asymmetric restriction 0",
    ),
    "square-root twist rows are the halved self-product rows": (
        7, "twist_ledger", _halved_up, "square-root twist rows are not the halved self-product rows",
    ),
    "ramification identity counts the quotient twice": (
        7, "ramification_check", _quotient_once,
        "generic_branch: Divisor(2*('y1', 'y1') + 1*('y1', 'y2') + 1*('y1', 'y3') + 1*('y2', 'y1') + 1*('y3', 'y1'))"
        " != Divisor(1*('y1', 'y1') + 1*('y1', 'y2') + 1*('y1', 'y3') + 1*('y2', 'y1') + 1*('y3', 'y1'))",
    ),
    "self-product twist degrees read the ramification ledger": (
        7, "ramification_check", _quotient_doubled, "self-product twist degrees",
    ),
    "two-factor twist degrees": (
        7, "twist_ledger", _two_factor_doubled, "two-factor twist degrees",
    ),
    "square-root twist identity": (
        7, "twist_ledger", _square_root_identity_dropped, "square-root twist degrees",
    ),
    "push descends to the quotient": (
        8, "correspondence_push", _undivided, "branch fiber weights (-2, 0, 2): push does not descend",
    ),
    "residual involution fixed-point free": (
        8, "symmetrize", _fixed_point, "involution fixed point",
    ),
    "residual involution squares to one": (
        8, "symmetrize", _rotated, "involution does not square to one",
    ),
    "self-product table swap-symmetric": (
        8, "self_product_minus_diagonal", _asymmetric,
        "regular fiber weights (-2, -2, 2, 2): pullback differs under the swap",
    ),
    "so22 alpha blocks": (
        10, "assemble_so22",
        _higgs(phi12=lambda h: h.phi12 * SWAP2),
        "alpha sample 0",
    ),
    "so22 block anti-symmetry": (
        10, "assemble_so22",
        _higgs(phi21=lambda h: -h.phi21),
        "block anti-symmetry sample 0",
    ),
    "so22 field conjugated off the block form": (
        10, "assemble_so22",
        lambda r, *_: replace(r, higgs=_conjugated(r.higgs)),
        "field sample 0",
    ),
    "so22 quartic": (
        10, "assemble_so22",
        lambda r, *_: replace(r, quartic=UniPoly("eta", [0, 0, 0, 0, 1])),
        "quartic sample 0",
    ),
    "so22 Pfaffian is a1 - a2": (
        10, "assemble_so22",
        lambda r, *_: replace(r, base=replace(r.base, pf=-r.base.pf)),
        "Pfaffian sample 0",
    ),
    "so22 so4_base b1 = a1 - a2": (
        10, "so4_base",
        lambda m, b, *_: replace(m, b1=b.a1 - b.a2),
        "quartic sample 0",
    ),
    "so22 so4_base Pfaffian sign flipped": (
        10, "so4_base",
        lambda m, *_: replace(m, pf=-m.pf),
        "Pfaffian sample 0",
    ),
    "so22 reordered form shape": (
        10, "assemble_so22",
        _higgs(q1=lambda h: h.q2, q2=lambda h: h.q1),
        "reordered form shape",
    ),
    "so6 b2 off by a4": (
        2, "so6_base",
        lambda m, b, *_: replace(m, b2=m.b2 + b.a4),
        "fixed instance (-5, 0, 4) failed",
    ),
    "so6 b2 = a2^2 + 4 a4": (
        2, "so6_base",
        lambda m, b, *_: replace(m, b2=b.a2 * b.a2 + 4 * b.a4),
        "fixed instance (-5, 0, 4) failed",
    ),
    "so6 b1 = a2": (
        2, "so6_base",
        lambda m, b, *_: replace(m, b1=b.a2),
        "fixed instance (-5, 0, 4) failed",
    ),
    "so6 b2 off by a2 a3": (  # zero on both fixed instances: only the oracle sees it
        2, "so6_base",
        lambda m, b, *_: replace(m, b2=m.b2 + b.a2 * b.a3),
        "sample 0 sign 1 mismatch",
    ),
}


def _criterion(number):
    (check,) = [fn for name, fn, _ in verify.CRITERIA if name.split()[0] == str(number)]
    return check


@pytest.mark.parametrize("case", sorted(CASES))
def test_wrong_builder_fails_its_criterion(case, monkeypatch):
    number, builder, edit, detail = CASES[case]
    check = _criterion(number)
    assert check(random.Random(case), 2)[0]

    real = getattr(verify, builder)
    wrong = lambda *a, **kw: edit(real(*a, **kw), *a)
    for module in MODULES:
        if getattr(module, builder, None) is real:
            monkeypatch.setattr(module, builder, wrong)
    passed, actual = check(random.Random(case), 2)
    assert not passed
    assert actual == detail


#: The count equation of ``moduli_invariants._halvings``, and the equations
#: that replace it -> the criterion 9 comparison that each makes fail.
COUNT_EQUATION = "2 * a % 4 == b"
COUNT_CASES = {
    "a = b (mod 4): one twist, not 2^(2g)": ("a % 4 == b", "rank-3 count at genus 2"),
    "a^2 = b (mod 4): the twists kept, no square root of 2": ("a * a % 4 == b", "rank-2 count report"),
}


@pytest.mark.parametrize("case", sorted(COUNT_CASES))
def test_wrong_count_equation_fails_criterion_9(case, monkeypatch):
    """``_halvings`` recompiled from its own source with only the equation
    replaced: the counts of criterion 9 are solutions of that equation, not
    the restated size of a group."""
    equation, detail = COUNT_CASES[case]
    check = _criterion(9)
    assert check(random.Random(case), 2)[0]

    source = inspect.getsource(moduli_invariants._halvings)
    assert source.count(COUNT_EQUATION) == 1
    namespace = dict(vars(moduli_invariants))
    exec(source.replace(COUNT_EQUATION, equation), namespace)
    monkeypatch.setattr(moduli_invariants, "_halvings", namespace["_halvings"])
    passed, actual = check(random.Random(case), 2)
    assert not passed
    assert actual == detail
