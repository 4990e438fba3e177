"""The seven result and spec records: fields, defaults, validation, equality
within one class only, hash, repr, copying, and refusal of assignment."""

from __future__ import annotations

import copy

import pytest

from steinerlab import (
    BadDimsError,
    BadLevelError,
    Chain,
    CellTable,
    CheckItem,
    CheckReport,
    PreorderRelation,
    PushoutResult,
    RetractionPair,
    ThetaSpec,
    identity_map,
    interval,
    unit,
)


def _table():
    point = Chain(0, {("u",): 1})
    return CellTable(unit(), 0, (point,), (point,))


def _pair():
    m = identity_map(unit())
    return RetractionPair(m, m)


# (factory of one record, factory of an equal one, factory of a different one)
CASES = {
    "CheckItem": (
        lambda: CheckItem("EMBED_VALID", True),
        lambda: CheckItem(name="EMBED_VALID", passed=True, witness=None),
        lambda: CheckItem("EMBED_VALID", False, "level 1"),
    ),
    "CheckReport": (
        lambda: CheckReport((CheckItem("A", True),)),
        lambda: CheckReport(checks=(CheckItem("A", True),)),
        lambda: CheckReport((CheckItem("A", True), CheckItem("B", False))),
    ),
    "CellTable": (
        _table,
        lambda: CellTable(
            ambient=unit(), dim=0,
            minus=(Chain(0, {("u",): 1}),), plus=(Chain(0, {("u",): 1}),),
        ),
        lambda: CellTable(unit(), 0, (Chain(0),), (Chain(0),)),
    ),
    "PushoutResult": (
        lambda: PushoutResult(None, None, None, False, (1, 2), "torsion"),
        lambda: PushoutResult(
            complex=None, leg_a=None, leg_b=None, based=False,
            torsion_witness=(1, 2), reason="torsion",
        ),
        lambda: PushoutResult(None, None, None, False),
    ),
    "RetractionPair": (
        _pair,
        lambda: RetractionPair(
            embed=identity_map(unit()), retract=identity_map(unit())
        ),
        lambda: RetractionPair(identity_map(interval()), identity_map(interval())),
    ),
    "ThetaSpec": (
        lambda: ThetaSpec((2, 1), (0,), (("target", "source"),)),
        lambda: ThetaSpec(dims=(2, 1), glue=(0,), sides=(("target", "source"),)),
        lambda: ThetaSpec((2,)),
    ),
    "PreorderRelation": (
        lambda: PreorderRelation((("a",), ("b",)), ((("a",), ("b",)),)),
        lambda: PreorderRelation(
            elements=(("a",), ("b",)), edges=((("a",), ("b",)),)
        ),
        lambda: PreorderRelation((("a",), ("b",)), ()),
    ),
}

FIELDS = {
    "CheckItem": ("name", "passed", "witness"),
    "CheckReport": ("checks",),
    "CellTable": ("ambient", "dim", "minus", "plus"),
    "PushoutResult": (
        "complex", "leg_a", "leg_b", "based", "torsion_witness", "reason",
    ),
    "RetractionPair": ("embed", "retract"),
    "ThetaSpec": ("dims", "glue", "sides"),
    "PreorderRelation": ("elements", "edges"),
}


@pytest.mark.parametrize("kind", CASES)
def test_equality_and_hash(kind):
    make, make_equal, make_other = CASES[kind]
    a, b, other = make(), make_equal(), make_other()
    assert a == b and not (a != b)
    assert hash(a) == hash(b)
    assert a != other and not (a == other)
    assert hash(a) == hash(tuple(getattr(a, f) for f in FIELDS[kind]))


@pytest.mark.parametrize("kind", CASES)
def test_equality_is_within_one_class(kind):
    make = CASES[kind][0]
    a = make()
    values = tuple(getattr(a, f) for f in FIELDS[kind])
    assert a != values
    assert (a == values) is False

    class Sub(type(a)):
        pass

    assert Sub(*values) != a
    assert a != Sub(*values)


@pytest.mark.parametrize("kind", CASES)
def test_assignment_and_deletion_are_refused(kind):
    a = CASES[kind][0]()
    for field in FIELDS[kind]:
        before = getattr(a, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(a, field, before)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(a, field)
        assert getattr(a, field) is before
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("kind", CASES)
def test_copies_are_equal(kind):
    a = CASES[kind][0]()
    b = copy.copy(a)
    assert b == a and b is not a


def test_reprs():
    assert repr(CheckItem("A", True)) == "CheckItem(name='A', passed=True, witness=None)"
    assert repr(CheckReport((CheckItem("A", False, "x"),))) == (
        "CheckReport(checks=(CheckItem(name='A', passed=False, witness='x'),))"
    )
    assert repr(_table()) == "<CellTable dim 0 over <BasedComplex {0:1}>>"
    assert repr(PushoutResult(None, None, None, False)) == (
        "PushoutResult(complex=None, leg_a=None, leg_b=None, based=False,"
        " torsion_witness=None, reason=None)"
    )
    point_map = "<ComplexMap <BasedComplex {0:1}> -> <BasedComplex {0:1}>>"
    assert repr(_pair()) == f"RetractionPair(embed={point_map}, retract={point_map})"
    assert repr(ThetaSpec((1,))) == "ThetaSpec(dims=(1,), glue=(), sides=())"
    assert repr(PreorderRelation((("a",),), ())) == (
        "PreorderRelation(elements=(('a',),), edges=())"
    )


def test_defaults():
    assert CheckItem("A", True).witness is None
    result = PushoutResult(None, None, None, True)
    assert result.torsion_witness is None and result.reason is None
    spec = ThetaSpec((3,))
    assert spec.glue == () and spec.sides == ()


def test_construction_arity_is_checked():
    with pytest.raises(TypeError):
        CheckItem("A")
    with pytest.raises(TypeError):
        CheckItem("A", True, None, "extra")
    with pytest.raises(TypeError):
        CheckItem("A", True, colour="red")
    with pytest.raises(TypeError):
        RetractionPair(identity_map(unit()))


def test_validation_is_kept():
    with pytest.raises(BadLevelError):
        CellTable(unit(), 1, (Chain(0),), (Chain(0),))
    with pytest.raises(BadLevelError):
        CellTable(unit(), 0, (Chain(1),), (Chain(0),))
    with pytest.raises(BadLevelError):
        CellTable(unit(), -1, (), ())
    with pytest.raises(BadDimsError):
        ThetaSpec(())
    with pytest.raises(BadDimsError):
        ThetaSpec((1, 1), (), ())
    with pytest.raises(BadDimsError):
        ThetaSpec((1, 1), (2,), (("target", "source"),))
    with pytest.raises(BadDimsError):
        ThetaSpec((1, 1), (0,), (("left", "source"),))


def test_report_behaviour():
    rep = CheckReport((CheckItem("A", True), CheckItem("B", False, "w")))
    assert not rep.passed
    assert rep.failures() == [CheckItem("B", False, "w")]
    assert rep.merged(CheckReport(())) == rep
    assert rep.lines() == ["pass  A", "FAIL  B  [w]"]
