"""The package's result records: StateGraph, MorsePlan, LemmaCheck,
DegreeLemmaReport, CoefficientPrefix, ColorEntry, StabilityReport and
Fixture.  Each is built by position or keyword, compares and hashes by
its field values within its own class, prints as Name(field=value, ...),
refuses assignment and survives a pickle round trip.  The repr strings
are the ones the records printed as frozen dataclasses."""
import pickle

import pytest

from skeinlab.colored_states import DegreeLemmaReport, LemmaCheck
from skeinlab.diagram import Record, StateGraph
from skeinlab.fixtures import Fixture, fixture
from skeinlab.skein_eval import MorsePlan
from skeinlab.tails import CoefficientPrefix, ColorEntry, StabilityReport

PREFIX = CoefficientPrefix("3_1 color 3", "lowest", (1, -1, 0, 2), 3)
ENTRY = ColorEntry(2, -10, 3, 14, True, True, None, 0.25)

# (record class, field values in order, repr)
CASES = [
    (StateGraph, (2, ((0, 1), (1, 0))),
     "StateGraph(circle_count=2, edges=((0, 1), (1, 0)))"),
    (MorsePlan, ((2, 0, 1), 4),
     "MorsePlan(order=(2, 0, 1), peak_width=4)"),
    (LemmaCheck, ("deg", 3, 3),
     "LemmaCheck(name='deg', lhs=3, rhs=3)"),
    (DegreeLemmaReport, ("3_1", 2, (LemmaCheck("a", 1, 2),)),
     "DegreeLemmaReport(diagram='3_1', n=2, checks=(LemmaCheck(name='a', lhs=1, rhs=2),))"),
    (CoefficientPrefix, ("3_1 color 3", "lowest", (1, -1, 0, 2), 3),
     "CoefficientPrefix(source='3_1 color 3', end='lowest', coefficients=(1, -1, 0, 2), "
     "certified=3)"),
    (ColorEntry, (2, -10, 3, 14, True, True, None, 0.25),
     "ColorEntry(n=2, min_degree=-10, max_degree=3, coefficients=14, bstate_vs_jtilde=True, "
     "next_bstate_vs_jtilde=True, next_jtilde_agrees=None, seconds=0.25)"),
    (StabilityReport, ("3_1", (ENTRY,), PREFIX),
     "StabilityReport(link='3_1', colors=(ColorEntry(n=2, min_degree=-10, max_degree=3, "
     "coefficients=14, bstate_vs_jtilde=True, next_bstate_vs_jtilde=True, "
     "next_jtilde_agrees=None, seconds=0.25),), tail=CoefficientPrefix(source='3_1 color 3', "
     "end='lowest', coefficients=(1, -1, 0, 2), certified=3))"),
    (Fixture, ("3_1", ("trefoil",), fixture("trefoil").diagram, 3, "note"),
     "Fixture(name='3_1', aliases=('trefoil',), diagram=LinkDiagram<trefoil>, "
     "determinant=3, note='note')"),
]
FIELDS = {
    StateGraph: ("circle_count", "edges"),
    MorsePlan: ("order", "peak_width"),
    LemmaCheck: ("name", "lhs", "rhs"),
    DegreeLemmaReport: ("diagram", "n", "checks"),
    CoefficientPrefix: ("source", "end", "coefficients", "certified"),
    ColorEntry: ("n", "min_degree", "max_degree", "coefficients", "bstate_vs_jtilde",
                 "next_bstate_vs_jtilde", "next_jtilde_agrees", "seconds"),
    StabilityReport: ("link", "colors", "tail"),
    Fixture: ("name", "aliases", "diagram", "determinant", "note"),
}
IDS = [cls.__name__ for cls, _, _ in CASES]


def test_the_cases_cover_every_record_class():
    assert {cls for cls, _, _ in CASES} == set(FIELDS)
    assert all(issubclass(cls, Record) for cls in FIELDS)


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, values, text):
    fields = FIELDS[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    mixed = cls(values[0], **dict(zip(fields[1:], values[1:])))
    assert by_position == by_keyword == mixed
    assert [getattr(by_keyword, f) for f in fields] == list(values)
    assert list(by_position.__dict__) == list(fields)
    assert cls(**by_position.__dict__) == by_position


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_a_missing_or_unknown_field_is_a_type_error(cls, values, text):
    fields = FIELDS[cls]
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, extra=1)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_form(cls, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_assignment_and_deletion_raise_attribute_error(cls, values, text):
    record = cls(*values)
    for field in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, field, values[0])
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.new_field = 1
    assert record == cls(*values)


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_pickle_round_trip(cls, values, text):
    record = cls(*values)
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls and back == record and repr(back) == text


@pytest.mark.parametrize("cls, values, text", [c for c in CASES if c[0] is not Fixture],
                         ids=[i for i in IDS if i != "Fixture"])
def test_equality_and_hash_by_value(cls, values, text):
    a, b = cls(*values), cls(*values)
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash(tuple(values))
    assert len({a, b}) == 1
    assert a != tuple(values)
    changed = cls("other", *values[1:])
    assert a != changed


def test_fixture_is_unhashable_like_its_diagram():
    # a LinkDiagram defines __eq__ and no __hash__, so a Fixture holding
    # one compares by value but cannot be hashed
    fx = fixture("trefoil")
    assert fx == Fixture(*fx.__dict__.values())
    with pytest.raises(TypeError):
        hash(fx)


def test_no_equality_across_record_types():
    # the same field values in two classes are two different records
    assert LemmaCheck("x", 1, 1) != StateGraph(1, ())
    assert MorsePlan((0,), 1) != StateGraph((0,), 1)

    class Other(Record):
        order: tuple
        peak_width: int

    assert MorsePlan((0,), 1) != Other((0,), 1)
    assert Other((0,), 1) == Other((0,), 1)


def test_coefficient_prefix_refuses_a_bad_certificate():
    with pytest.raises(ValueError, match="certificate longer"):
        CoefficientPrefix("s", "lowest", (1, 2), 3)
    with pytest.raises(ValueError, match="nonzero entry"):
        CoefficientPrefix("s", "lowest", (0, 1), 1)
    with pytest.raises(ValueError, match="nonzero entry"):
        CoefficientPrefix(source="s", end="lowest", coefficients=(), certified=0)


def test_properties_and_class_attributes_are_not_fields():
    assert StateGraph(1, ((0, 0),)).has_loop_edge
    assert not LemmaCheck("x", 1, 2).ok
    report = StabilityReport("3_1", (ENTRY,), PREFIX)
    assert "CSV_HEADER" not in report.__dict__
    assert report.csv_rows()[0][0] == "3_1"
