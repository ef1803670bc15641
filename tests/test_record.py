"""The record contract, checked on every record class of the package."""

import pytest

from gretlite import model
from gretlite.query import nodes
from gretlite.record import Record
from gretlite.transform import ops


def _records(base=Record):
    for cls in base.__subclasses__():
        yield cls
        yield from _records(cls)


RECORDS = sorted(_records(), key=lambda cls: cls.__qualname__)

# The defaults of the optional fields, as each class had them when it was
# a frozen dataclass.
DEFAULTS = {
    "ClassSpec": {"exact": False},
    "PathStep": {"classes": ()},
    "Literal": {},
    "VarRef": {},
    "DollarRef": {},
    "ElementSet": {"classes": ()},
    "DeclGroup": {},
    "Comprehension": {"exprs": ()},
    "PathApply": {},
    "Call": {},
    "MapLit": {},
    "Unary": {},
    "Binary": {},
    "Conditional": {},
    "AttrAccess": {},
    "Index": {},
    "TemplateVertex": {"class_name": None, "arch": None, "ref": None,
                       "assigns": ()},
    "TemplateEdge": {"arch": None, "assigns": ()},
    "Template": {},
    "CreateVertices": {},
    "CreateEdges": {},
    "SetAttributes": {},
    "CreateSubgraph": {},
    "MatchReplace": {},
    "Delete": {},
    "Iteratively": {},
    "Transformation": {},
    "VertexClass": {"is_abstract": False, "supertypes": (), "attributes": ()},
    "EdgeClass": {"is_abstract": False, "supertypes": (),
                  "is_aggregation": False, "attributes": ()},
}


def _values(cls):
    """Distinct field values, equal but not identical from call to call."""
    return [("value", i) for i in range(len(cls.__slots__))]


def test_the_walk_finds_every_record_class():
    assert set(DEFAULTS) <= {cls.__name__ for cls in RECORDS}
    assert {model.VertexClass, model.EdgeClass, nodes.ClassSpec,
            ops.Transformation} <= set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    fields = cls.__slots__
    values = _values(cls)
    record = cls(*values)
    assert cls.__match_args__ == fields
    assert tuple(getattr(record, f) for f in fields) == tuple(values)
    assert record == cls(**dict(zip(fields, _values(cls))))
    assert hash(record) == hash(cls(*_values(cls)))
    if fields:
        assert record != cls(*values[:-1], "other")

    defaults = DEFAULTS.get(cls.__name__, cls._defaults)
    assert cls._defaults == defaults
    required = [f for f in fields if f not in defaults]
    assert fields[:len(required)] == tuple(required)
    bare = cls(*values[:len(required)])
    assert bare == cls(*values[:len(required)],
                       *(defaults[f] for f in fields[len(required):]))

    if required:
        with pytest.raises(TypeError, match="takes the fields"):
            cls(*values[:len(required) - 1])
    with pytest.raises(TypeError, match="takes the fields"):
        cls(*values, no_such_field=1)
    if fields:
        with pytest.raises(TypeError, match="takes the fields"):
            cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError, match="takes the fields"):
        cls(*values, "extra")

    for name in (*fields, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, "changed")
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, f) for f in fields) == tuple(values)

    for other in RECORDS:
        if other is not cls and len(other.__slots__) == len(fields):
            assert record != other(*values)


def test_examples():
    assert nodes.ClassSpec("A") == nodes.ClassSpec("A", False)
    assert nodes.ClassSpec("A") != nodes.ClassSpec("A", True)
    assert ops.TemplateVertex("a").assigns == ()
    assert not ops.TemplateVertex("a").is_ref
    query = nodes.VarRef("q")
    assert ops.CreateVertices("A", query) != ops.CreateEdges("A", query)
    assert repr(nodes.ClassSpec("A")) == "ClassSpec(name='A', exact=False)"
    assert repr(nodes.DollarRef()) == "DollarRef()"
    assert nodes.DollarRef() == nodes.DollarRef()
    assert nodes.Literal(1) != 1


def test_positional_match_patterns_bind_fields_in_order():
    node = nodes.Binary("+", nodes.Literal(1), nodes.VarRef("x"))
    match node:
        case nodes.Binary(op, nodes.Literal(value), nodes.VarRef(name)):
            assert (op, value, name) == ("+", 1, "x")
        case _:
            pytest.fail("no match")
