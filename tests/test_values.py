import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gretlite.model import Graph
from gretlite.values import (
    UNDEFINED,
    OrderedSet,
    ValueMap,
    render_value,
    to_text,
    value_equal,
    value_key,
)

import genutil
import oracles


def test_set_deduplicates_structurally():
    s = OrderedSet([1, 2, 1, (1, "a"), (1, "a")])
    assert list(s) == [1, 2, (1, "a")]


def test_set_keeps_insertion_order():
    s = OrderedSet(["b", "a", "c"])
    assert list(s) == ["b", "a", "c"]


def test_set_equality_ignores_order():
    assert OrderedSet([1, 2]) == OrderedSet([2, 1])
    assert OrderedSet([1]) != OrderedSet([1, 2])


def test_numbers_unify_across_int_and_double():
    assert value_equal(1, 1.0)
    assert len(OrderedSet([1, 1.0])) == 1


def test_bool_is_distinct_from_one():
    assert not value_equal(1, True)
    assert len(OrderedSet([1, True, 1.0])) == 2


def test_elements_compare_by_identity():
    g = Graph(genutil.graph1_schema())
    a, b = g.create_vertex("Node"), g.create_vertex("Node")
    assert value_equal(a, a)
    assert not value_equal(a, b)
    assert len(OrderedSet([a, b, a])) == 2


def test_map_structural_keys():
    m = ValueMap()
    m.put((1, "a"), "x")
    assert m.get((1, "a")) == "x"
    assert (1.0, "a") in m
    m.put((1.0, "a"), "y")
    assert len(m) == 1 and m.get((1, "a")) == "y"


def test_map_equality():
    a, b = ValueMap([(1, "x")]), ValueMap([(1.0, "x")])
    assert a == b
    assert a != ValueMap([(1, "y")])


def test_sets_and_maps_equal_only_their_own_type():
    assert OrderedSet() != ValueMap()
    assert ValueMap() != OrderedSet()
    assert OrderedSet([1]) != [1]
    assert ValueMap() != {}


def test_nested_sets_as_members():
    outer = OrderedSet([OrderedSet([1, 2]), OrderedSet([2, 1])])
    assert len(outer) == 1


def test_undefined_is_singleton():
    assert value_key(UNDEFINED) == value_key(UNDEFINED)
    assert render_value(UNDEFINED) == "undefined"


def test_render_primitives():
    assert render_value(42) == "42"
    assert render_value(True) == "true"
    assert render_value(2.5) == "2.5"
    assert render_value('say "hi"\n') == '"say \\"hi\\"\\n"'


def test_render_collections_sorted_sets():
    assert render_value(OrderedSet(["b", "a"])) == '{"a", "b"}'
    assert render_value([2, 1]) == "[2, 1]"
    assert render_value((1, "x")) == '(1, "x")'
    assert render_value(ValueMap([(2, "b"), (1, "a")])) == '{1 -> "a", 2 -> "b"}'


def test_render_elements():
    g = Graph(genutil.graph1_schema())
    ev = g.create_vertex("Edge_")
    n = g.create_vertex("Node")
    e = g.create_edge("Edge_LinksToSrc", ev, n)
    assert render_value(ev) == "v1"
    assert render_value(e) == "e1"


def test_to_text_leaves_strings_bare():
    assert to_text("hi") == "hi"
    assert to_text(3) == "3"


values_strategy = st.recursive(
    st.one_of(
        st.integers(-5, 5),
        st.booleans(),
        st.text(alphabet="ab", max_size=3),
        st.just(UNDEFINED),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=3).map(OrderedSet),
    ),
    max_leaves=8,
)


@given(values_strategy)
def test_add_is_idempotent(v):
    s = OrderedSet()
    s.add(v)
    s.add(v)
    assert len(s) == 1 and v in s


@given(st.lists(values_strategy, max_size=8))
def test_membership_matches_construction(items):
    s = OrderedSet(items)
    for v in items:
        assert v in s
    assert len(s) <= len(items)


# a few elements of one graph, so that atoms of every kind recur
_GRAPH = Graph(genutil.graph1_schema())
_EV, _NODE = _GRAPH.create_vertex("Edge_"), _GRAPH.create_vertex("Node")
_ELEMENTS = (_EV, _NODE, _GRAPH.create_edge("Edge_LinksToSrc", _EV, _NODE))

_atoms = st.one_of(
    st.sampled_from((0, 1, 2, -1)),
    st.sampled_from((0.0, -0.0, 1.0, 2.0, 0.5)),
    st.booleans(),
    st.sampled_from(("", "a", "1", "true")),
    st.just(UNDEFINED),
    st.sampled_from(_ELEMENTS),
)
oracle_values = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(OrderedSet),
        st.lists(st.tuples(inner, inner), max_size=3).map(ValueMap),
    ),
    max_leaves=6,
)


def _twin(v):
    """`v` with each number and bool swapped for an equal atom of another
    kind or sign: true -> 1 -> 1.0 -> 1, 0.0 <-> -0.0."""
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, int):
        return float(v)
    if isinstance(v, float):
        return -v if v == 0 else int(v) if v.is_integer() else v
    if isinstance(v, (tuple, list)):
        return type(v)(map(_twin, v))
    if isinstance(v, OrderedSet):
        return OrderedSet(map(_twin, v))
    if isinstance(v, ValueMap):
        return ValueMap((_twin(k), _twin(x)) for k, x in v.items())
    return v


_PROBES = [0, 1, 0.0, -0.0, 1.0, True, False, "", "1", UNDEFINED, *_ELEMENTS]


@settings(max_examples=100, deadline=None)
@given(st.lists(oracle_values, min_size=1, max_size=5))
def test_value_key_equalities_match_the_tagged_oracle(values):
    """Keys are equal exactly when the all-tagged keys are, and equal keys
    hash alike: among random values, their twins and fixed atoms."""
    values = values + [_twin(v) for v in values] + _PROBES
    for a in values:
        for b in values:
            same = value_key(a) == value_key(b)
            assert same == (oracles.naive_value_key(a)
                            == oracles.naive_value_key(b)), (a, b)
            assert not same or hash(value_key(a)) == hash(value_key(b))
            assert value_equal(a, b) == same


@settings(max_examples=100, deadline=None)
@given(st.lists(oracle_values, max_size=8),
       st.lists(st.tuples(oracle_values, oracle_values), max_size=8))
def test_set_and_map_behave_as_with_tagged_keys(members, entries):
    """Membership, and the order and identity of what iterates, are those
    of a dict keyed by the oracle's keys."""
    members = members + [_twin(v) for v in members]
    entries = entries + [(_twin(k), v) for k, v in entries]
    key = oracles.naive_value_key
    naive_set, naive_map = {}, {}
    for v in members:
        naive_set.setdefault(key(v), v)
    for k, v in entries:
        naive_map[key(k)] = (k, v)
    s, m = OrderedSet(members), ValueMap(entries)
    assert [id(v) for v in s] == [id(v) for v in naive_set.values()]
    assert [(id(k), id(v)) for k, v in m.items()] == [
        (id(k), id(v)) for k, v in naive_map.values()]
    for v in members + [k for k, _ in entries]:
        assert (v in s) == (key(v) in naive_set)
        assert (v in m) == (key(v) in naive_map)
