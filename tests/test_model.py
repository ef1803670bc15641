import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gretlite.errors import GraphError, GretliteError, QueryError, SchemaError
from gretlite.model import AttrType, Graph, Schema
from gretlite.query.evaluator import evaluate
from gretlite.query.parser import parse_query

import genutil
import oracles
from genutil import run_query


def make_schema():
    s = Schema("t")
    s.define_vertex_class("GraphComponent", is_abstract=True,
                          attributes=[("text", AttrType.STRING)])
    s.define_vertex_class("Node", supertypes=["GraphComponent"],
                          attributes=[("name", AttrType.STRING)])
    s.define_vertex_class("Edge_", supertypes=["GraphComponent"])
    s.define_edge_class("Edge_LinksToSrc", "Edge_", "Node")
    s.define_edge_class("Edge_LinksToTrg", "Edge_", "Node")
    return s


class TestSchema:
    def test_inherited_attributes_visible(self):
        s = make_schema()
        assert list(s._flat["Node"]) == ["text", "name"]

    def test_duplicate_class_name(self):
        s = make_schema()
        with pytest.raises(SchemaError, match="duplicate"):
            s.define_vertex_class("Node")
        with pytest.raises(SchemaError, match="duplicate"):
            s.define_edge_class("Node", "Node", "Node")

    def test_unknown_supertype(self):
        s = Schema("t")
        with pytest.raises(SchemaError, match="unknown supertype"):
            s.define_vertex_class("A", supertypes=["Missing"])

    def test_self_cycle(self):
        s = Schema("t")
        with pytest.raises(SchemaError, match="cycle"):
            s.define_vertex_class("A", supertypes=["A"])

    def test_attribute_redeclaration(self):
        s = make_schema()
        with pytest.raises(SchemaError, match="redeclared"):
            s.define_vertex_class("Special", supertypes=["Node"],
                                  attributes=[("name", AttrType.STRING)])

    def test_diamond_same_origin_is_fine(self):
        s = Schema("t")
        s.define_vertex_class("A", attributes=[("x", AttrType.INTEGER)])
        s.define_vertex_class("B", supertypes=["A"])
        s.define_vertex_class("C", supertypes=["A"])
        s.define_vertex_class("D", supertypes=["B", "C"])
        assert list(s._flat["D"]) == ["x"]

    def test_conflicting_inherited_attributes_rejected(self):
        s = Schema("t")
        s.define_vertex_class("A", attributes=[("x", AttrType.INTEGER)])
        s.define_vertex_class("B", attributes=[("x", AttrType.STRING)])
        with pytest.raises(SchemaError, match="inherits attribute 'x'"):
            s.define_vertex_class("C", supertypes=["A", "B"])

    def test_attribute_type_must_be_an_attr_type(self):
        s = Schema("t")
        with pytest.raises(SchemaError) as info:
            s.define_vertex_class("A", attributes=[("x", "String")])
        assert str(info.value) == "attribute 'x' of 'A' has no valid type"

    def test_unknown_endpoint_class(self):
        s = Schema("t")
        s.define_vertex_class("A")
        with pytest.raises(SchemaError, match="endpoint"):
            s.define_edge_class("E", "A", "Missing")

    def test_edge_supertype_kind_checked(self):
        s = make_schema()
        with pytest.raises(SchemaError, match="wrong kind"):
            s.define_edge_class("E", "Node", "Node", supertypes=["Node"])


class TestCreate:
    def test_first_vertex_gets_id_one(self):
        g = Graph(make_schema())
        assert g.create_vertex("Node").id == 1

    def test_abstract_class_has_no_instances(self):
        g = Graph(make_schema())
        with pytest.raises(GraphError, match="abstract"):
            g.create_vertex("GraphComponent")

    def test_creation_order_is_iteration_order(self):
        g = Graph(make_schema())
        created = [g.create_vertex("Node") for _ in range(3)]
        assert g.vertices == created
        assert [v.id for v in g.vertices] == [1, 2, 3]

    def test_unknown_class(self):
        g = Graph(make_schema())
        with pytest.raises(SchemaError, match="unknown class"):
            g.create_vertex("Nope")
        with pytest.raises(SchemaError, match="not a vertex class"):
            g.create_vertex("Edge_LinksToSrc")

    def test_edge_endpoint_conformance(self):
        g = Graph(make_schema())
        ev = g.create_vertex("Edge_")
        n = g.create_vertex("Node")
        assert g.create_edge("Edge_LinksToSrc", ev, n).id == 1
        with pytest.raises(GraphError, match="must conform"):
            g.create_edge("Edge_LinksToSrc", n, n)

    def test_edge_to_deleted_vertex(self):
        g = Graph(make_schema())
        ev = g.create_vertex("Edge_")
        n = g.create_vertex("Node")
        g.delete_vertex(n)
        with pytest.raises(GraphError, match="deleted"):
            g.create_edge("Edge_LinksToSrc", ev, n)


class TestDelete:
    def test_delete_isolated_vertex(self):
        g = Graph(make_schema())
        v = g.create_vertex("Node")
        assert g.delete_vertex(v) == [v]

    def test_cascade_covers_incident_edges(self):
        # expected size computed by scanning the fixture after deletion
        g = Graph(make_schema())
        ev = g.create_vertex("Edge_")
        n1 = g.create_vertex("Node")
        n2 = g.create_vertex("Node")
        g.create_edge("Edge_LinksToSrc", ev, n1)
        g.create_edge("Edge_LinksToTrg", ev, n2)
        deleted = g.delete_vertex(ev)
        assert len(deleted) == 3
        oracles.assert_no_dangling(g)
        assert all(not x.alive for x in deleted)

    def test_double_delete_fails(self):
        g = Graph(make_schema())
        v = g.create_vertex("Node")
        g.delete_vertex(v)
        with pytest.raises(GraphError, match="deleted"):
            g.delete_vertex(v)

    def test_path_and_degree_from_deleted_vertex_fail(self):
        g = Graph(make_schema())
        ev = g.create_vertex("Edge_")
        g.create_edge("Edge_LinksToSrc", ev, g.create_vertex("Node"))
        g.delete_vertex(ev)
        for query in ("x -->", "x <->", "degree(x)"):
            with pytest.raises(GraphError, match="deleted"):
                run_query(query, g, {"x": ev})

    def test_ids_never_reused(self):
        g = Graph(make_schema())
        v = g.create_vertex("Node")
        g.delete_vertex(v)
        assert g.create_vertex("Node").id == 2


class TestAttributes:
    def test_set_then_get(self):
        g = Graph(make_schema())
        n = g.create_vertex("Node")
        n.set_attr("name", "n1")
        assert n.attr("name") == "n1"

    def test_defaults(self):
        s = Schema("t")
        s.define_vertex_class("A", attributes=[
            ("s", AttrType.STRING), ("i", AttrType.INTEGER),
            ("b", AttrType.BOOLEAN), ("d", AttrType.DOUBLE),
        ])
        v = Graph(s).create_vertex("A")
        assert (v.attr("s"), v.attr("i"), v.attr("b"), v.attr("d")) == \
            ("", 0, False, 0.0)

    def test_each_element_has_its_own_defaults(self):
        g = Graph(make_schema())
        first, second = g.create_vertex("Node"), g.create_vertex("Node")
        first.set_attr("name", "n1")
        assert list(second._attrs) == ["text", "name"]
        assert (second.attr("text"), second.attr("name")) == ("", "")

    def test_type_mismatch(self):
        g = Graph(make_schema())
        n = g.create_vertex("Node")
        with pytest.raises(GraphError, match="expects String"):
            n.set_attr("name", 42)

    def test_bool_is_not_an_integer(self):
        s = Schema("t")
        s.define_vertex_class("A", attributes=[("i", AttrType.INTEGER)])
        v = Graph(s).create_vertex("A")
        with pytest.raises(GraphError, match="expects Integer"):
            v.set_attr("i", True)

    def test_double_accepts_int(self):
        s = Schema("t")
        s.define_vertex_class("A", attributes=[("d", AttrType.DOUBLE)])
        v = Graph(s).create_vertex("A")
        v.set_attr("d", 2)
        assert v.attr("d") == 2.0 and isinstance(v.attr("d"), float)

    def test_undeclared_attribute(self):
        g = Graph(make_schema())
        n = g.create_vertex("Node")
        with pytest.raises(GraphError, match="no attribute"):
            n.attr("nope")
        with pytest.raises(SchemaError, match="no attribute"):
            n.set_attr("nope", "x")

    def test_inherited_attribute_on_instance(self):
        g = Graph(make_schema())
        n = g.create_vertex("Node")
        n.set_attr("text", "hi")
        assert n.attr("text") == "hi"

    def test_same_value_write_does_not_bump_revision(self):
        g = Graph(make_schema())
        n = g.create_vertex("Node")
        n.set_attr("name", "a")
        before = g.revision
        assert n.set_attr("name", "a") is False
        assert g.revision == before

    def test_negative_zero_is_a_change(self):
        s = Schema("t")
        s.define_vertex_class("A", attributes=[("d", AttrType.DOUBLE)])
        v = Graph(s).create_vertex("A")
        assert v.set_attr("d", -0.0) is True
        assert str(v.attr("d")) == "-0.0"
        assert v.set_attr("d", 0.0) is True
        assert v.set_attr("d", 0) is False


def error_table_fixture():
    """A graph over `make_schema` plus a Double/Integer vertex class and an
    abstract edge class, with live, deleted and foreign elements."""
    s = make_schema()
    s.define_vertex_class("Measure", attributes=[
        ("weight", AttrType.DOUBLE), ("count", AttrType.INTEGER)])
    s.define_edge_class("Link", "Node", "Node", is_abstract=True)
    g = Graph(s)
    x = {"ev": g.create_vertex("Edge_"), "n": g.create_vertex("Node"),
         "m": g.create_vertex("Measure"), "dead": g.create_vertex("Node"),
         "dead_ev": g.create_vertex("Edge_")}
    x["e"] = g.create_edge("Edge_LinksToSrc", x["ev"], x["n"])
    x["dead_e"] = g.create_edge("Edge_LinksToTrg", x["ev"], x["n"])
    g.delete_vertex(x["dead"])
    g.delete_vertex(x["dead_ev"])
    g.delete_edge(x["dead_e"])
    foreign = Graph(s)
    x["foreign"] = foreign.create_vertex("Node")
    x["foreign_e"] = foreign.create_edge(
        "Edge_LinksToSrc", foreign.create_vertex("Edge_"), x["foreign"])
    return g, x


def _edge(cls, start, end):
    return lambda g, x: g.create_edge(
        cls, *(x.get(p, p) if isinstance(p, str) else p for p in (start, end)))


def _write(element, name, value):
    return lambda g, x: x[element].set_attr(name, value)


NOT_A_VERTEX = "edge endpoint is not a vertex of this graph"

# id -> (operation, exception type, full message); `x` names the fixture's
# elements: v1 Edge_, v2 Node, v3 Measure, v4 deleted Node, v5 deleted
# Edge_, e1 a live edge, e2 a deleted one, and a vertex and an edge of
# another graph
ERROR_TABLE = {
    "vertex-unknown-class": (lambda g, x: g.create_vertex("Nope"),
                             SchemaError, "unknown class 'Nope'"),
    "vertex-of-an-edge-class": (
        lambda g, x: g.create_vertex("Edge_LinksToSrc"),
        SchemaError, "'Edge_LinksToSrc' is not a vertex class"),
    "vertex-abstract": (lambda g, x: g.create_vertex("GraphComponent"),
                        GraphError, "class 'GraphComponent' is abstract"),
    "edge-unknown-class": (_edge("Nope", "ev", "n"),
                           SchemaError, "unknown class 'Nope'"),
    "edge-of-a-vertex-class": (_edge("Node", "ev", "n"),
                               SchemaError, "'Node' is not an edge class"),
    "edge-abstract": (_edge("Link", "n", "n"),
                      GraphError, "class 'Link' is abstract"),
    "edge-start-is-an-edge": (_edge("Edge_LinksToSrc", "e", "n"),
                              GraphError, NOT_A_VERTEX),
    "edge-end-is-no-element": (_edge("Edge_LinksToSrc", "ev", None),
                               GraphError, NOT_A_VERTEX),
    "edge-start-from-another-graph": (_edge("Edge_LinksToSrc", "foreign", "n"),
                                      GraphError, NOT_A_VERTEX),
    "edge-end-from-another-graph": (_edge("Edge_LinksToSrc", "ev", "foreign"),
                                    GraphError, NOT_A_VERTEX),
    "edge-start-deleted": (_edge("Edge_LinksToSrc", "dead_ev", "n"),
                           GraphError, "edge endpoint v5 was deleted"),
    "edge-end-deleted": (_edge("Edge_LinksToSrc", "ev", "dead"),
                         GraphError, "edge endpoint v4 was deleted"),
    "edge-start-does-not-conform": (
        _edge("Edge_LinksToSrc", "n", "n"), GraphError,
        "start vertex of 'Edge_LinksToSrc' must conform to 'Edge_', "
        "got 'Node'"),
    "edge-end-does-not-conform": (
        _edge("Edge_LinksToTrg", "ev", "m"), GraphError,
        "end vertex of 'Edge_LinksToTrg' must conform to 'Node', "
        "got 'Measure'"),
    "set-undeclared": (_write("n", "nosuch", 1), SchemaError,
                       "class 'Node' declares no attribute 'nosuch'"),
    "set-undeclared-on-edge": (
        _write("e", "name", "x"), SchemaError,
        "class 'Edge_LinksToSrc' declares no attribute 'name'"),
    "set-wrong-type": (_write("n", "name", 3), GraphError,
                       "attribute 'name' of 'Node' expects String, got 3"),
    "set-inherited-wrong-type": (
        _write("n", "text", None), GraphError,
        "attribute 'text' of 'Node' expects String, got None"),
    "set-bool-for-integer": (
        _write("m", "count", True), GraphError,
        "attribute 'count' of 'Measure' expects Integer, got True"),
    "set-string-for-double": (
        _write("m", "weight", "1"), GraphError,
        "attribute 'weight' of 'Measure' expects Double, got '1'"),
    "set-infinity": (_write("m", "weight", float("-inf")), GraphError,
                     "attribute 'weight' rejects non-finite value"),
    "set-nan": (_write("m", "weight", float("nan")), GraphError,
                "attribute 'weight' rejects non-finite value"),
    "set-integer-too-large-for-double": (
        _write("m", "weight", 10 ** 400), GraphError,
        "attribute 'weight' rejects non-finite value"),
    "delete-vertex-of-another-graph": (
        lambda g, x: g.delete_vertex(x["foreign"]), GraphError,
        "not a vertex of this graph"),
    "delete-edge-of-another-graph": (
        lambda g, x: g.delete_edge(x["foreign_e"]), GraphError,
        "not an edge of this graph"),
    "set-deleted-vertex": (_write("dead", "name", "x"), GraphError,
                           "element v4 was deleted"),
    "set-deleted-edge": (_write("dead_e", "nosuch", 1), GraphError,
                         "element e2 was deleted"),
    # two faults at once: the one checked first wins
    "abstract-class-and-deleted-endpoint": (
        _edge("Link", "n", "dead"), GraphError, "class 'Link' is abstract"),
    "unknown-class-and-foreign-endpoint": (
        _edge("Nope", "foreign", "e"), SchemaError, "unknown class 'Nope'"),
    "deleted-start-and-foreign-end": (
        _edge("Edge_LinksToSrc", "dead_ev", "foreign"), GraphError,
        "edge endpoint v5 was deleted"),
    "foreign-start-and-deleted-end": (
        _edge("Edge_LinksToSrc", "foreign", "dead"), GraphError, NOT_A_VERTEX),
    "deleted-endpoint-that-does-not-conform": (
        _edge("Edge_LinksToSrc", "dead", "n"), GraphError,
        "edge endpoint v4 was deleted"),
    "start-and-end-do-not-conform": (
        _edge("Edge_LinksToSrc", "n", "ev"), GraphError,
        "start vertex of 'Edge_LinksToSrc' must conform to 'Edge_', "
        "got 'Node'"),
    "deleted-element-and-undeclared-attribute": (
        _write("dead", "nosuch", 1), GraphError, "element v4 was deleted"),
    "deleted-element-and-wrong-type": (
        _write("dead", "name", 3), GraphError, "element v4 was deleted"),
}


@pytest.mark.parametrize("case", ERROR_TABLE, ids=str)
def test_element_check_errors_are_exact(case):
    op, exc_type, message = ERROR_TABLE[case]
    g, x = error_table_fixture()
    state = (g.revision, g.vertices, g.edges,
             [dict(el._attrs) for el in g.vertices + g.edges])
    with pytest.raises(GretliteError) as info:
        op(g, x)
    assert type(info.value) is exc_type
    assert str(info.value) == message
    # a rejected operation changes nothing and uses up no id
    assert state == (g.revision, g.vertices, g.edges,
                     [dict(el._attrs) for el in g.vertices + g.edges])
    assert g.create_vertex("Node").id == 6
    assert g.create_edge("Edge_LinksToSrc", x["ev"], x["n"]).id == 3


class TestTypeTests:
    def test_subtype_and_reflexive(self):
        g = Graph(make_schema())
        n = g.create_vertex("Node")
        assert g.schema.conforms(n.class_name, "GraphComponent")
        assert g.schema.conforms(n.class_name, "Node")
        assert not g.schema.conforms(n.class_name, "Edge_")

    def test_unknown_class(self):
        g = Graph(make_schema())
        n = g.create_vertex("Node")
        with pytest.raises(SchemaError):
            g.schema.conforms(n.class_name, "Nope")

    def test_cross_kind_is_false(self):
        g = Graph(make_schema())
        ev = g.create_vertex("Edge_")
        n = g.create_vertex("Node")
        e = g.create_edge("Edge_LinksToSrc", ev, n)
        assert not g.schema.conforms(e.class_name, "Node")
        assert g.schema.conforms(e.class_name, "Edge_LinksToSrc")


class TestIncidence:
    def test_isolated_has_none(self):
        g = Graph(make_schema())
        assert oracles.incidences(g.create_vertex("Node")) == []

    def test_single_outgoing(self):
        g = Graph(make_schema())
        ev = g.create_vertex("Edge_")
        n = g.create_vertex("Node")
        e = g.create_edge("Edge_LinksToSrc", ev, n)
        assert oracles.incidences(ev) == [("out", e)]
        assert oracles.incidences(n) == [("in", e)]

    def test_order_is_creation_order(self):
        g = Graph(make_schema())
        ev = g.create_vertex("Edge_")
        n = g.create_vertex("Node")
        e1 = g.create_edge("Edge_LinksToSrc", ev, n)
        e2 = g.create_edge("Edge_LinksToTrg", ev, n)
        assert oracles.incidences(ev) == [("out", e1), ("out", e2)]

    def test_class_filter_includes_subclasses(self):
        s = Schema("t")
        s.define_vertex_class("A")
        s.define_edge_class("Base", "A", "A")
        s.define_edge_class("Special", "A", "A", supertypes=["Base"])
        s.define_edge_class("Other", "A", "A")
        g = Graph(s)
        v, w = g.create_vertex("A"), g.create_vertex("A")
        g.create_edge("Special", v, w)
        g.create_edge("Other", w, v)
        assert run_query("degree{Base}(x)", g, {"x": v}) == 1

    def test_unknown_filter_class(self):
        g = Graph(make_schema())
        n = g.create_vertex("Node")
        with pytest.raises(QueryError, match="Nope"):
            run_query("degree{Nope}(x)", g, {"x": n})

    def test_loop_appears_twice(self):
        s = Schema("t")
        s.define_vertex_class("A")
        s.define_edge_class("E", "A", "A")
        g = Graph(s)
        v = g.create_vertex("A")
        e = g.create_edge("E", v, v)
        assert oracles.incidences(v) == [("out", e), ("in", e)]
        assert run_query("degree(x)", g, {"x": v}) == 2


def test_determinism_same_op_sequence():
    from gretlite.formats import save_graph

    def build():
        g = Graph(genutil.graph1_schema())
        c = g.create_vertex("Graph_")
        ns = [g.create_vertex("Node") for _ in range(4)]
        for i, v in enumerate(ns):
            v.set_attr("name", f"n{i}")
            g.create_edge("Graph_ContainsNodes", c, v)
        ev = g.create_vertex("Edge_")
        g.create_edge("Edge_LinksToSrc", ev, ns[0])
        g.create_edge("Edge_LinksToTrg", ev, ns[1])
        g.delete_vertex(ns[3])
        return g

    assert save_graph(build()) == save_graph(build())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("nedDx"), st.integers(0, 7)),
                max_size=24))
def test_random_op_sequences_keep_invariants(script):
    """Cascade soundness, id density, endpoint conformance under chaos."""
    g = Graph(genutil.graph1_schema())
    nodes, evs = [], []
    for op, pick in script:
        if op == "n":
            nodes.append(g.create_vertex("Node"))
        elif op == "e":
            evs.append(g.create_vertex("Edge_"))
        elif op == "d" and nodes:
            v = nodes[pick % len(nodes)]
            if v.alive:
                g.delete_vertex(v)
        elif op == "D" and evs:
            v = evs[pick % len(evs)]
            if v.alive:
                g.delete_vertex(v)
        elif op == "x" and nodes and evs:
            ev = evs[pick % len(evs)]
            n = nodes[(pick // 2) % len(nodes)]
            if ev.alive and n.alive:
                g.create_edge("Edge_LinksToSrc", ev, n)
    oracles.assert_no_dangling(g)
    vertex_ids = sorted(v.id for v in g.vertices)
    assert len(set(vertex_ids)) == len(vertex_ids)
    for e in g.edges:
        assert g.schema.conforms(
            e.start.class_name, g.schema.edge_class(e.class_name).from_class)
        assert g.schema.conforms(
            e.end.class_name, g.schema.edge_class(e.class_name).to_class)


@st.composite
def random_schemas(draw):
    """Vertex and edge classes, interleaved, each with any subset of the
    earlier classes of its kind as supertypes."""
    s = Schema("r")
    s.define_vertex_class("V0")
    names = {"vertex": ["V0"], "edge": []}
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["vertex", "edge"]))
        sups = draw(st.lists(st.sampled_from(names[kind]), unique=True)
                    if names[kind] else st.just([]))
        name = f"{kind[0].upper()}{i + 1}"
        if kind == "vertex":
            s.define_vertex_class(name, supertypes=sups)
        else:
            s.define_edge_class(name, "V0", "V0", supertypes=sups)
        names[kind].append(name)
    return s, names["vertex"] + names["edge"]


@settings(max_examples=60, deadline=None)
@given(random_schemas())
def test_schema_closures_match_naive_recursion(drawn):
    s, names = drawn
    for name in names:
        assert s.superclasses(name) == oracles.naive_superclasses(s, name)
        assert list(s.subclasses(name)) == oracles.naive_subclasses(s, name)
        for other in names:
            assert s.conforms(name, other) == oracles.naive_conforms(
                s, name, other)


def test_closure_lookups_reject_unknown_classes():
    s = make_schema()
    for call in (lambda: s.superclasses("Nope"), lambda: s.subclasses("Nope"),
                 lambda: s.conforms("Nope", "Node"),
                 lambda: s.conforms("Node", "Nope")):
        with pytest.raises(SchemaError, match="unknown class 'Nope'"):
            call()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 3)),
                max_size=30))
def test_delete_edge_keeps_incidence_order(script):
    """Deletes leave the other incidences in creation order, loops too."""
    s = Schema("t")
    s.define_vertex_class("A")
    s.define_edge_class("L", "A", "A")
    g = Graph(s)
    vs = [g.create_vertex("A") for _ in range(4)]
    expected = {id(v): [] for v in vs}
    edges = []
    for create, a, b in script:
        if create:
            e = g.create_edge("L", vs[a], vs[b])
            edges.append(e)
            expected[id(vs[a])].append(("out", e))
            expected[id(vs[b])].append(("in", e))
        elif edges:
            e = edges.pop(a % len(edges))
            g.delete_edge(e)
            for v in {id(e.start): e.start, id(e.end): e.end}.values():
                expected[id(v)] = [x for x in expected[id(v)] if x[1] is not e]
        for v in vs:
            assert oracles.incidences(v) == expected[id(v)]
            assert [x for x in oracles.incidences(v) if x[0] == "in"] == [
                x for x in expected[id(v)] if x[0] == "in"]



def _incidence_schema():
    s = Schema("inc")
    s.define_vertex_class("A")
    s.define_vertex_class("B", supertypes=["A"])
    s.define_edge_class("L", "A", "A")
    s.define_edge_class("M", "A", "A", supertypes=["L"])
    s.define_edge_class("G", "A", "A", is_aggregation=True)
    return s


# class specs of `degree` and path steps, and the edge classes each allows
_SPECS = {"": None, "{L}": {"L", "M"}, "{L!}": {"L"}, "{M, G}": {"M", "G"}}
# (query step, oracle direction, oracle class names), aggregations apart
_STEPS = [(arrow + spec, direction, names)
          for arrow, direction in (("-->", "out"), ("<--", "in"),
                                   ("<->", "both"))
          for spec, names in _SPECS.items()]
_STEPS += [("<>--", "agg", {"G"}), ("<>--{G}", "agg", {"G"})]
_DEGREES = [(parse_query(f"degree{spec}(v)", extra_names=("v",)), names)
            for spec, names in _SPECS.items()]
# every step alone, and followed by every third step (a different third
# for neighbouring steps)
_PATHS = [(parse_query(f"v {a}", extra_names=("v",)), [sa])
          for a, *sa in _STEPS]
_PATHS += [(parse_query(f"v {a} {b}", extra_names=("v",)), [sa, sb])
           for i, (a, *sa) in enumerate(_STEPS)
           for b, *sb in _STEPS[i % 3::3]]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("vvveeeeedx"), st.integers(0, 99),
                          st.integers(0, 99), st.sampled_from("LMG")),
                min_size=8, max_size=40))
def test_incidence_store_matches_list_oracle(script):
    """Random creates and deletes, loops and parallel edges among them,
    give the incidences, cascades, degrees and paths of a list model."""
    g = Graph(_incidence_schema())
    naive = oracles.NaiveIncidences()
    vs, es = [], []
    for op, i, j, cls in script:
        if op == "v":
            vs.append(g.create_vertex("AB"[i % 2]))
            naive.create_vertex(vs[-1])
        elif op == "e" and vs:
            es.append(g.create_edge(cls, vs[i % len(vs)], vs[j % len(vs)]))
            naive.create_edge(es[-1])
        elif op == "d" and es:
            e = es.pop(i % len(es))
            assert g.delete_edge(e) == [e]
            naive.delete_edge(e)
        elif op == "x" and vs:
            v = vs.pop(i % len(vs))
            deleted = g.delete_vertex(v)
            assert deleted == naive.delete_vertex(v)
            es = [e for e in es if e.alive]
        for v in vs:
            assert oracles.incidences(v) == naive.lists[v]
    for v in vs:
        for query, names in _DEGREES:
            assert evaluate(query, g, {"v": v}) == naive.degree(v, names)
        for query, steps in _PATHS:
            assert list(evaluate(query, g, {"v": v})) == naive.path(v, steps)
