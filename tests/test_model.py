import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gretlite.errors import GraphError, SchemaError
from gretlite.model import AttrType, Graph, Schema

import genutil
import oracles


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
        assert list(s.flat_attributes("Node")) == ["text", "name"]

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
        assert list(s.flat_attributes("D")) == ["x"]

    def test_conflicting_inherited_attributes_rejected(self):
        s = Schema("t")
        s.define_vertex_class("A", attributes=[("x", AttrType.INTEGER)])
        s.define_vertex_class("B", attributes=[("x", AttrType.STRING)])
        with pytest.raises(SchemaError, match="inherits attribute 'x'"):
            s.define_vertex_class("C", supertypes=["A", "B"])

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
        assert second.attr_names() == ["text", "name"]
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


class TestTypeTests:
    def test_subtype_and_reflexive(self):
        g = Graph(make_schema())
        n = g.create_vertex("Node")
        assert n.is_instance_of("GraphComponent")
        assert n.is_instance_of("Node")
        assert not n.is_instance_of("Edge_")

    def test_unknown_class(self):
        g = Graph(make_schema())
        n = g.create_vertex("Node")
        with pytest.raises(SchemaError):
            n.is_instance_of("Nope")

    def test_cross_kind_is_false(self):
        g = Graph(make_schema())
        ev = g.create_vertex("Edge_")
        n = g.create_vertex("Node")
        e = g.create_edge("Edge_LinksToSrc", ev, n)
        assert not e.is_instance_of("Node")
        assert e.is_instance_of("Edge_LinksToSrc")


class TestIncidence:
    def test_isolated_has_none(self):
        g = Graph(make_schema())
        assert g.create_vertex("Node").incident("both") == []

    def test_single_outgoing(self):
        g = Graph(make_schema())
        ev = g.create_vertex("Edge_")
        n = g.create_vertex("Node")
        e = g.create_edge("Edge_LinksToSrc", ev, n)
        assert ev.incident("out") == [e]
        assert ev.incident("in") == []
        assert n.incident("both") == [e]

    def test_order_is_creation_order(self):
        g = Graph(make_schema())
        ev = g.create_vertex("Edge_")
        n = g.create_vertex("Node")
        e1 = g.create_edge("Edge_LinksToSrc", ev, n)
        e2 = g.create_edge("Edge_LinksToTrg", ev, n)
        assert ev.incident("both") == [e1, e2]

    def test_class_filter_includes_subclasses(self):
        s = Schema("t")
        s.define_vertex_class("A")
        s.define_edge_class("Base", "A", "A")
        s.define_edge_class("Special", "A", "A", supertypes=["Base"])
        g = Graph(s)
        v, w = g.create_vertex("A"), g.create_vertex("A")
        e = g.create_edge("Special", v, w)
        assert v.incident("both", ["Base"]) == [e]

    def test_unknown_filter_class(self):
        g = Graph(make_schema())
        n = g.create_vertex("Node")
        with pytest.raises(SchemaError):
            n.incident("both", ["Nope"])

    def test_loop_appears_twice(self):
        s = Schema("t")
        s.define_vertex_class("A")
        s.define_edge_class("E", "A", "A")
        g = Graph(s)
        v = g.create_vertex("A")
        e = g.create_edge("E", v, v)
        assert v.incident("both") == [e, e]
        assert v.degree() == 2


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
        assert e.start.is_instance_of(
            g.schema.edge_class(e.class_name).from_class)
        assert e.end.is_instance_of(
            g.schema.edge_class(e.class_name).to_class)


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
            assert v.incidences() == expected[id(v)]
            assert v.incidences("in") == [
                x for x in expected[id(v)] if x[0] == "in"]

