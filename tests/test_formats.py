import gc
import random
import sys
from pathlib import Path

import pytest

from gretlite import corpus
from gretlite.errors import ParseError
from gretlite.formats import (
    export_dot,
    load_graph,
    load_schema,
    save_graph,
)
from gretlite.model import AttrType, EdgeClass, Graph, VertexClass
from gretlite.transform.engine import execute
from gretlite.transform.parser import parse_script

import genutil
import oracles

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402


class TestLoadSchema:
    def test_hello_ext_records(self):
        s = load_schema(corpus.read_text("hello_ext.gls"))
        assert s.vertex_classes == [
            VertexClass("Greeting"),
            VertexClass("GreetingMessage",
                        attributes=(("text", AttrType.STRING),)),
            VertexClass("Person", attributes=(("name", AttrType.STRING),)),
        ]
        assert s.edge_classes == [
            EdgeClass("GreetingContainsGreetingMessage", "Greeting",
                      "GreetingMessage", is_aggregation=True),
            EdgeClass("GreetingContainsPerson", "Greeting", "Person",
                      is_aggregation=True),
        ]

    def test_graph1_records(self):
        s = load_schema(corpus.read_text("graph1.gls"))
        assert s.vertex_classes == [
            VertexClass("Graph_"),
            VertexClass("Node", attributes=(("name", AttrType.STRING),)),
            VertexClass("Edge_"),
        ]
        assert s.edge_classes == [
            EdgeClass("Edge_LinksToSrc", "Edge_", "Node"),
            EdgeClass("Edge_LinksToTrg", "Edge_", "Node"),
            EdgeClass("Graph_ContainsNodes", "Graph_", "Node",
                      is_aggregation=True),
            EdgeClass("Graph_ContainsEdges", "Graph_", "Edge_",
                      is_aggregation=True),
        ]
        assert s._flat["Node"] == {"name": ("Node", AttrType.STRING)}

    def test_inheritance_and_abstract(self):
        s = load_schema(corpus.read_text("graph1evo.gls"))
        assert s.vertex_class("GraphComponent").is_abstract
        assert s.conforms("Edge_", "GraphComponent")
        assert list(s._flat["Node"]) == ["text"]

    def test_self_cycle_reported_with_position(self):
        with pytest.raises(ParseError, match="cycle"):
            load_schema("schema s;\nvertexclass A : A;")

    def test_multiplicities_parsed_and_ignored(self):
        s = load_schema(
            "schema s;\nvertexclass A;\n"
            "edgeclass E from A (0,*) to A (1,1);"
        )
        assert s.edge_class("E").from_class == "A"

    def test_several_supertypes(self):
        s = load_schema("schema s;\nvertexclass B { b: Integer };\n"
                        "vertexclass C { c: String };\n"
                        "vertexclass D : B, C;")
        assert s.vertex_class("D").supertypes == ("B", "C")
        assert list(s._flat["D"]) == ["b", "c"]

    @pytest.mark.parametrize("text, message", [
        ("aggregation vertexclass A;",
         "'aggregation' applies to edge classes only, found 'vertexclass'"),
        ("vertexclass A;\nedgeclass E from A (x,1) to A;",
         "expected a multiplicity lower bound, found 'x'"),
        ("vertexclass A;\nedgeclass E from A (0,x) to A;",
         "expected a multiplicity upper bound, found 'x'"),
    ], ids=["aggregation-vertexclass", "lower-bound", "upper-bound"])
    def test_declaration_errors(self, text, message):
        with pytest.raises(ParseError) as err:
            load_schema("schema s;\n" + text)
        assert str(err.value).startswith(message + " (line ")

    def test_unknown_attribute_type(self):
        with pytest.raises(ParseError, match="unknown attribute type"):
            load_schema("schema s;\nvertexclass A { x: Float };")

    def test_duplicate_class_position(self):
        with pytest.raises(ParseError) as err:
            load_schema("schema s;\nvertexclass A;\nvertexclass A;")
        assert err.value.line == 3


class TestLoadGraph:
    def test_counts(self, graph1_schema):
        text = (
            "graph g conforms graph1;\n"
            'n1 : Node { name = "n1" };\n'
            'n2 : Node { name = "n2" };\n'
            'n3 : Node { name = "n3" };\n'
            "x : Edge_;\n"
            "s : Edge_LinksToSrc x -> n1;\n"
            "t : Edge_LinksToTrg x -> n2;\n"
        )
        g = load_graph(text, graph1_schema)
        assert len(g.vertices) == 4
        assert len(g.edges) == 2

    def test_empty_body(self, graph1_schema):
        g = load_graph("graph g conforms graph1;", graph1_schema)
        assert g.vertices == [] and g.edges == []

    def test_file_order_is_graph_order(self, graph1_schema):
        g = load_graph(
            "graph g conforms graph1;\nb : Node;\na : Node;\n", graph1_schema)
        assert [v.id for v in g.vertices] == [1, 2]

    def test_dangling_endpoint(self, graph1_schema):
        with pytest.raises(ParseError, match="undeclared element 'v9'"):
            load_graph(
                "graph g conforms graph1;\nx : Edge_;\n"
                "e : Edge_LinksToSrc x -> v9;\n", graph1_schema)

    def test_duplicate_label(self, graph1_schema):
        with pytest.raises(ParseError, match="duplicate"):
            load_graph("graph g conforms graph1;\na : Node;\na : Node;\n",
                       graph1_schema)

    def test_unknown_class(self, graph1_schema):
        with pytest.raises(ParseError, match="unknown class"):
            load_graph("graph g conforms graph1;\na : Widget;\n",
                       graph1_schema)

    def test_abstract_instantiation(self):
        schema = genutil.graph1evo_schema()
        with pytest.raises(ParseError, match="abstract"):
            load_graph("graph g conforms graph1evo;\na : GraphComponent;\n",
                       schema)

    def test_literal_type_mismatch(self, graph1_schema):
        with pytest.raises(ParseError, match="expects String"):
            load_graph('graph g conforms graph1;\na : Node { name = 3 };\n',
                       graph1_schema)

    def test_unknown_attribute_has_a_position(self, graph1_schema):
        with pytest.raises(ParseError) as err:
            load_graph('graph g conforms graph1;\nv1 : Node { nme = "x" };\n',
                       graph1_schema)
        assert str(err.value) == \
            "class 'Node' declares no attribute 'nme' (line 2, column 13)"

    def test_unknown_edge_attribute_has_a_position(self, graph1_schema):
        with pytest.raises(ParseError) as err:
            load_graph("graph g conforms graph1;\nx : Edge_;\nn : Node;\n"
                       "e : Edge_LinksToSrc x -> n { w = 1.5 };\n",
                       graph1_schema)
        assert str(err.value) == ("class 'Edge_LinksToSrc' declares no "
                                  "attribute 'w' (line 4, column 30)")

    def test_comment_runs_to_the_end_of_its_line(self, graph1_schema):
        # the reader may not give back part of a comment while it matches
        with pytest.raises(ParseError) as err:
            load_graph('graph g conforms graph1;\n'
                       'v1 : Node { name // x = "y"\n };', graph1_schema)
        assert str(err.value) == "expected '=', found '}' (line 3, column 2)"

    def test_schema_name_mismatch(self, graph1_schema):
        with pytest.raises(ParseError, match="conforms"):
            load_graph("graph g conforms other;", graph1_schema)

    def test_all_literal_kinds(self):
        s = load_schema(
            "schema s;\nvertexclass A "
            "{ s: String, i: Integer, b: Boolean, d: Double };")
        g = load_graph(
            'graph g conforms s;\n'
            'a : A { s = "x\\n", i = -3, b = true, d = 2.5 };\n', s)
        v = g.vertices[0]
        assert (v.attr("s"), v.attr("i"), v.attr("b"), v.attr("d")) == \
            ("x\n", -3, True, 2.5)


class TestSaveGraph:
    def test_greeting_serialization(self):
        schema = load_schema(corpus.read_text("hello.gls"))
        t = parse_script(corpus.read_text("01-create-greeting.grt"))
        g = execute(t, target_schema=schema).graph
        text = save_graph(g)
        vertex_lines = [l for l in text.splitlines() if " : Greeting" in l]
        assert vertex_lines == ['v1 : Greeting { text = "Hello World" };']

    def test_round_trip_idempotence(self, graph1_schema, sample1):
        text = save_graph(sample1)
        again = save_graph(load_graph(text, graph1_schema))
        assert again == text

    def test_round_trip_after_deletions(self, graph1_schema, sample1):
        sample1.delete_vertex(sample1.vertices[3])
        text = save_graph(sample1)
        reloaded = load_graph(text, graph1_schema)
        assert save_graph(reloaded) == text
        assert oracles.canonical_form(reloaded) == \
            oracles.canonical_form(sample1)

    def test_two_identical_builds_serialize_identically(self, graph1_schema):
        rng1, rng2 = random.Random(5), random.Random(5)
        g1 = genutil.random_sample(rng1, graph1_schema)
        g2 = genutil.random_sample(rng2, graph1_schema)
        assert save_graph(g1) == save_graph(g2)

    def test_random_round_trips(self, graph1_schema):
        rng = random.Random(99)
        for _ in range(20):
            g = genutil.random_sample(rng, graph1_schema)
            text = save_graph(g)
            reloaded = load_graph(text, graph1_schema)
            assert save_graph(reloaded) == text
            assert oracles.canonical_form(reloaded) == \
                oracles.canonical_form(g)


class TestExportDot:
    def test_empty_graph_skeleton(self, graph1_schema):
        assert export_dot(Graph(graph1_schema)) == "digraph G {\n}\n"

    def test_single_vertex(self, graph1_schema):
        g = Graph(graph1_schema)
        g.create_vertex("Node")
        out = export_dot(g)
        assert out.count("[label=") == 1
        assert "Node\\nv1" in out

    def test_statement_counts(self, hello_ext_schema):
        t = parse_script(corpus.read_text("02-create-extended-greeting.grt"))
        g = execute(t, target_schema=hello_ext_schema).graph
        out = export_dot(g)
        node_lines = [l for l in out.splitlines() if "[label=" in l and "->" not in l]
        edge_lines = [l for l in out.splitlines() if "->" in l]
        assert len(node_lines) == 3
        assert len(edge_lines) == 2

    def test_quotes_escaped(self, graph1_schema):
        g = Graph(graph1_schema)
        g.create_vertex("Node").set_attr("name", 'say "hi"')
        assert '\\"' in export_dot(g)

    def test_labels_are_positions_not_ids(self, graph1_schema):
        # sample1 without its Graph_ vertex and node n3 (and their edges)
        g = load_graph(corpus.read_text("sample1.glg"), graph1_schema)
        g.delete_vertex(g.vertices[0])
        g.delete_vertex(g.vertices[2])
        assert export_dot(g) == """\
digraph G {
  v1 [label="Node\\nv1\\nname = \\"n1\\""];
  v2 [label="Node\\nv2\\nname = \\"n2\\""];
  v3 [label="Node\\nv3\\nname = \\"n4\\""];
  v4 [label="Node\\nv4\\nname = \\"n5\\""];
  v5 [label="Node\\nv5\\nname = \\"n6\\""];
  v6 [label="Edge_\\nv6"];
  v7 [label="Edge_\\nv7"];
  v8 [label="Edge_\\nv8"];
  v9 [label="Edge_\\nv9"];
  v10 [label="Edge_\\nv10"];
  v6 -> v1 [label="Edge_LinksToSrc"];
  v6 -> v2 [label="Edge_LinksToTrg"];
  v7 -> v2 [label="Edge_LinksToSrc"];
  v8 -> v1 [label="Edge_LinksToTrg"];
  v9 -> v3 [label="Edge_LinksToSrc"];
  v9 -> v3 [label="Edge_LinksToTrg"];
  v10 -> v4 [label="Edge_LinksToSrc"];
}
"""


def test_loading_adds_few_gc_tracked_objects_per_element(graph1_schema):
    """A loaded edge is one object the garbage collector tracks, and a
    vertex that has edges two (itself and its incidence dict): nothing per
    incidence, and attribute dicts of strings and numbers go untracked."""
    text = gen.write_sample(gen.sample(5, 500, 20, 0.05))
    gc.collect()
    before = len(gc.get_objects())
    g = load_graph(text, graph1_schema)
    gc.collect()
    added = len(gc.get_objects()) - before
    elements = len(g.vertices) + len(g.edges)
    assert elements > 4000
    assert added <= 1.5 * elements
