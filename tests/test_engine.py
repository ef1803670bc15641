import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gretlite import corpus
from gretlite.errors import SchemaError, TransformError
from gretlite.formats import load_graph, load_schema, save_graph
from gretlite.model import Graph, Schema
from gretlite.report import trace_report
from gretlite.transform import engine
from gretlite.transform.engine import TraceabilityMap, execute
from gretlite.transform.parser import parse_script
from gretlite.values import UNDEFINED, OrderedSet

import genutil
import oracles


def script(body: str):
    return parse_script("transformation T;\n" + body)


class TestCreateVertices:
    def test_constant_creation(self, hello_ext_schema):
        run = execute(script("CreateVertices Person <== set(1);"),
                      target_schema=hello_ext_schema)
        assert [v.class_name for v in run.graph.vertices] == ["Person"]
        assert run.trace.image("Person", 1) is run.graph.vertices[0]

    def test_empty_set_creates_nothing(self, hello_ext_schema):
        run = execute(script("CreateVertices Person <== set();"),
                      target_schema=hello_ext_schema)
        assert run.graph.vertices == []
        assert run.op_counts == [("CreateVertices", 0)]

    def test_source_elements_as_archetypes(self, graph1_schema, sample1):
        run = execute(script("CreateVertices Node <== V{Node};"),
                      sample1, target_schema=graph1_schema)
        source_nodes = [v for v in sample1.vertices if v.class_name == "Node"]
        assert len(run.graph.vertices) == len(source_nodes)
        for v in source_nodes:
            assert run.trace.image("Node", v) is not None

    def test_non_set_query_rejected(self, hello_ext_schema):
        with pytest.raises(TransformError, match="yield a set"):
            execute(script("CreateVertices Person <== list(1);"),
                    target_schema=hello_ext_schema)

    def test_archetype_collision(self, hello_ext_schema):
        s = script("CreateVertices Person <== set(1);\n"
                   "CreateVertices Person <== set(1);")
        with pytest.raises(TransformError, match="op 2: archetype 1"):
            execute(s, target_schema=hello_ext_schema)

    def test_collision_through_shared_superclass(self):
        schema = genutil.graph1evo_schema()
        s = script("CreateVertices Node <== set(1);\n"
                   "CreateVertices Edge_ <== set(1);")
        with pytest.raises(TransformError, match="visible via class"):
            execute(s, target_schema=schema)

    def test_abstract_class_rejected(self):
        schema = genutil.graph1evo_schema()
        with pytest.raises(TransformError, match="abstract"):
            execute(script("CreateVertices GraphComponent <== set(1);"),
                    target_schema=schema)


class TestCreateEdges:
    def test_copies_with_image_endpoints(self, graph1_schema, sample1):
        s = script(
            "CreateVertices Node <== V{Node};\n"
            "CreateVertices Edge_ <== V{Edge_};\n"
            "CreateEdges Edge_LinksToSrc <== from l : E{Edge_LinksToSrc} "
            "reportSet tup(l, startVertex(l), endVertex(l)) end;"
        )
        run = execute(s, sample1, target_schema=graph1_schema)
        source_links = [e for e in sample1.edges
                        if e.class_name == "Edge_LinksToSrc"]
        copies = [e for e in run.graph.edges
                  if e.class_name == "Edge_LinksToSrc"]
        assert len(copies) == len(source_links)
        for src in source_links:
            image = run.trace.image("Edge_LinksToSrc", src)
            assert image.start is run.trace.image("Edge_", src.start)
            assert image.end is run.trace.image("Node", src.end)

    def test_union_counts(self, graph1_schema, sample1):
        target = genutil.graph1evo_schema()
        s = script(
            "CreateVertices Graph_ <== V{Graph_};\n"
            "CreateVertices Node <== V{Node};\n"
            "CreateVertices Edge_ <== V{Edge_};\n"
            "CreateEdges Graph_ContainsGcs <== "
            "from c : E{Graph_ContainsNodes, Graph_ContainsEdges} "
            "reportSet tup(c, startVertex(c), endVertex(c)) end;"
        )
        run = execute(s, sample1, target_schema=target)
        contains = [e for e in run.graph.edges
                    if e.class_name == "Graph_ContainsGcs"]
        expected = len(oracles.edges_of(sample1, "Graph_ContainsNodes")) + \
            len(oracles.edges_of(sample1, "Graph_ContainsEdges"))
        assert len(contains) == expected

    def test_unresolvable_archetype(self, hello_ext_schema):
        s = script("CreateEdges GreetingContainsPerson <== "
                   "set(tup(1, 2, 3));")
        with pytest.raises(TransformError, match="no image for archetype 2"):
            execute(s, target_schema=hello_ext_schema)

    def test_non_triple_member(self, hello_ext_schema):
        s = script("CreateEdges GreetingContainsPerson <== set(tup(1, 2));")
        with pytest.raises(TransformError, match="triples"):
            execute(s, target_schema=hello_ext_schema)


class TestSetAttributes:
    def test_single_entry_map(self, hello_ext_schema):
        s = script("CreateVertices Person <== set(1);\n"
                   'SetAttributes Person.name <== map(1 -> "Ada");')
        run = execute(s, target_schema=hello_ext_schema)
        assert run.graph.vertices[0].attr("name") == "Ada"

    def test_union_view_resolution(self, graph1_schema, sample1):
        target = genutil.graph1evo_schema()
        s = script(
            "CreateVertices Graph_ <== V{Graph_};\n"
            "CreateVertices Node <== V{Node};\n"
            "CreateVertices Edge_ <== V{Edge_};\n"
            "SetAttributes GraphComponent.text <== "
            "from gc : V{Graph_, Node, Edge_} "
            'reportMap gc -> (hasType(gc, "Node") ? gc.name : "") end;'
        )
        run = execute(s, sample1, target_schema=target)
        for v in sample1.vertices:
            image = run.trace.image("GraphComponent", v)
            if v.class_name == "Node":
                assert image.attr("text") == v.attr("name")
            else:
                assert image.attr("text") == ""

    def test_empty_map_writes_nothing(self, hello_ext_schema):
        run = execute(script("SetAttributes Person.name <== map();"),
                      target_schema=hello_ext_schema)
        assert run.op_counts == [("SetAttributes", 0)]

    def test_non_map_rejected(self, hello_ext_schema):
        with pytest.raises(TransformError, match="yield a map"):
            execute(script("SetAttributes Person.name <== set(1);"),
                    target_schema=hello_ext_schema)

    def test_type_mismatch(self, hello_ext_schema):
        s = script("CreateVertices Person <== set(1);\n"
                   "SetAttributes Person.name <== map(1 -> 42);")
        with pytest.raises(TransformError, match="op 2.*expects String"):
            execute(s, target_schema=hello_ext_schema)

    def test_unknown_attribute(self, hello_ext_schema):
        with pytest.raises(TransformError, match="no attribute"):
            execute(script("SetAttributes Person.nope <== map();"),
                    target_schema=hello_ext_schema)


SUBGRAPH = (
    "CreateSubgraph (g : Greeting | arch = $)"
    " -->{GreetingContainsGreetingMessage}"
    ' (gm : GreetingMessage | arch = $, text = "Hello"),'
    " (g) -->{GreetingContainsPerson}"
    ' (p : Person | arch = $, name = "TTC Participants")'
    " <== %s;"
)


class TestCreateSubgraph:
    def test_single_application(self, hello_ext_schema):
        run = execute(script(SUBGRAPH % "set(1)"),
                      target_schema=hello_ext_schema)
        g = run.graph
        assert sorted(v.class_name for v in g.vertices) == \
            ["Greeting", "GreetingMessage", "Person"]
        assert sorted(e.class_name for e in g.edges) == \
            ["GreetingContainsGreetingMessage", "GreetingContainsPerson"]
        for cls in ("Greeting", "GreetingMessage", "Person"):
            assert run.trace.image(cls, 1) is not None

    def test_empty_query(self, hello_ext_schema):
        run = execute(script(SUBGRAPH % "set()"),
                      target_schema=hello_ext_schema)
        assert run.graph.vertices == [] and run.graph.edges == []

    def test_two_applications(self, hello_ext_schema):
        # enumeration oracle: |template| scales with the member count
        run = execute(script(SUBGRAPH % "set(1, 2)"),
                      target_schema=hello_ext_schema)
        assert len(run.graph.vertices) == 6
        assert len(run.graph.edges) == 4
        people = [run.trace.image("Person", k) for k in (1, 2)]
        assert people[0] is not None and people[1] is not None
        assert people[0] is not people[1]

    def test_reference_items_rejected(self, hello_ext_schema):
        s = script("CreateSubgraph (a := $[0]) <== set(1);")
        with pytest.raises(TransformError, match="only create"):
            execute(s, target_schema=hello_ext_schema)

    def test_edge_archetype_registration(self, hello_ext_schema):
        s = script(
            "CreateSubgraph (g : Greeting | arch = $)"
            " -->{GreetingContainsPerson | arch = $}"
            " (p : Person | arch = $)"
            " <== set(1);"
        )
        run = execute(s, target_schema=hello_ext_schema)
        assert run.trace.image("GreetingContainsPerson", 1) is run.graph.edges[0]

    def test_edge_attribute_assignments(self):
        schema = load_schema("schema s;\nvertexclass N;\n"
                             "edgeclass L from N to N { w: Double, k: Integer };")
        s = script("CreateSubgraph (a : N | arch = $)"
                   " -->{L | arch = $, w = 2.5, k = $ + 1}"
                   " (b : N | arch = tup($, 2)) <== set(1);")
        (edge,) = execute(s, target_schema=schema).graph.edges
        assert (edge.attr("w"), edge.attr("k")) == (2.5, 2)


def one_conceptual_edge(schema):
    g = Graph(schema)
    n1, n2 = g.create_vertex("Node"), g.create_vertex("Node")
    n1.set_attr("name", "n1")
    n2.set_attr("name", "n2")
    ev = g.create_vertex("Edge_")
    g.create_edge("Edge_LinksToSrc", ev, n1)
    g.create_edge("Edge_LinksToTrg", ev, n2)
    return g, n1, n2, ev


class TestMatchReplace:
    def test_reverse_single_edge(self, graph1_schema):
        g, n1, n2, ev = one_conceptual_edge(graph1_schema)
        reverse = parse_script(corpus.read_text("09-reverse-edges.grt"))
        run = execute(reverse, g, in_place=True)
        (ev2, src, trg), = oracles.conceptual_edges(g)
        assert ev2 is ev
        assert src == [n2] and trg == [n1]
        assert run.match_invocations[0].applied == 1

    def test_empty_match_set(self, graph1_schema, sample1):
        before = save_graph(sample1)
        s = script("MatchReplace (a := $[0]) <== set();")
        run = execute(s, sample1, in_place=True)
        assert save_graph(sample1) == before
        stats = run.match_invocations[0]
        assert (stats.applied, stats.skipped) == (0, 0)

    def test_overlapping_matches_skip(self, graph1_schema):
        # two matches share the same Edge_ vertex: second must be skipped
        g, n1, n2, ev = one_conceptual_edge(graph1_schema)
        s = script(
            "MatchReplace (a := $[0]), (b := $[1]) <== "
            "from e : V{Edge_}, n : V{Node} reportSet tup(e, n) end;"
        )
        run = execute(s, g, in_place=True)
        stats = run.match_invocations[0]
        assert (stats.applied, stats.skipped) == (1, 1)

    def test_applied_matches_are_disjoint(self, graph1_schema, sample1,
                                          instantiations):
        reverse = parse_script(corpus.read_text("09-reverse-edges.grt"))
        run = execute(reverse, sample1, in_place=True)
        assert len(instantiations) == run.match_invocations[0].applied > 0
        seen = set()
        for elements in instantiations:
            assert seen.isdisjoint(elements)
            seen.update(elements)

    def test_unreferenced_elements_deleted(self, graph1_schema):
        g, n1, n2, ev = one_conceptual_edge(graph1_schema)
        s = script(
            "MatchReplace (a := $[0]) <== "
            "from e : V{Edge_}, s : E{Edge_LinksToSrc} reportSet tup(e, s) end;"
        )
        execute(s, g, in_place=True)
        assert ev.alive
        assert oracles.edges_of(g, "Edge_LinksToSrc") == []
        oracles.assert_no_dangling(g)

    def test_deleting_vertex_cascades(self, graph1_schema):
        g, n1, n2, ev = one_conceptual_edge(graph1_schema)
        s = script(
            "MatchReplace (a := $[1]) <== "
            "from e : V{Edge_} reportSet tup(e, theElement(e -->{Edge_LinksToSrc})) end;"
        )
        execute(s, g, in_place=True)
        assert not ev.alive
        assert n1.alive
        oracles.assert_no_dangling(g)

    def test_ref_to_non_element(self, graph1_schema, sample1):
        s = script("MatchReplace (a := $[0]) <== set(tup(1));")
        with pytest.raises(TransformError, match="graph element"):
            execute(s, sample1, in_place=True)

    def test_ref_to_non_element_message(self, sample1):
        s = script("MatchReplace (x := 1) <== set(1);")
        with pytest.raises(TransformError) as info:
            execute(s, sample1, in_place=True)
        assert str(info.value) == ("op 1: template reference 'x' must name "
                                   "a graph element, got 1 (line 2)")

    @pytest.mark.parametrize("template, message", [
        # the match's Edge_ vertex is deleted, and its edge with it
        ("(b := $[1])", "preserved element 'b' was deleted by a cascade"),
        ("(a := $[0]) -->{Edge_LinksToSrc} (b := $[1])",
         "template edge endpoint 'b' is not a vertex"),
    ], ids=["cascade", "edge-endpoint"])
    def test_preserved_edge_faults(self, graph1_schema, template, message):
        g, n1, n2, ev = one_conceptual_edge(graph1_schema)
        s = script(f"MatchReplace {template} <== from s : E{{Edge_LinksToSrc}}"
                   " reportSet tup(startVertex(s), s) end;")
        with pytest.raises(TransformError) as info:
            execute(s, g, in_place=True)
        assert str(info.value) == f"op 1: {message} (line 2)"

    def test_requires_in_place(self, graph1_schema, sample1):
        s = script("MatchReplace (a := $[0]) <== set();")
        with pytest.raises(TransformError) as info:
            execute(s, sample1, target_schema=graph1_schema)
        assert str(info.value) == ("op 1: MatchReplace requires in-place "
                                   "execution (line 2)")

    def test_attribute_assignment_on_preserved(self, graph1_schema):
        g, n1, n2, ev = one_conceptual_edge(graph1_schema)
        s = script(
            'MatchReplace (a := $, name = "touched") <== '
            'from n : V{Node} with n.name = "n1" reportSet n end;'
        )
        execute(s, g, in_place=True)
        assert n1.attr("name") == "touched"

    def test_single_element_matches_act_as_tuples(self, graph1_schema):
        g, n1, n2, ev = one_conceptual_edge(graph1_schema)
        s = script(
            "MatchReplace (a := $[0]) <== "
            'from n : V{Node} with n.name = "n2" reportSet n end;'
        )
        execute(s, g, in_place=True)
        assert n2.alive


@pytest.mark.parametrize("op", ["CreateSubgraph", "MatchReplace"])
def test_archetype_is_evaluated_before_its_vertex_exists(graph1_schema,
                                                          sample1, op):
    before = sum(v.class_name == "Node" for v in sample1.vertices)
    s = script(f"{op} (x : Node | arch = count(V{{Node}})) <== set(tup(1));")
    run = execute(s, sample1, in_place=True)
    (archetype, vertex), = run.trace.entries("Node")
    assert archetype == before
    assert vertex.alive and vertex.graph is sample1


class TestDelete:
    def test_named_node(self, graph1_schema, sample1):
        t = parse_script(corpus.read_text("12-delete-node-n1.grt"))
        expected = oracles.expected_delete_set_single(sample1, "n1")
        before = oracles.live_ids(sample1)
        run = execute(t, sample1, in_place=True)
        assert before - oracles.live_ids(sample1) == expected
        assert run.op_counts[0][1] == len(expected)
        oracles.assert_no_dangling(sample1)

    def test_node_with_conceptual_edges(self, graph1_schema, sample1):
        t = parse_script(corpus.read_text("13-delete-node-n1-and-edges.grt"))
        expected = oracles.expected_delete_set_with_edges(sample1, "n1")
        before = oracles.live_ids(sample1)
        execute(t, sample1, in_place=True)
        assert before - oracles.live_ids(sample1) == expected
        oracles.assert_no_dangling(sample1)

    def test_empty_query(self, graph1_schema, sample1):
        before = save_graph(sample1)
        run = execute(script("Delete set();"), sample1, in_place=True)
        assert run.op_counts == [("Delete", 0)]
        assert save_graph(sample1) == before

    def test_non_element_rejected(self, graph1_schema, sample1):
        with pytest.raises(TransformError, match="graph elements only"):
            execute(script("Delete set(1);"), sample1, in_place=True)

    def test_undefined_rejected_by_name(self, sample1):
        with pytest.raises(TransformError) as info:
            execute(script("Delete list(undefined);"), sample1, in_place=True)
        assert str(info.value) == ("op 1: Delete results must contain graph "
                                   "elements only, got undefined (line 2)")

    def test_non_collection_rejected(self, graph1_schema, sample1):
        with pytest.raises(TransformError,
                           match="expects its query to yield a collection"):
            execute(script("Delete 1;"), sample1, in_place=True)

    def test_requires_in_place(self, graph1_schema, sample1):
        with pytest.raises(TransformError) as info:
            execute(script("Delete set();"), sample1,
                    target_schema=graph1_schema)
        assert str(info.value) == ("op 1: Delete requires in-place "
                                   "execution (line 2)")


class TestIteratively:
    def test_immediately_inapplicable_body(self, graph1_schema, sample1):
        run = execute(script("Iteratively { Delete set(); }"),
                      sample1, in_place=True)
        assert run.op_counts == [("Iteratively", 1)]

    def test_transitive_edges_on_chain(self, graph2_schema, chain4):
        t = parse_script(corpus.read_text("14-insert-transitive-edges.grt"))
        original = oracles.edge_pair_set(chain4, "NodeLinksToLinksTo")
        compositions = oracles.one_step_compositions(chain4, "NodeLinksToLinksTo")
        run = execute(t, chain4, in_place=True)
        result = oracles.edge_pair_set(chain4, "NodeLinksToLinksTo")
        assert result == original | compositions
        assert run.op_counts == [("Iteratively", 2)]

    def test_round_limit(self, graph1_schema, sample1, monkeypatch):
        monkeypatch.setattr(engine, "ROUND_LIMIT", 5)
        s = script(
            "Iteratively { MatchReplace "
            "(x : Node | arch = count(V{Node})) <== set(tup(1)); }"
        )
        with pytest.raises(TransformError, match="exceeded 5 rounds"):
            execute(s, sample1, in_place=True)

    def test_requires_in_place(self, graph1_schema, sample1):
        with pytest.raises(TransformError) as info:
            execute(script("Iteratively { Delete set(); }"),
                    sample1, target_schema=graph1_schema)
        assert str(info.value) == ("op 1: Iteratively requires in-place "
                                   "execution (line 2)")


class TestExecutionShell:
    def test_out_place_leaves_source_untouched(self, graph1_schema, sample1):
        before = save_graph(sample1)
        t = parse_script(corpus.read_text("10-simple-migration.grt"))
        execute(t, sample1, target_schema=genutil.graph1evo_schema())
        assert save_graph(sample1) == before

    def test_missing_source_defaults_to_empty(self, hello_ext_schema):
        run = execute(script("CreateVertices Person <== "
                             "from n : V{Person} reportSet n end;"),
                      target_schema=hello_ext_schema)
        assert run.graph.vertices == []

    def test_in_place_requires_source(self):
        with pytest.raises(TransformError, match="requires a source"):
            execute(script("Delete set();"), None, in_place=True)

    def test_in_place_schema_must_match(self, graph1_schema, sample1):
        with pytest.raises(TransformError, match="source graph's schema"):
            execute(script("Delete set();"), sample1,
                    target_schema=genutil.graph2_schema(), in_place=True)

    def test_out_place_requires_target_schema(self, sample1):
        with pytest.raises(TransformError, match="requires a target schema"):
            execute(script("Delete set();"), sample1)

    def test_errors_carry_op_index(self, hello_ext_schema):
        s = script("CreateVertices Person <== set(1);\n"
                   "CreateVertices Person <== list(2);")
        with pytest.raises(TransformError, match="^op 2"):
            execute(s, target_schema=hello_ext_schema)

    def test_errors_name_the_op_line(self, sample1):
        # an error in an Iteratively body names the Iteratively's line
        s = script("Delete set();\n\n"
                   "Iteratively {\n"
                   "  Delete set(1);\n"
                   "}")
        with pytest.raises(TransformError, match=r"^op 2: Delete results "
                           r"must contain graph elements only, got 1 "
                           r"\(line 4\)$"):
            execute(s, sample1, in_place=True)

    def test_queries_run_against_the_source(self, graph1_schema, sample1):
        run = execute(script("CreateVertices Node <== V{Node};\n"
                             "CreateVertices Graph_ <== V{Graph_};"),
                      sample1, target_schema=graph1_schema)
        # the second op counts source Graph_ vertices, not target ones
        assert run.op_counts[1] == ("CreateVertices", 1)


class TestTraceability:
    def test_bijectivity_after_migration(self, graph1_schema, sample1):
        t = parse_script(corpus.read_text("10-simple-migration.grt"))
        run = execute(t, sample1, target_schema=genutil.graph1evo_schema())
        for cls in run.trace.classes():
            entries = run.trace.entries(cls)
            images = [el for _, el in entries]
            assert len({id(el) for el in images}) == len(images)
            arch = run.trace.arch_value(cls)
            for archetype, el in entries:
                assert oracles.values_equal(arch.get(el), archetype)

    def test_union_view_lookup(self):
        schema = genutil.graph1evo_schema()
        trace = TraceabilityMap(schema)
        g = Graph(schema)
        v = g.create_vertex("Node")
        trace.register(1, v)
        assert trace.image("GraphComponent", 1) is v
        assert trace.image("Edge_", 1) is None
        assert trace.img_value("GraphComponent").get(1) is v

    def test_an_entry_is_filed_under_its_elements_class(self):
        # one registration shows in the image, the entries, the classes,
        # both views and the report alike
        schema = genutil.graph1evo_schema()
        trace = TraceabilityMap(schema)
        node = Graph(schema).create_vertex("Node")
        trace.register(1, node)
        assert trace.image("GraphComponent", 1) is node
        assert trace.entries("Node") == [(1, node)]
        assert trace.classes() == ["Node"]
        assert trace.img_value("GraphComponent").get(1) is node
        assert trace.arch_value("Node").get(node) == 1
        assert trace_report(trace) == "Node: 1 -> v1\n"
        with pytest.raises(TransformError, match="^archetype 1 already has "
                           "an image visible via class 'Node'$"):
            trace.register(1, node.graph.create_vertex("Node"))

    def test_register_under_an_unknown_class_is_a_schema_error(
            self, hello_ext_schema):
        trace = TraceabilityMap(genutil.graph1evo_schema())
        person = Graph(hello_ext_schema).create_vertex("Person")
        with pytest.raises(SchemaError, match="^unknown class 'Person'$"):
            trace.register(1, person)
        assert trace.classes() == []

    def test_trace_maps_visible_to_queries(self, hello_ext_schema):
        s = script(
            "CreateVertices Person <== set(1, 2);\n"
            "CreateVertices Greeting <== keySet(img_Person);"
        )
        run = execute(s, target_schema=hello_ext_schema)
        assert run.op_counts[1] == ("CreateVertices", 2)

    def test_unknown_trace_class(self, hello_ext_schema):
        s = script("CreateVertices Person <== keySet(img_Nope);")
        with pytest.raises(TransformError, match="unknown class 'Nope'"):
            execute(s, target_schema=hello_ext_schema)

    def test_unknown_trace_class_fails_only_when_evaluated(
            self, hello_ext_schema):
        s = script("CreateVertices Person <== "
                   "false ? keySet(img_Nope) : set(1);")
        run = execute(s, target_schema=hello_ext_schema)
        assert run.op_counts == [("CreateVertices", 1)]

    def test_held_view_is_unchanged_by_register(self, hello_ext_schema):
        g = Graph(hello_ext_schema)
        trace = TraceabilityMap(hello_ext_schema)
        first, second = (g.create_vertex("Person") for _ in range(2))
        trace.register(1, first)
        img, arch = trace.img_value("Person"), trace.arch_value("Person")
        trace.register(2, second)
        assert img.keys() == [1] and arch.keys() == [first]
        assert trace.img_value("Person").keys() == [1, 2]
        assert trace.arch_value("Person").get(second) == 2

    def test_trace_view_is_read_once_per_evaluation(self, hello_ext_schema,
                                                    monkeypatch):
        calls = []
        img_value = TraceabilityMap.img_value

        def counted(trace, class_name):
            calls.append(class_name)
            return img_value(trace, class_name)
        monkeypatch.setattr(TraceabilityMap, "img_value", counted)
        # op 1 reads no view, so every call is op 2's single evaluation
        s = script("CreateVertices Person <== set(1, 2);\n"
                   "CreateVertices Greeting <== from x : set(1, 2, 3) "
                   "reportSet tup(x, img_Person) end;")
        run = execute(s, target_schema=hello_ext_schema)
        assert run.op_counts[1] == ("CreateVertices", 3)
        assert calls == ["Person"]

    def test_trace_view_is_fresh_for_each_evaluation(self, hello_ext_schema):
        # each match's name counts the Persons registered up to its own
        s = script('CreateSubgraph (p : Person | arch = $, name = "n" ++ '
                   'count(keySet(img_Person))) <== set(1, 2, 3);')
        run = execute(s, target_schema=hello_ext_schema)
        assert [v.attr("name") for v in run.graph.vertices] == [
            "n1", "n2", "n3"]


def test_reverse_involution_on_random_fixtures(graph1_schema):
    rng = random.Random(11)
    reverse = parse_script(corpus.read_text("09-reverse-edges.grt"))
    for _ in range(20):
        g = genutil.random_sample(rng, graph1_schema)
        shape_before = oracles.canonical_form(g)
        execute(reverse, g, in_place=True)
        execute(reverse, g, in_place=True)
        assert oracles.canonical_form(g) == shape_before


_ARCHETYPES = (0, 1, 1.0, True, "1", (1,), [1], UNDEFINED)


@st.composite
def _trace_runs(draw):
    """A schema whose vertex classes V0.. and edge classes E0.. each extend
    a random set of earlier classes of their kind, and registrations of
    (class, archetype) pairs."""
    schema = Schema("mi")
    classes = []
    for kind in "VE":
        for i in range(draw(st.integers(2, 5))):
            supers = [c for c in classes if c[0] == kind and draw(st.booleans())]
            name = f"{kind}{i}"
            if kind == "V":
                schema.define_vertex_class(name, supertypes=supers)
            else:
                schema.define_edge_class(name, "V0", "V0", supertypes=supers)
            classes.append(name)
    # one key (1 and 1.0 share it) half the time, so that clashes abound
    archetypes = st.one_of(st.sampled_from((1, 1.0)),
                           st.sampled_from(_ARCHETYPES))
    registrations = draw(st.lists(
        st.tuples(st.sampled_from(classes), archetypes), max_size=25))
    return schema, classes, registrations


def _items(view):
    return [(id(k), id(v)) for k, v in view.items()]


@settings(max_examples=150, deadline=None)
@given(_trace_runs())
def test_trace_map_matches_scanning_oracle(run):
    """Images, clash errors and the class they name, and the contents
    and order of the union views match a map that scans."""
    schema, classes, registrations = run
    g = Graph(schema)
    anchor = g.create_vertex("V0")
    trace = TraceabilityMap(schema)
    naive = oracles.NaiveTraceabilityMap(schema)
    for cls, archetype in registrations:
        element = (g.create_vertex(cls) if cls[0] == "V"
                   else g.create_edge(cls, anchor, anchor))
        views = {False: trace.img_value, True: trace.arch_value}
        held = {(c, inv): views[inv](c)
                for c in classes for inv in (False, True)}
        snapshot = {key: _items(view) for key, view in held.items()}
        try:
            naive.register(archetype, element)
        except TransformError as exc:
            with pytest.raises(TransformError) as info:
                trace.register(archetype, element)
            assert str(info.value) == str(exc)
        else:
            trace.register(archetype, element)
        assert all(_items(view) == snapshot[key]
                   for key, view in held.items())
        assert trace.classes() == naive.classes()
        for c in classes:
            assert trace.entries(c) == list(naive._maps.get(c, {}).values())
            for a in _ARCHETYPES:
                assert trace.image(c, a) is naive.image(c, a)
            for inverse, view in views.items():
                assert _items(view(c)) == [
                    (id(k), id(v)) for k, v in naive.view_items(c, inverse)]
