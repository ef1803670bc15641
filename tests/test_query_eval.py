import random

import pytest

from gretlite.errors import QueryError
from gretlite.model import Graph
from gretlite.query.evaluator import evaluate
from gretlite.query.parser import parse_query
from gretlite.values import UNDEFINED, OrderedSet, ValueMap

import genutil
import oracles
from genutil import run_query


@pytest.fixture
def empty(graph1_schema):
    return Graph(graph1_schema)


@pytest.fixture
def three_nodes(graph1_schema):
    g = Graph(graph1_schema)
    for i in range(3):
        g.create_vertex("Node").set_attr("name", f"n{i + 1}")
    return g


class TestLiteralsAndOperators:
    def test_arithmetic(self, empty):
        assert run_query("1 + 2 * 3", empty) == 7
        assert run_query("-(5 - 2)", empty) == -3
        assert run_query("7 % 3", empty) == 1
        assert run_query("3 / 2", empty) == 1.5

    def test_division_by_zero(self, empty):
        with pytest.raises(QueryError, match="division by zero"):
            run_query("1 / 0", empty)

    def test_concat_renders_values(self, empty):
        assert run_query('1 ++ " thing"', empty) == "1 thing"
        assert run_query('"n: " ++ set("b", "a")', empty) == 'n: {"a", "b"}'

    def test_comparisons(self, empty):
        assert run_query("1 < 2", empty) is True
        assert run_query('"a" < "b"', empty) is True
        assert run_query("1 = 1.0", empty) is True
        assert run_query("1 <> 2", empty) is True
        with pytest.raises(QueryError):
            run_query('1 < "a"', empty)

    def test_undefined_poisons_comparisons(self, empty):
        assert run_query("undefined = undefined", empty) is False
        assert run_query("undefined < 1", empty) is False
        assert run_query("1 <> undefined", empty) is False

    def test_undefined_propagates_through_arithmetic(self, empty):
        assert run_query("1 + undefined", empty) is UNDEFINED
        assert run_query("not undefined", empty) is UNDEFINED
        assert run_query("undefined.name", empty) is UNDEFINED
        assert run_query("undefined[0]", empty) is UNDEFINED
        # inf - inf
        assert run_query("1e308 * 10.0 - 1e308 * 10.0", empty) is UNDEFINED

    def test_three_valued_logic(self, empty):
        assert run_query("false and undefined", empty) is False
        assert run_query("undefined and false", empty) is False
        assert run_query("true or undefined", empty) is True
        assert run_query("undefined or true", empty) is True
        assert run_query("true and undefined", empty) is UNDEFINED

    def test_short_circuit_skips_right_errors(self, empty):
        assert run_query("false and count(1)", empty) is False
        assert run_query("true or count(1)", empty) is True

    def test_conditional_is_lazy(self, empty):
        assert run_query("true ? 1 : count(1)", empty) == 1
        assert run_query("false ? count(1) : 2", empty) == 2
        assert run_query("undefined ? 1 : 2", empty) is UNDEFINED

    def test_tuple_indexing(self, empty):
        assert run_query("tup(7, 8)[1]", empty) == 8
        with pytest.raises(QueryError, match="out of range"):
            run_query("tup(7)[3]", empty)


class TestElementSets:
    def test_count_on_empty_graph(self, empty):
        assert run_query("count(V{Node})", empty) == 0

    def test_count_matches_enumeration(self, three_nodes):
        assert run_query("count(V{Node})", three_nodes) == \
            oracles.count_nodes(three_nodes)

    def test_subclass_inclusion_and_exact(self):
        g = Graph(genutil.graph1evo_schema())
        g.create_vertex("Node")
        g.create_vertex("Graph_")
        assert len(run_query("V{GraphComponent}", g)) == 2
        assert len(run_query("V{Node!}", g)) == 1
        assert len(run_query("V", g)) == 2

    def test_edge_sets(self, sample1):
        assert run_query("count(E{Edge_LinksToSrc})", sample1) == 5
        assert run_query("count(E)", sample1) == 20

    def test_unknown_class(self, empty):
        with pytest.raises(QueryError, match="unknown class"):
            run_query("V{Nope}", empty)
        with pytest.raises(QueryError, match="not a vertex class"):
            run_query("V{Edge_LinksToSrc}", empty)


class TestComprehensions:
    def test_report_preserves_order(self, three_nodes):
        out = run_query("from n : V{Node} report n.name end", three_nodes)
        assert out == ["n1", "n2", "n3"]

    def test_report_set_deduplicates(self, three_nodes):
        for v in three_nodes.vertices:
            v.set_attr("name", "same")
        out = run_query("from n : V{Node} reportSet n.name end", three_nodes)
        assert list(out) == ["same"]

    def test_report_map(self, three_nodes):
        out = run_query("from n : V{Node} reportMap n.name -> n end",
                        three_nodes)
        assert isinstance(out, ValueMap)
        assert out.get("n2") is three_nodes.vertices[1]

    def test_missing_with_defaults_to_true(self, three_nodes):
        assert len(run_query("from n : V{Node} report n end", three_nodes)) == 3

    def test_filter(self, three_nodes):
        out = run_query(
            'from n : V{Node} with n.name <> "n2" reportSet n.name end',
            three_nodes)
        assert out == OrderedSet(["n1", "n3"])

    def test_undefined_filter_drops_row(self, three_nodes):
        out = run_query(
            "from n : V{Node} with undefined reportSet n end", three_nodes)
        assert len(out) == 0

    def test_non_boolean_filter_is_type_error(self, three_nodes):
        with pytest.raises(QueryError, match="boolean"):
            run_query("from n : V{Node} with 1 report n end", three_nodes)

    def test_rows_become_tuples(self, three_nodes):
        out = run_query("from n : V{Node} report n, n.name end", three_nodes)
        assert out[0] == (three_nodes.vertices[0], "n1")

    def test_shadowing(self, three_nodes):
        out = run_query(
            "from n : set(1) report from n : set(2) report n end, n end",
            three_nodes)
        assert out == [([2], 1)]

    def test_domain_must_be_collection(self, three_nodes):
        with pytest.raises(QueryError, match="collection"):
            run_query("from n : 5 report n end", three_nodes)

    def test_dependent_declarations(self, sample1):
        out = run_query(
            "from e : V{Edge_}, n : e -->{Edge_LinksToSrc} "
            "reportSet tup(e, n) end",
            sample1)
        assert len(out) == 5


class TestBuiltins:
    def test_the_element(self, empty):
        assert run_query("theElement(set(7))", empty) == 7

    def test_the_element_cardinality(self, empty):
        with pytest.raises(QueryError, match="exactly one"):
            run_query("theElement(set(1, 2))", empty)
        with pytest.raises(QueryError, match="exactly one"):
            run_query("theElement(set())", empty)

    def test_count_type_error(self, empty):
        with pytest.raises(QueryError, match="collection"):
            run_query("count(3)", empty)

    def test_contains(self, empty):
        assert run_query("contains(set(1, 2), 2)", empty) is True
        assert run_query("contains(list(1, 2), 3)", empty) is False
        assert run_query("contains(tup(1), 1.0)", empty) is True

    def test_is_empty_and_key_set(self, empty):
        assert run_query("isEmpty(set())", empty) is True
        assert run_query('keySet(map(1 -> "a"))', empty) == OrderedSet([1])

    def test_flatten(self, empty):
        assert run_query("flatten(list(set(1), list(2, tup(3))))", empty) == \
            [1, 2, 3]

    def test_has_type(self, sample1):
        node = sample1.vertices[1]
        assert run_query('hasType(x, "Node")', sample1, {"x": node}) is True
        assert run_query('hasType(x, "Edge_")', sample1, {"x": node}) is False
        with pytest.raises(QueryError, match="^unknown class 'Nope'$"):
            run_query('hasType(x, "Nope")', sample1, {"x": node})

    def test_degree_counts_isolated_nodes(self, sample1):
        names = run_query(
            "from n : V{Node} "
            "with degree{Edge_LinksToSrc, Edge_LinksToTrg}(n) = 0 "
            "reportSet n.name end",
            sample1)
        assert set(names) == oracles.isolated_node_names(sample1)

    def test_degree_without_filter(self, sample1):
        container = sample1.vertices[0]
        assert run_query("degree(x)", sample1, {"x": container}) == 11

    def test_edge_endpoints(self, sample1):
        edge = sample1.edges[0]
        assert run_query("startVertex(x)", sample1, {"x": edge}) is edge.start
        assert run_query("endVertex(x)", sample1, {"x": edge}) is edge.end

    def test_arity_errors(self, empty):
        with pytest.raises(QueryError, match="arguments"):
            run_query("count(set(), set())", empty)

    def test_unknown_function(self, empty):
        with pytest.raises(QueryError, match="unknown function"):
            run_query("mystery(1)", empty)

    def test_class_qualifier_rejected_elsewhere(self, empty):
        with pytest.raises(QueryError, match="class qualifier"):
            run_query("count{Node}(set())", empty)


class TestAttributeAccess:
    def test_reads_inherited(self):
        g = Graph(genutil.graph1evo_schema())
        v = g.create_vertex("Node")
        v.set_attr("text", "x")
        assert run_query("from n : V{Node} report n.text end", g) == ["x"]

    def test_default_readback(self, three_nodes):
        g = three_nodes
        fresh = g.create_vertex("Node")
        assert run_query("x.name", g, {"x": fresh}) == ""

    def test_undeclared_attribute(self, three_nodes):
        with pytest.raises(QueryError, match="no attribute"):
            run_query("x.nope", three_nodes, {"x": three_nodes.vertices[0]})

    def test_non_element_target(self, empty):
        with pytest.raises(QueryError, match="graph element"):
            run_query("x.name", empty, {"x": 3})


# query -> the whole message of the QueryError it raises on sample1
EVALUATION_ERRORS = {
    "$": "'$' is not bound here",
    "degree(1)": "degree expects a vertex",
    "degree{Edge_LinksToSrc}(1, 2)":
        "function 'degree' called with 2 arguments",
    '-"a"': "unary '-' expects a number",
    "not 1": "'not' expects a boolean",
    '"a" - 1': "'-' expects numbers",
    "1.5 % 2": "'%' expects integers",
    "1[0]": "indexing applies to tuples and lists",
    "list(1)[0.5]": "index must be an integer",
    "theElement(1)": "theElement expects a collection",
    "contains(1, 1)": "contains expects a collection",
    "keySet(1)": "keySet expects a map",
    "flatten(1)": "flatten expects a collection",
    'hasType(1, "Node")': "hasType expects a graph element",
    "hasType(theElement(V{Graph_}), 1)": "hasType expects a class name string",
    # a call of 0 or 3 arguments takes `_applied`'s general case
    "count()": "function 'count' called with 0 arguments",
    "count(1, 2, 3)": "function 'count' called with 3 arguments",
    # class names resolve through one resolver, with one set of messages
    "V{Nope}": "unknown class 'Nope'",
    "E{Node}": "'Node' is not an edge class",
    "degree{Node}(theElement(V{Graph_}))": "'Node' is not an edge class",
    "theElement(V{Graph_}) <>--{Edge_LinksToSrc}":
        "'<>--' traverses aggregation edge classes only, and "
        "'Edge_LinksToSrc' is not one",
    # the argument is checked before the classes
    "degree{Nope}(1)": "degree expects a vertex",
}


@pytest.mark.parametrize("query", EVALUATION_ERRORS)
def test_evaluation_errors_are_exact(sample1, query):
    with pytest.raises(QueryError) as info:
        run_query(query, sample1)
    assert str(info.value) == EVALUATION_ERRORS[query]


def test_greeting_query_end_to_end(hello_ext_schema):
    g = Graph(hello_ext_schema)
    greet = g.create_vertex("Greeting")
    gm = g.create_vertex("GreetingMessage")
    gm.set_attr("text", "Hello")
    p = g.create_vertex("Person")
    p.set_attr("name", "TTC Participants")
    g.create_edge("GreetingContainsGreetingMessage", greet, gm)
    g.create_edge("GreetingContainsPerson", greet, p)
    from gretlite import corpus
    out = run_query(corpus.read_text("03-greeting-to-text.grq"), g)
    assert out == OrderedSet(["Hello TTC Participants!"])


def test_evaluation_is_deterministic(sample1):
    text = ("from n1, n2 : V{Node} "
            "with contains(n1 <--{Edge_LinksToSrc} -->{Edge_LinksToTrg}, n2) "
            "report tup(n1, n2) end")
    first = run_query(text, sample1)
    second = run_query(text, sample1)
    assert oracles.values_equal(first, second)
    assert [tuple(map(id, row)) for row in first] == \
        [tuple(map(id, row)) for row in second]


def test_comprehension_matches_naive_evaluator():
    rng = random.Random(4242)
    texts = [
        "from n1, n2, n3 : V{Node} "
        "with n1 <> n2 and n1 <> n3 and n2 <> n3 "
        " and contains(n1 <--{Edge_LinksToSrc} -->{Edge_LinksToTrg}, n2) "
        " and contains(n2 <--{Edge_LinksToSrc} -->{Edge_LinksToTrg}, n3) "
        " and contains(n3 <--{Edge_LinksToSrc} -->{Edge_LinksToTrg}, n1) "
        "reportSet tup(n1, n2, n3) end",
        "from e : V{Edge_}, n : e -->{Edge_LinksToSrc} report tup(e, n) end",
        "from n : V{Node} reportMap n -> n.name end",
        "from a, b : V{Node} with a <> b report a.name ++ b.name end",
    ]
    asts = [parse_query(t) for t in texts]
    schema = genutil.graph1_schema()
    for _ in range(25):
        g = genutil.random_sample(rng, schema, max_nodes=4, max_edges=3)
        for ast in asts:
            assert oracles.values_equal(
                evaluate(ast, g), oracles.naive_comprehension(ast, g))
