import random

import pytest

from gretlite.errors import QueryError
from gretlite.model import Graph
from gretlite.query.evaluator import _step_classes, eval_path
from gretlite.query.nodes import ClassSpec, PathStep

import genutil
import oracles
from genutil import run_query


def build_one_edge(graph1_schema):
    g = Graph(graph1_schema)
    n1 = g.create_vertex("Node")
    n2 = g.create_vertex("Node")
    ev = g.create_vertex("Edge_")
    g.create_edge("Edge_LinksToSrc", ev, n1)
    g.create_edge("Edge_LinksToTrg", ev, n2)
    return g, n1, n2, ev


def test_two_step_conceptual_hop(graph1_schema):
    # hand trace: n1 <-LinksToSrc- ev -LinksToTrg-> n2
    g, n1, n2, ev = build_one_edge(graph1_schema)
    steps = (
        PathStep("in", (ClassSpec("Edge_LinksToSrc"),)),
        PathStep("out", (ClassSpec("Edge_LinksToTrg"),)),
    )
    result = eval_path(g, n1, steps, _step_classes(g.schema, steps))
    assert list(result) == [n2]
    oracle = oracles.reachable_by_steps(
        g, n1, [("in", {"Edge_LinksToSrc"}), ("out", {"Edge_LinksToTrg"})])
    assert {id(v) for v in result} == oracle


def test_isolated_vertex_reaches_nothing(graph1_schema):
    g = Graph(graph1_schema)
    v = g.create_vertex("Node")
    steps = (PathStep("both"),)
    assert len(eval_path(g, v, steps, _step_classes(g.schema, steps))) == 0


def test_aggregation_step(hello_ext_schema):
    g = Graph(hello_ext_schema)
    greet = g.create_vertex("Greeting")
    person = g.create_vertex("Person")
    g.create_edge("GreetingContainsPerson", greet, person)
    out = run_query("x <>--{GreetingContainsPerson}", g, {"x": greet})
    assert list(out) == [person]


def test_unrestricted_aggregation_step_skips_plain_classes(graph1_schema):
    g, n1, n2, ev = build_one_edge(graph1_schema)
    container = g.create_vertex("Graph_")
    g.create_edge("Graph_ContainsNodes", container, n1)
    assert list(run_query("x <>--", g, {"x": container})) == [n1]
    assert len(run_query("x <>--", g, {"x": ev})) == 0


def test_aggregation_over_plain_class_is_an_error(graph1_schema):
    g, n1, _, _ = build_one_edge(graph1_schema)
    with pytest.raises(QueryError, match="aggregation"):
        run_query("x <>--{Edge_LinksToSrc}", g, {"x": n1})


def test_unknown_restriction_class(graph1_schema):
    g, n1, _, _ = build_one_edge(graph1_schema)
    with pytest.raises(QueryError, match="unknown class"):
        run_query("x -->{Nope}", g, {"x": n1})
    with pytest.raises(QueryError, match="not an edge class"):
        run_query("x -->{Node}", g, {"x": n1})


def test_multi_class_restriction(graph1_schema):
    g, n1, n2, ev = build_one_edge(graph1_schema)
    out = run_query("x <--{Edge_LinksToSrc, Edge_LinksToTrg}", g, {"x": n2})
    assert list(out) == [ev]


def test_either_direction(graph1_schema):
    g, n1, n2, ev = build_one_edge(graph1_schema)
    out = run_query("x <->", g, {"x": ev})
    assert set(map(id, out)) == {id(n1), id(n2)}


def test_path_requires_vertex(graph1_schema):
    g, *_ = build_one_edge(graph1_schema)
    with pytest.raises(QueryError, match="vertex"):
        run_query("x -->", g, {"x": g.edges[0]})


def test_result_is_duplicate_free(graph1_schema):
    g = Graph(graph1_schema)
    n1 = g.create_vertex("Node")
    n2 = g.create_vertex("Node")
    for _ in range(2):
        ev = g.create_vertex("Edge_")
        g.create_edge("Edge_LinksToSrc", ev, n1)
        g.create_edge("Edge_LinksToTrg", ev, n2)
    out = run_query("x <--{Edge_LinksToSrc} -->{Edge_LinksToTrg}",
                    g, {"x": n1})
    assert list(out) == [n2]


RECIPES = [
    [("in", {"Edge_LinksToSrc"}), ("out", {"Edge_LinksToTrg"})],
    [("out", None)],
    [("both", {"Edge_LinksToSrc", "Edge_LinksToTrg"})],
    [("in", {"Graph_ContainsNodes"}), ("out", {"Graph_ContainsEdges"})],
    [("both", None), ("both", None)],
]

_DIRECTIONS = {"in": "in", "out": "out", "both": "both"}


def test_path_soundness_against_bfs_oracle(graph1_schema):
    rng = random.Random(777)
    for _ in range(30):
        g = genutil.random_sample(rng, graph1_schema)
        for recipe in RECIPES:
            steps = tuple(
                PathStep(_DIRECTIONS[d],
                         tuple(ClassSpec(c) for c in sorted(cs)) if cs else ())
                for d, cs in recipe
            )
            for v in g.vertices:
                got = {id(x) for x in eval_path(
                    g, v, steps, _step_classes(g.schema, steps))}
                assert got == oracles.reachable_by_steps(g, v, recipe)
