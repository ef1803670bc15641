"""Seeded random fixture generators for the test suite, and `run_query`."""

from __future__ import annotations

from gretlite.model import AttrType, Graph, Schema
from gretlite.query.evaluator import evaluate
from gretlite.query.parser import parse_query


def run_query(text: str, graph: Graph, bindings=None):
    """The value of the query `text` on `graph`, with the names of
    `bindings` (name -> value) bound."""
    names = tuple(bindings or ())
    return evaluate(parse_query(text, extra_names=names), graph, bindings)


def graph1_schema() -> Schema:
    s = Schema("graph1")
    s.define_vertex_class("Graph_")
    s.define_vertex_class("Node", attributes=[("name", AttrType.STRING)])
    s.define_vertex_class("Edge_")
    s.define_edge_class("Edge_LinksToSrc", "Edge_", "Node")
    s.define_edge_class("Edge_LinksToTrg", "Edge_", "Node")
    s.define_edge_class("Graph_ContainsNodes", "Graph_", "Node",
                        is_aggregation=True)
    s.define_edge_class("Graph_ContainsEdges", "Graph_", "Edge_",
                        is_aggregation=True)
    return s


def graph1evo_schema() -> Schema:
    s = Schema("graph1evo")
    s.define_vertex_class("GraphComponent", is_abstract=True,
                          attributes=[("text", AttrType.STRING)])
    s.define_vertex_class("Graph_", supertypes=["GraphComponent"])
    s.define_vertex_class("Node", supertypes=["GraphComponent"])
    s.define_vertex_class("Edge_", supertypes=["GraphComponent"])
    s.define_edge_class("Edge_LinksToSrc", "Edge_", "Node")
    s.define_edge_class("Edge_LinksToTrg", "Edge_", "Node")
    s.define_edge_class("Graph_ContainsGcs", "Graph_", "GraphComponent",
                        is_aggregation=True)
    return s


def graph2_schema() -> Schema:
    s = Schema("graph2")
    s.define_vertex_class("Graph_")
    s.define_vertex_class("Node", attributes=[("text", AttrType.STRING)])
    s.define_edge_class("NodeLinksToLinksTo", "Node", "Node")
    s.define_edge_class("Graph_ContainsNodes", "Graph_", "Node",
                        is_aggregation=True)
    return s


def hello_ext_schema() -> Schema:
    s = Schema("hello_ext")
    s.define_vertex_class("Greeting")
    s.define_vertex_class("GreetingMessage",
                          attributes=[("text", AttrType.STRING)])
    s.define_vertex_class("Person", attributes=[("name", AttrType.STRING)])
    s.define_edge_class("GreetingContainsGreetingMessage",
                        "Greeting", "GreetingMessage", is_aggregation=True)
    s.define_edge_class("GreetingContainsPerson", "Greeting", "Person",
                        is_aggregation=True)
    return s


def random_sample(rng, schema=None, max_nodes=10, max_edges=15,
                  complete_only=False) -> Graph:
    """Random conceptual-edge graph: a container, nodes, Edge_ vertices
    with 0..2 link edges each (dangling links unless complete_only)."""
    schema = schema or graph1_schema()
    g = Graph(schema, name="random")
    container = g.create_vertex("Graph_")
    nodes = []
    for _ in range(rng.randint(0, max_nodes)):
        v = g.create_vertex("Node")
        g.create_edge("Graph_ContainsNodes", container, v)
        nodes.append(v)
    for v in nodes:
        v.set_attr("name", f"n{rng.randint(1, len(nodes))}")
    if nodes:
        for _ in range(rng.randint(0, max_edges)):
            ev = g.create_vertex("Edge_")
            g.create_edge("Graph_ContainsEdges", container, ev)
            if complete_only or rng.random() >= 0.15:
                g.create_edge("Edge_LinksToSrc", ev, rng.choice(nodes))
            if complete_only or rng.random() >= 0.15:
                g.create_edge("Edge_LinksToTrg", ev, rng.choice(nodes))
    return g


def random_dag(rng, schema=None, max_nodes=8, edge_probability=0.35) -> Graph:
    """Random DAG over the real-edge schema (edges only go forward)."""
    schema = schema or graph2_schema()
    g = Graph(schema, name="dag")
    container = g.create_vertex("Graph_")
    nodes = []
    for i in range(rng.randint(2, max_nodes)):
        v = g.create_vertex("Node")
        v.set_attr("text", f"t{i + 1}")
        g.create_edge("Graph_ContainsNodes", container, v)
        nodes.append(v)
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if rng.random() < edge_probability:
                g.create_edge("NodeLinksToLinksTo", nodes[i], nodes[j])
    return g
