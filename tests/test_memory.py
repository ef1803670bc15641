"""What a loaded graph and a migration's trace cost in memory, on the
2000-node sample of the benchmark's bulk workload (`perfbench/gen.py`):
bytes per element, the stores and strings elements share with their
schema, and outputs that stay the same while the layout underneath them
changes."""

import hashlib
import sys
import tracemalloc
from pathlib import Path

import pytest

from gretlite import corpus
from gretlite.errors import GraphError, SchemaError
from gretlite.formats import load_graph, load_schema, save_graph
from gretlite.model import Graph
from gretlite.report import trace_report
from gretlite.transform.engine import execute
from gretlite.transform.parser import parse_script

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402


@pytest.fixture(scope="module")
def bulk_text():
    return gen.write_sample(gen.sample(2011, 2000, 20, 0.05), "bulk")


@pytest.fixture
def bulk(bulk_text, graph1_schema):
    return load_graph(bulk_text, graph1_schema)


def _elements(graph: Graph):
    return graph.vertices + graph.edges


def test_loaded_graph_costs_at_most_320_bytes_per_element(bulk_text,
                                                          graph1_schema):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = load_graph(bulk_text, graph1_schema)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    elements = len(graph._vertices) + len(graph._edges)
    assert elements == 19_801
    assert used / elements <= 320


def test_attribute_less_elements_share_one_empty_store(bulk, graph1_schema):
    by_class: dict[str, list] = {}
    for el in _elements(bulk):
        by_class.setdefault(el.class_name, []).append(el)
    for class_name, elements in by_class.items():
        stores = {id(el._attrs) for el in elements}
        if graph1_schema._flat[class_name]:
            assert len(stores) == len(elements), class_name
        else:
            assert len(stores) == 1 and not elements[0]._attrs, class_name
    container, edge_vertex = by_class["Graph_"][0], by_class["Edge_"][0]
    with pytest.raises(SchemaError, match="declares no attribute 'name'"):
        edge_vertex.set_attr("name", "x")
    bulk.delete_vertex(edge_vertex)
    with pytest.raises(GraphError, match="was deleted"):
        edge_vertex.set_attr("name", "x")
    assert edge_vertex._attrs == {} and container._attrs == {}
    assert [el._attrs for el in by_class["Edge_"][1:]] == \
        [{}] * (len(by_class["Edge_"]) - 1)


def test_class_names_are_the_schemas_own_strings(bulk, graph1_schema):
    for el in _elements(bulk):
        assert el.class_name is graph1_schema.element_class(el.class_name).name
    node = bulk.create_vertex("".join(["No", "de"]))
    assert node.class_name is graph1_schema.element_class("Node").name


def test_bulk_migration_outputs_are_unchanged(bulk):
    """`save_graph` and `trace_report` of task 10 on the sample, pinned by
    digest: the corpus goldens cover only small graphs."""
    result = execute(parse_script(corpus.read_text("10-simple-migration.grt")),
                     bulk, target_schema=load_schema(
                         corpus.read_text("graph1evo.gls")))
    digests = [hashlib.sha256(text.encode()).hexdigest()
               for text in (save_graph(result.graph),
                            trace_report(result.trace))]
    assert digests == [
        "db95213a3926306c73f809e2aff4f52b1171935dca26271c02ddda12b7771082",
        "fec2a96853e6b4ed75a1efe21bf8594268ede893106f3db4d7627c7706f35985"]
