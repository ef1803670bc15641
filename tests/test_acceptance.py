"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Random fixtures use a fixed seed and are regenerated per criterion so the
in-place criteria cannot disturb the read-only ones.
"""

import random
import sys
import time
from contextlib import contextmanager

import pytest

from gretlite import corpus
from gretlite.cli import main
from gretlite.formats import load_graph, load_schema, save_graph
from gretlite.model import Graph
from gretlite.query.evaluator import evaluate
from gretlite.query.parser import parse_query
from gretlite.report import render_result
from gretlite.transform.engine import execute
from gretlite.transform.parser import parse_script
from gretlite.values import OrderedSet

import genutil
import oracles

SEED = 20110717


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({description}): FAIL",
              file=sys.__stdout__, flush=True)
        raise
    print(f"criterion {number:2d} ({description}): PASS",
          file=sys.__stdout__, flush=True)


def make_fixtures(count=200, complete_only=False, seed=SEED):
    rng = random.Random(seed)
    schema = genutil.graph1_schema()
    return [
        genutil.random_sample(rng, schema, complete_only=complete_only)
        for _ in range(count)
    ]


def corpus_schema(name):
    return load_schema(corpus.read_text(name))


def corpus_script(name):
    return parse_script(corpus.read_text(name))


def corpus_query(name):
    return parse_query(corpus.read_text(name))


def run_task2():
    return execute(corpus_script("02-create-extended-greeting.grt"),
                   target_schema=corpus_schema("hello_ext.gls"))


def test_criterion_01_constant_greeting():
    with criterion(1, "task 1 builds the single greeting"):
        started = time.perf_counter()
        run = execute(corpus_script("01-create-greeting.grt"),
                      target_schema=corpus_schema("hello.gls"))
        vertices = run.graph.vertices
        assert len(vertices) == 1
        assert vertices[0].class_name == "Greeting"
        assert vertices[0].attr("text") == "Hello World"
        assert run.graph.edges == []
        assert time.perf_counter() - started < 1.0


def test_criterion_02_template_subgraph_and_trace():
    with criterion(2, "task 2 template output and archetypes"):
        from gretlite.report import trace_report
        run = run_task2()
        assert sorted(v.class_name for v in run.graph.vertices) == \
            ["Greeting", "GreetingMessage", "Person"]
        assert sorted(e.class_name for e in run.graph.edges) == \
            ["GreetingContainsGreetingMessage", "GreetingContainsPerson"]
        report = trace_report(run.trace)
        lines = report.strip().splitlines()
        assert len(lines) == 3
        for cls in ("Greeting", "GreetingMessage", "Person"):
            assert any(line.startswith(f"{cls}: 1 -> ") for line in lines)


def test_criterion_03_greeting_to_text():
    with criterion(3, "task 3 query result string"):
        graph = run_task2().graph
        value = evaluate(corpus_query("03-greeting-to-text.grq"), graph)
        assert value == OrderedSet(["Hello TTC Participants!"])


def _query_checks(graph, asts):
    t4 = evaluate(asts[4], graph)
    assert t4 == oracles.count_nodes(graph)

    t5 = evaluate(asts[5], graph)
    loops = oracles.looping_edges(graph)
    assert t5[0] == len(loops)
    assert {id(v) for v in t5[1]} == {id(v) for v in loops}

    t6 = evaluate(asts[6], graph)
    names = oracles.isolated_node_names(graph)
    assert t6[0] == len(names)
    assert set(t6[1]) == names

    t7 = evaluate(asts[7], graph)
    circles = {tuple(map(id, triple)) for triple in oracles.three_circles(graph)}
    assert t7[0] == len(circles)
    assert {tuple(map(id, triple)) for triple in t7[1]} == circles

    t8 = evaluate(asts[8], graph)
    dangling = oracles.dangling_edges(graph)
    assert t8[0] == len(dangling)
    assert {id(v) for v in t8[1]} == {id(v) for v in dangling}


def test_criterion_04_counting_queries_vs_oracles():
    with criterion(4, "tasks 4-8 equal oracles on 200 random graphs"):
        asts = {
            n: corpus_query(name) for n, name in (
                (4, "04-count-nodes.grq"), (5, "05-count-loops.grq"),
                (6, "06-isolated-nodes.grq"), (7, "07-circle-of-three.grq"),
                (8, "08-dangling-edges.grq"),
            )
        }
        started = time.perf_counter()
        for graph in make_fixtures():
            _query_checks(graph, asts)
        assert time.perf_counter() - started < 10.0


def test_criterion_05_three_cycle_matches():
    with criterion(5, "task 7 match set on a directed 3-cycle"):
        schema = genutil.graph1_schema()
        g = Graph(schema)
        nodes = [g.create_vertex("Node") for _ in range(3)]
        for i, v in enumerate(nodes):
            v.set_attr("name", f"n{i + 1}")
        for a, b in ((0, 1), (1, 2), (2, 0)):
            ev = g.create_vertex("Edge_")
            g.create_edge("Edge_LinksToSrc", ev, nodes[a])
            g.create_edge("Edge_LinksToTrg", ev, nodes[b])
        expected = {
            tuple(map(id, triple)) for triple in oracles.three_circles(g)
        }
        assert len(expected) == 3  # the three rotations of one cycle
        value = evaluate(corpus_query("07-circle-of-three.grq"), g)
        assert {tuple(map(id, t)) for t in value[1]} == expected
        assert value[0] == 3


def test_criterion_06_reversal_postcondition_and_involution():
    with criterion(6, "task 9 swaps every edge and is an involution"):
        reverse = corpus_script("09-reverse-edges.grt")
        for graph in make_fixtures():
            before = {
                id(ev): ([id(x) for x in src], [id(x) for x in trg])
                for ev, src, trg in oracles.conceptual_edges(graph)
            }
            vertex_ids = [v.id for v in graph.vertices]
            shape = oracles.canonical_form(graph)
            execute(reverse, graph, in_place=True)
            after = {
                id(ev): ([id(x) for x in src], [id(x) for x in trg])
                for ev, src, trg in oracles.conceptual_edges(graph)
            }
            assert set(before) == set(after)
            for key, (src, trg) in before.items():
                if len(src) == 1 and len(trg) == 1:
                    assert after[key] == (trg, src)
                else:
                    assert after[key] == (src, trg)
            execute(reverse, graph, in_place=True)
            assert [v.id for v in graph.vertices] == vertex_ids
            assert oracles.canonical_form(graph) == shape


def test_criterion_07_migration_conservation():
    with criterion(7, "task 10 conserves counts and maps names to text"):
        migrate = corpus_script("10-simple-migration.grt")
        target_schema = corpus_schema("graph1evo.gls")
        graphs = [load_graph(corpus.read_text("sample1.glg"),
                             corpus_schema("graph1.gls"))]
        graphs += make_fixtures(count=30, seed=SEED + 7)
        for source in graphs:
            run = execute(migrate, source, target_schema=target_schema)
            for cls in ("Graph_", "Node", "Edge_", "Edge_LinksToSrc",
                        "Edge_LinksToTrg"):
                source_count = len(oracles.vertices_of(source, cls)) + \
                    len(oracles.edges_of(source, cls))
                target_count = len(oracles.vertices_of(run.graph, cls)) + \
                    len(oracles.edges_of(run.graph, cls))
                assert source_count == target_count
            for v in source.vertices:
                image = run.trace.image("GraphComponent", v)
                expected = v.attr("name") if v.class_name == "Node" else ""
                assert image.attr("text") == expected
            gcs = len(oracles.edges_of(run.graph, "Graph_ContainsGcs"))
            assert gcs == len(oracles.edges_of(source, "Graph_ContainsNodes")) \
                + len(oracles.edges_of(source, "Graph_ContainsEdges"))


def test_criterion_08_topology_change():
    with criterion(8, "task 11 turns edge vertices into real edges"):
        change = corpus_script("11-change-topology.grt")
        target_schema = corpus_schema("graph2.gls")
        graphs = [load_graph(corpus.read_text("sample2.glg"),
                             corpus_schema("graph1.gls"))]
        graphs += make_fixtures(count=30, complete_only=True, seed=SEED + 8)
        for source in graphs:
            run = execute(change, source, target_schema=target_schema)
            new_edges = oracles.edges_of(run.graph, "NodeLinksToLinksTo")
            edge_vertices = oracles.vertices_of(source, "Edge_")
            assert len(new_edges) == len(edge_vertices)
            for ev, src, trg in oracles.conceptual_edges(source):
                image = run.trace.image("NodeLinksToLinksTo", ev)
                assert image.start is run.trace.image("Node", src[0])
                assert image.end is run.trace.image("Node", trg[0])


def test_criterion_09_deletions_match_reachability_oracle():
    with criterion(9, "tasks 12-13 delete exactly the oracle sets"):
        t12 = corpus_script("12-delete-node-n1.grt")
        t13 = corpus_script("13-delete-node-n1-and-edges.grt")
        for script_obj, oracle in ((t12, oracles.expected_delete_set_single),
                                   (t13, oracles.expected_delete_set_with_edges)):
            graphs = [load_graph(corpus.read_text("sample1.glg"),
                                 corpus_schema("graph1.gls"))]
            graphs += make_fixtures(count=50, seed=SEED + 9)
            for graph in graphs:
                expected = oracle(graph, "n1")
                before = oracles.live_ids(graph)
                execute(script_obj, graph, in_place=True)
                assert before - oracles.live_ids(graph) == expected
                oracles.assert_no_dangling(graph)


def test_criterion_10_transitive_edges_not_closure():
    with criterion(10, "task 14 adds compositions but not the closure"):
        insert = corpus_script("14-insert-transitive-edges.grt")
        chain = load_graph(corpus.read_text("chain4.glg"),
                           corpus_schema("graph2.gls"))
        nodes = {v.attr("text"): v for v in chain.vertices
                 if v.class_name == "Node"}
        execute(insert, chain, in_place=True)
        pairs = {
            (e.start.attr("text"), e.end.attr("text"))
            for e in oracles.edges_of(chain, "NodeLinksToLinksTo")
        }
        assert ("a", "c") in pairs and ("b", "d") in pairs
        assert ("a", "d") not in pairs
        rng = random.Random(SEED + 10)
        schema = genutil.graph2_schema()
        for _ in range(50):
            dag = genutil.random_dag(rng, schema)
            original = oracles.edge_pair_set(dag, "NodeLinksToLinksTo")
            compositions = oracles.one_step_compositions(
                dag, "NodeLinksToLinksTo")
            execute(insert, dag, in_place=True)
            result = oracles.edge_pair_set(dag, "NodeLinksToLinksTo")
            assert result == original | compositions


def test_criterion_11_property_suites(instantiations):
    with criterion(11, "traceability, isolation, disjointness, round trips"):
        # out-place isolation + trace bijectivity
        migrate = corpus_script("10-simple-migration.grt")
        evo = corpus_schema("graph1evo.gls")
        for source in make_fixtures(count=25, seed=SEED + 11):
            before = save_graph(source)
            run = execute(migrate, source, target_schema=evo)
            assert save_graph(source) == before
            for cls in run.trace.classes():
                entries = run.trace.entries(cls)
                assert len({id(el) for _, el in entries}) == len(entries)
                arch = run.trace.arch_value(cls)
                for archetype, el in entries:
                    assert oracles.values_equal(arch.get(el), archetype)
        # applied-match disjointness
        reverse = corpus_script("09-reverse-edges.grt")
        for graph in make_fixtures(count=25, seed=SEED + 12):
            instantiations.clear()
            run = execute(reverse, graph, in_place=True)
            assert len(instantiations) == run.match_invocations[0].applied
            seen = set()
            for elements in instantiations:
                assert seen.isdisjoint(elements)
                seen.update(elements)
        # comprehension vs naive evaluator on graphs with <= 8 vertices
        texts = [
            "from n1, n2, n3 : V{Node} "
            "with n1 <> n2 and n1 <> n3 and n2 <> n3 "
            " and contains(n1 <--{Edge_LinksToSrc} -->{Edge_LinksToTrg}, n2) "
            " and contains(n2 <--{Edge_LinksToSrc} -->{Edge_LinksToTrg}, n3) "
            " and contains(n3 <--{Edge_LinksToSrc} -->{Edge_LinksToTrg}, n1) "
            "reportSet tup(n1, n2, n3) end",
            "from e : V{Edge_}, n : e -->{Edge_LinksToSrc} "
            "reportSet tup(e, n) end",
            "from n : V{Node} reportMap n -> n.name end",
        ]
        comp_asts = [parse_query(t) for t in texts]
        rng = random.Random(SEED + 13)
        schema = genutil.graph1_schema()
        for _ in range(30):
            small = genutil.random_sample(rng, schema, max_nodes=4,
                                          max_edges=3)
            assert len(small.vertices) <= 8
            for ast in comp_asts:
                assert oracles.values_equal(
                    evaluate(ast, small),
                    oracles.naive_comprehension(ast, small))
        # save/load round-trip idempotence
        schema1 = genutil.graph1_schema()
        for graph in make_fixtures(count=25, seed=SEED + 14):
            text = save_graph(graph)
            assert save_graph(load_graph(text, schema1)) == text
        # full corpus determinism
        first = corpus.run_corpus()
        second = corpus.run_corpus()
        assert all(r.passed for r in first)
        assert [r.outputs for r in first] == [r.outputs for r in second]


def test_criterion_12_corpus_cli(capsys):
    with criterion(12, "corpus command reports 14/14 under 30s"):
        started = time.perf_counter()
        code = main(["corpus"])
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out
        assert code == 0
        assert "14/14 tasks passed" in out
        assert out.count(": PASS") == 14
        assert elapsed < 30.0


def test_corpus_goldens_come_from_oracles():
    """The frozen query goldens must be reproducible from the oracles."""
    schema = corpus_schema("graph1.gls")
    graph = load_graph(corpus.read_text("sample1.glg"), schema)

    assert corpus.read_text("golden/04-out.txt") == \
        render_result(oracles.count_nodes(graph))

    loops = oracles.looping_edges(graph)
    assert corpus.read_text("golden/05-out.txt") == \
        render_result((len(loops), OrderedSet(loops)))

    names = oracles.isolated_node_names(graph)
    assert corpus.read_text("golden/06-out.txt") == \
        render_result((len(names), OrderedSet(sorted(names))))

    circles = oracles.three_circles(graph)
    assert corpus.read_text("golden/07-out.txt") == \
        render_result((len(circles), OrderedSet(circles)))

    dangling = oracles.dangling_edges(graph)
    assert corpus.read_text("golden/08-out.txt") == \
        render_result((len(dangling), OrderedSet(dangling)))
