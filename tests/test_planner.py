"""Comprehension plans: placement, joins, invariants, and the results they
must not change (checked against the nested-loop oracle)."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gretlite import corpus
from gretlite.errors import QueryError
from gretlite.model import Graph, Schema
from gretlite.query.evaluator import evaluate
from gretlite.query.parser import parse_query
from gretlite.query import evaluator as ev
from gretlite.query import nodes as n
from gretlite.query import planner
from gretlite.transform.parser import parse_script
from gretlite.values import UNDEFINED, OrderedSet, ValueMap, render_value

import genutil
import oracles
from genutil import run_query


def rows(value):
    """The rows of a result, rendered, in result order: this pins the
    order and tells 1 from 1.0, which structural equality does not."""
    if isinstance(value, ValueMap):
        return [(render_value(k), render_value(v)) for k, v in value.items()]
    return [render_value(row) for row in value]


# -- differential test against the nested-loop oracle ----------------------

_VERTEX_DOMAINS = ("V{Node}", "V{Edge_}", "V",
                   "flatten(list(V{Node}, V{Edge_}, V{Node}))")
_EDGE_DOMAINS = ("E{Edge_LinksToSrc}", "E{Edge_LinksToTrg}", "E")
_VALUES = ("1", "1.0", "true", "false", "undefined", '"a"', "2", "0")


@st.composite
def comprehensions(draw):
    """A comprehension over total conjuncts: none raises on any binding."""
    kinds = {}  # declared name -> "vertex" | "edge" | "value"
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 2))
        if len(kinds) + size > 3:
            break
        kind = draw(st.sampled_from(("vertex", "vertex", "edge", "value")))
        vertices = [v for v, k in kinds.items() if k == "vertex"]
        if kind == "vertex":
            options = list(_VERTEX_DOMAINS)
            # domains that depend on earlier variables
            options += [f"{v} <->" for v in vertices]
            options += [f"{v} -->{{Edge_LinksToSrc}}" for v in vertices]
        elif kind == "edge":
            options = list(_EDGE_DOMAINS)
            options += [f"from z : E with startVertex(z) = {v} report z end"
                        for v in vertices]
        else:
            members = draw(st.lists(st.sampled_from(_VALUES), min_size=1,
                                    max_size=6))
            options = [f"list({', '.join(members)})"]
        domain = draw(st.sampled_from(options))
        names = [f"x{len(kinds) + i}" for i in range(size)]
        for name in names:
            kinds[name] = kind
        groups.append(f"{', '.join(names)} : {domain}")

    names = list(kinds)
    vertices = [v for v in names if kinds[v] == "vertex"]
    edges = [e for e in names if kinds[e] == "edge"]
    any_var = st.sampled_from(names)
    templates = [
        st.builds("{} = {}".format, any_var, any_var),
        st.builds("{} <> {}".format, any_var, any_var),
        st.sampled_from(("true", "1 = 1.0", "true = 1", "undefined = 1")),
    ]
    if vertices:
        vertex = st.sampled_from(vertices)
        path = st.sampled_from(("<->", "-->{Edge_LinksToSrc}", "<--",
                                "<-- -->{Edge_LinksToTrg}"))
        templates += [
            st.builds("contains({} {}, {})".format, vertex, path, any_var),
            st.builds("not isEmpty(from z : V with contains({} <->, z) "
                      "report z end)".format, vertex),
            # a join whose domain depends on an outer variable
            st.builds("isEmpty(from a : {0} <->, b : {0} <-> with a = b "
                      "and b <> {1} report b end)".format, vertex, any_var),
        ]
    if edges:
        edge = st.sampled_from(edges)
        end = st.sampled_from(("startVertex", "endVertex"))
        templates += [
            st.builds("{}({}) = {}".format, end, edge, any_var),
            st.builds("{} = {}({})".format, any_var, end, edge),
            st.builds("endVertex({}) = startVertex({})".format, edge, edge),
            st.builds("isEmpty(from z : E with startVertex(z) = "
                      "startVertex({}) and z <> {} report z end)".format,
                      edge, edge),
        ]
    templates.append(st.builds(
        "contains(from z : V{{Node}} with z <> {} report z end, {})".format,
        any_var, any_var))
    conjuncts = draw(st.lists(st.one_of(templates), max_size=5))
    conjuncts = draw(st.permutations(conjuncts))
    with_clause = f" with {' and '.join(conjuncts)}" if conjuncts else ""
    row = f"tup({', '.join(names)})"
    report = draw(st.sampled_from((
        f"report {row}", f"reportSet {row}", f"reportMap {row} -> {names[0]}",
        f"report {names[-1]}, {names[0]}")))
    return f"from {', '.join(groups)}{with_clause} {report} end"


@settings(max_examples=150, deadline=None)
@given(comprehensions(), st.integers(0, 2**16))
# join keys and probes that are undefined, 1 and 1.0, true and 1
@example("from x0 : list(undefined, 1, true, 0), "
         "x1 : list(1.0, undefined, 1, true, 1, false) "
         "with x0 = x1 report tup(x0, x1) end", 0)
# a domain that depends on an outer variable: `b = a` stays a check
@example("from x0 : V{Node} report tup(x0, from a : x0 <--, b : x0 <-- "
         "with b = a report b end) end", 0)
@example("from x0 : V{Node}, x1 : E{Edge_LinksToTrg}, x2 : V{Node} "
         "with x2 = endVertex(x1) and startVertex(x1) <> x0 "
         "report tup(x0, x1, x2) end", 0)
def test_plans_match_nested_loops(text, seed):
    graph = genutil.random_sample(random.Random(seed), max_nodes=3,
                                  max_edges=3)
    ast = parse_query(text)
    expected = oracles.naive_comprehension(ast, graph)
    actual = evaluate(ast, graph)
    assert type(actual) is type(expected)
    assert rows(actual) == rows(expected)


def test_nested_comprehension_reads_outer_variables(sample1):
    text = ("from n : V{Node}, e : from x : E{Edge_LinksToSrc} "
            "with endVertex(x) = n report x end "
            "with isEmpty(from y : E{Edge_LinksToTrg} "
            "with startVertex(y) = startVertex(e) and endVertex(y) = n "
            "report y end) reportSet tup(n, e) end")
    ast = parse_query(text)
    assert rows(evaluate(ast, sample1)) == \
        rows(oracles.naive_comprehension(ast, sample1))


# -- memos, semi-joins and shared closed subexpressions ---------------------

_MEMBERS = ("1", "1.0", "0", "0.0", "-0.0", "true", "undefined", '"a"',
            '"1"')
_TEXTS = ('"1"', '"1.0"', '"0.0"', '"-0.0"', '"true"', '"v2"', '"a"')


@st.composite
def memoised_queries(draw):
    """A 2-3 level comprehension over total conjuncts that give memos,
    joins, semi-joins and shared closed subexpressions work to do, over
    domains that may be empty or hold duplicates and `undefined`; half of
    them as `tup(count(C), C)`."""
    names, vertices, groups = [], [], []
    for k in range(draw(st.integers(2, 3))):
        if draw(st.booleans()):
            options = ["V{Node}", "V", "list()",
                       "flatten(list(V{Node}, V{Node}))"]
            options += [f"{v} <--{{Edge_LinksToSrc}} -->{{Edge_LinksToTrg}}"
                        for v in vertices]
            vertices.append(f"x{k}")
        else:
            members = draw(st.lists(st.sampled_from(_MEMBERS), max_size=5))
            # values that `value_key` unifies but `++` tells apart
            options = [f"list({', '.join(members)})",
                       "list(1, 1.0, true, -0.0, 0.0, 0)"]
        names.append(f"x{k}")
        groups.append(f"x{k} : {draw(st.sampled_from(options))}")
    x = st.sampled_from(names)
    members = st.lists(st.sampled_from(_MEMBERS), max_size=4).map(", ".join)
    templates = [
        st.builds("contains(list({}), {})".format, members, x),
        st.builds("contains(set({}), {})".format, members, x),
        st.builds("contains(V{{Node}}, {})".format, x),
        st.builds("{} = {}".format, x, x),
        st.builds('({} ++ "") = ({} ++ "")'.format, x, x),
        st.builds('from z : list({}) report z ++ "" end = '
                  'from z : list({}) report z ++ "" end'.format, x, x),
        st.builds('(({} ++ "") = {} or {} = {})'.format,
                  x, st.sampled_from(_TEXTS), x, x),
        st.just("count(V{Node}) >= 0"),
    ]
    if vertices:
        v = st.sampled_from(vertices)
        templates += [
            st.builds("contains({} <--{{Edge_LinksToSrc}} "
                      "-->{{Edge_LinksToTrg}}, {})".format, v, x),
            st.builds("not contains({} <->, {})".format, v, x),
            st.builds("count({} <->) <= count({} <->)".format, v, v),
            st.builds("isEmpty(from z : V{{Node}} with contains({} <->, z) "
                      "and z <> {} report z end)".format, v, x),
        ]
    conjuncts = draw(st.lists(st.one_of(templates), max_size=5))
    with_clause = f" with {' and '.join(conjuncts)}" if conjuncts else ""
    row = f"tup({', '.join(names)}, count(V{{Node}}))"
    report = draw(st.sampled_from((f"report {row}", f"reportSet {row}",
                                   f"reportMap {row} -> {names[0]}")))
    query = f"from {', '.join(groups)}{with_clause} {report} end"
    return f"tup(count({query}), {query})" if draw(st.booleans()) else query


@settings(max_examples=100, deadline=None)
@given(memoised_queries(), st.integers(0, 2**16))
# a semi-join on the path of an earlier variable, memoised per variable
@example("from x0 : V{Node}, x1 : V{Node}, x2 : V{Node} "
         "with contains(x0 <--{Edge_LinksToSrc} -->{Edge_LinksToTrg}, x1) "
         "and contains(x1 <--{Edge_LinksToSrc} -->{Edge_LinksToTrg}, x2) "
         "report tup(x0, x1, x2) end", 3)
# a semi-join over a list with duplicates and undefined, and an empty one
@example("from x0 : list(1, undefined, 1.0, true), x1 : list(undefined, 1, 1) "
         "with contains(list(x0, 0), x1) and contains(list(), x0) "
         "report tup(x0, x1) end", 0)
def test_memos_and_semi_joins_match_nested_loops(text, seed):
    graph = genutil.random_sample(random.Random(seed), max_nodes=4,
                                  max_edges=5)
    ast = parse_query(text)
    expected = oracles.naive_eval(ast, graph, {})
    actual = evaluate(ast, graph)
    assert type(actual) is type(expected)
    if isinstance(ast, n.Call):  # tup(count(C), C)
        assert actual[0] == expected[0]
        actual, expected = actual[1], expected[1]
    assert rows(actual) == rows(expected)


_TEXT_OF_X = 'from z : list(x) report z ++ "" end'


@pytest.mark.parametrize("text, expected", [
    ('from x : list(1, 1.0), y : list(0) with (x ++ "") = "1.0" or y = 1 '
     'reportList x end', ["1.0"]),
    # the comprehension is memoised per x, one level deeper than x: a memo
    # keyed on `value_key` would give 1.0 what it computed for 1
    (f'from x : list(1, 1.0), y : list(0) with {_TEXT_OF_X} = list("1.0") '
     'or y = 1 reportList x end', ["1.0"]),
    (f'from x : list(0.0, -0.0), y : list(0) with {_TEXT_OF_X} = '
     'list("-0.0") or y = 1 reportList x end', ["-0.0"]),
    (f'from x : list(1, true), y : list(0) with {_TEXT_OF_X} = '
     'list("true") or y = 1 reportList x end', ["true"]),
])
def test_memo_keys_tell_apart_what_concatenation_does(empty_graph, text,
                                                      expected):
    ast = parse_query(text)
    assert planner.Planner(ast).plan(ast).levels[1].checks == \
        (ast.condition,)
    assert rows(evaluate(ast, empty_graph)) == expected
    assert rows(oracles.naive_comprehension(ast, empty_graph)) == expected


def test_semi_join_probes_nothing_over_an_empty_domain(empty_graph):
    # the probe is not a collection, but there is nothing to look up
    text = "from x : list(1), y : list() with contains(x, y) report y end"
    assert run_query(text, empty_graph) == []
    with pytest.raises(QueryError, match="contains expects a collection"):
        run_query("from x : list(1), y : list(2) with contains(x, y) "
                  "report y end", empty_graph)


# -- placement and joins of the corpus queries -----------------------------

def _where(plan):
    """{level name: (checks, (join key, join probe) or None)}"""
    return {level.name: (level.checks,
                         level.join and (level.join.key, level.join.probe))
            for level in plan.levels}


def test_placement_of_circle_of_three():
    query = parse_query(corpus.read_text("07-circle-of-three.grq"))
    comprehension = query.args[1]
    plan = planner.Planner(comprehension).plan(comprehension)
    c = planner.conjuncts(comprehension.condition)
    assert len(c) == 6
    # n1 <> n2, n1 <> n3, n2 <> n3, contains(n1..n2), (n2..n3), (n3..n1):
    # n2 and n3 are semi-joins on the paths of n1 and n2; contains(n3..n1)
    # tests n1, not its level's variable, so it stays a check
    assert plan.pre_checks == ()
    assert _where(plan) == {
        "n1": ((), None),
        "n2": ((c[0],), (c[3].args[1], c[3].args[0])),
        "n3": ((c[1], c[2], c[5]), (c[4].args[1], c[4].args[0])),
    }
    assert [level.join and level.join.many for level in plan.levels] == \
        [None, True, True]
    assert plan.what == "'and' operand"


def test_placement_of_reverse_edges():
    script = parse_script(corpus.read_text("09-reverse-edges.grt"))
    comprehension = script.ops[0].query
    plan = planner.Planner(comprehension).plan(comprehension)
    c = planner.conjuncts(comprehension.condition)
    # startVertex(s) = e: the index is keyed by the left side
    assert _where(plan) == {"e": ((), None),
                            "s": ((), (c[0].left, c[0].right)),
                            "t": ((), (c[1].left, c[1].right))}


def test_placement_of_transitive_edges():
    script = parse_script(corpus.read_text("14-insert-transitive-edges.grt"))
    comprehension = script.ops[0].body[0].query
    query = planner.Planner(comprehension)
    plan = query.plan(comprehension)
    c = planner.conjuncts(comprehension.condition)
    # endVertex(e1) = startVertex(e2), not contains(.., e1),
    # not contains(.., e2), isEmpty(from e3 ...)
    e1, e2 = plan.levels
    assert e1.join is None
    assert (e2.join.key, e2.join.probe) == (c[0].right, c[0].left)
    # not contains(keySet(arch_...), e1), with keySet(...) evaluated once
    # per call
    for level, conjunct in ((e1, c[1]), (e2, c[2])):
        assert level.checks[0] is conjunct
        invariant, variable = conjunct.operand.args
        assert query.invariant(invariant)
        assert not query.invariant(variable)
    assert len(e1.checks) == 1
    # the inner comprehension joins e3 on startVertex(e1)
    assert len(e2.checks) == 2
    inner = e2.checks[1].args[0]
    assert inner is c[3].args[0]
    inner_c = planner.conjuncts(inner.condition)
    inner_plan = query.plan(inner)
    assert _where(inner_plan) == {
        "e3": ((inner_c[1],), (inner_c[0].left, inner_c[0].right))}
    assert query.invariant(inner_plan.levels[0].domain)


def test_constant_probe_is_a_filter_and_constant_conjunct_runs_first():
    query = parse_query(
        'from n : V{Node} with 1 = 1 and n.name = "n1" report n end')
    plan = planner.Planner(query).plan(query)
    assert len(plan.pre_checks) == 1
    assert plan.levels[0].join is None
    assert len(plan.levels[0].checks) == 1


@pytest.mark.parametrize("inner", [
    # the domain depends on the outer variable
    "from a : x <--, b : x <-- with b = a report b end",
    # the key side mentions the outer variable
    "from a : V{Node}, b : V{Node} with tup(b, x) = tup(a, x) report b end",
])
def test_equalities_an_index_per_call_cannot_serve_are_checks(inner):
    # one index per evaluate call is the only kind there is
    outer = parse_query(f"from x : V{{Node}} report {inner} end")
    levels = planner.Planner(outer).plan(outer.exprs[0]).levels
    assert [level.join for level in levels] == [None, None]
    assert len(levels[1].checks) == 1


# -- work done --------------------------------------------------------------

def test_circle_of_three_binds_fewer_rows_than_the_cross_product(
        sample1, monkeypatch):
    counts = {"bindings": 0, "paths": 0}
    child, eval_path = ev.Bindings.child, ev.eval_path

    def counting_child(self, *args, **kwargs):
        counts["bindings"] += 1
        return child(self, *args, **kwargs)

    def counting_eval_path(*args):
        counts["paths"] += 1
        return eval_path(*args)

    monkeypatch.setattr(ev.Bindings, "child", counting_child)
    monkeypatch.setattr(ev, "eval_path", counting_eval_path)
    query = parse_query(corpus.read_text("07-circle-of-three.grq"))
    result = evaluate(query.args[1], sample1)
    assert len(result) == 3
    nodes = len(oracles.vertices_of(sample1, "Node"))
    cross = nodes + nodes ** 2 + nodes ** 3
    assert counts["bindings"] < cross / 2
    # left to right, the first path is taken for every distinct triple
    assert counts["paths"] < nodes * (nodes - 1) * (nodes - 2)
    # 6 rows of n1, 4 of n2 and 3 of n3; the path of each n1 (n2's
    # semi-join), of each of the 3 distinct n2 (n3's, memoised per n2) and
    # of each n3 row (its check `contains(n3 ..., n1)`)
    assert counts == {"bindings": 6 + 4 + 3, "paths": 6 + 3 + 3}
    # the whole query, tup(count(C), C), evaluates C once
    counts.update(bindings=0, paths=0)
    assert evaluate(query, sample1) == (3, result)
    assert counts == {"bindings": 13, "paths": 12}


def test_sharing_does_not_wait_for_the_first_comprehension(
        sample1, monkeypatch):
    paths = []
    eval_path = ev.eval_path

    def counting_eval_path(*args):
        paths.append(args[1])
        return eval_path(*args)

    monkeypatch.setattr(ev, "eval_path", counting_eval_path)
    # the closed path comes first outside the loop, then in its check
    closed = "count(theElement(V{Graph_}) -->)"
    result = run_query(f"tup({closed}, from x : V{{Node}} with {closed} > 0 "
                       "report x end)", sample1)
    assert result[0] > 0 and len(result[1]) == 6
    assert len(paths) == 1


def test_long_and_deep_queries_still_evaluate(sample1):
    # shapes are computed without recursion, and a memo adds at most a
    # frame per nesting level: a 5000-term chain in a loop, and 24
    # comprehensions, each nested in the domain of the next (50 levels,
    # the parser's limit), each with a shared closed pre-check
    chain = " + ".join(["count(V{Node})"] * 5000)
    assert run_query(f"from n : V{{Node}} reportSet {chain} end",
                     sample1) == OrderedSet([30000])
    deep, expected = "count(V{Node})", 6
    for i in range(24):
        deep = (f"from x{i} : list({deep}) with count(V{{Node}}) > 0 "
                f"report x{i} end")
        expected = [expected]
    assert run_query(deep, sample1) == expected


def test_invariants_are_evaluated_once_per_call(sample1, monkeypatch):
    calls = []
    element_set = ev._element_set

    def counting(graph, node):
        calls.append(node)
        return element_set(graph, node)

    monkeypatch.setattr(ev, "_element_set", counting)
    run_query("from a : V{Node}, b : V{Node} with count(V{Edge_}) > 0 "
              "report tup(a, b) end", sample1)
    # V{Edge_}, and V{Node} once for both domains, which are structurally
    # equal; nested loops took 1 + 6 + 1
    assert len(calls) == 2
    run_query("from a : V{Node} report a end", sample1)
    assert len(calls) == 3


def test_class_sets_follow_the_schema():
    # class specs resolve once per evaluate call, so a schema that
    # defines another class between calls is seen by the next one
    ast = parse_query("tup(count(V{A}), count(from x : V{A!} report x end))")
    first = Schema("s")
    first.define_vertex_class("A")
    graph = Graph(first)
    graph.create_vertex("A")
    assert evaluate(ast, graph) == (1, 1)
    first.define_vertex_class("B", supertypes=["A"])
    graph.create_vertex("B")
    assert evaluate(ast, graph) == (2, 1)
    second = Schema("t")
    second.define_vertex_class("Z")
    second.define_vertex_class("A", supertypes=["Z"])
    assert evaluate(ast, Graph(second)) == (0, 0)


def test_edge_class_sets_follow_the_schema():
    ast = parse_query("from v : V report tup(degree{L}(v), count(v -->{L}), "
                      "count(v -->{L!})) end")
    schema = Schema("s")
    schema.define_vertex_class("A")
    schema.define_edge_class("L", "A", "A")
    graph = Graph(schema)
    a, b = graph.create_vertex("A"), graph.create_vertex("A")
    graph.create_edge("L", a, b)
    assert evaluate(ast, graph) == [(1, 1, 1), (1, 0, 0)]
    schema.define_edge_class("M", "A", "A", supertypes=["L"])
    graph.create_edge("M", b, a)
    assert evaluate(ast, graph) == [(2, 1, 1), (2, 1, 0)]


# -- errors -----------------------------------------------------------------

def test_hoisted_conjunct_may_raise_where_short_circuit_did_not(empty_graph):
    # `1 / x = 1` mentions only x, so it runs at x's level, before the
    # false `y = 0`: left to right would have skipped it
    with pytest.raises(QueryError, match="division by zero"):
        run_query("from x : list(0, 1), y : list(1) "
                  "with y = 0 and 1 / x = 1 report x end", empty_graph)


def test_constant_false_conjunct_skips_a_raising_one(empty_graph):
    # `false` runs before the loops; left to right `1 / x` raised first
    assert run_query("from x : list(0) with 1 / x = 1 and false "
                     "report x end", empty_graph) == []


def test_join_key_errors_surface_when_the_index_is_built(empty_graph):
    # the index over y evaluates startVertex(y) for every member, also
    # for those `y = 3` would have dropped before left to right
    with pytest.raises(QueryError, match="startVertex expects an edge"):
        run_query("from x : list(1), y : list(1, 2) "
                  "with y = 3 and startVertex(y) = x report y end",
                  empty_graph)


@pytest.mark.parametrize("text, expected", [
    ("false ? mystery(1) : 2", 2),
    ("from x : list() report count(x, x) end", []),
    ("false and count{Node}(set()) = 1", False),
    ("from v : V{Node} report degree{Nope}(v) end", []),
    ("from v : V{Node} report v -->{Nope} end", []),
    ("undefined -->{Nope}", UNDEFINED),
])
def test_errors_are_raised_when_evaluated_not_when_compiled(
        empty_graph, text, expected):
    # an unknown function, a wrong arity, a class qualifier on a function
    # that takes none, and an unknown class, each where it never runs
    assert run_query(text, empty_graph) == expected


def test_non_boolean_conjuncts_name_the_clause(empty_graph):
    with pytest.raises(QueryError, match="with-clause must be a boolean"):
        run_query("from x : list(1) with x report x end", empty_graph)
    with pytest.raises(QueryError, match="'and' operand must be a boolean"):
        run_query("from x : list(1) with true and x report x end",
                  empty_graph)


def test_undefined_conjunct_drops_the_row(empty_graph):
    assert run_query("from x : list(1, 2) with x = 1 and undefined "
                     "report x end", empty_graph) == []
    assert run_query("from x : list(1, 2) with x = 1 or undefined "
                     "report x end", empty_graph) == [1]


@pytest.fixture
def empty_graph(graph1_schema):
    return Graph(graph1_schema)
