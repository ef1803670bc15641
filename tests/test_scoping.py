"""Variable scoping: queries whose names are declared again, in the same
`from` or in a nested comprehension, whose inner domains, joins and
semi-joins read outer variables, and whose templates read `$`, checked
against the nested-loop oracle, which binds names in a dict per row."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gretlite.query.evaluator import evaluate
from gretlite.query.parser import parse_query
from gretlite.transform.engine import execute
from gretlite.transform.parser import parse_script
from gretlite.values import to_text

import genutil
import oracles
from test_planner import rows

# two names, so that declarations shadow each other often
_NAMES = ("x", "y")


def _of(scope, kind):
    return [term for term, k in scope.items() if k == kind]


@st.composite
def _comprehension(draw, scope, depth):
    """A comprehension over `scope` (term -> "vertex" or "edge"); every
    subexpression is total, as the oracle needs."""
    local = dict(scope)
    groups = []
    for _ in range(draw(st.integers(1, 2 if depth == 0 else 1))):
        kind = draw(st.sampled_from(("vertex", "edge")))
        names = draw(st.lists(st.sampled_from(_NAMES), min_size=1,
                              max_size=2))
        groups.append(f"{', '.join(names)} : "
                      f"{draw(_domain(kind, local, depth))}")
        local.update(dict.fromkeys(names, kind))
    conjuncts = draw(st.lists(_conjunct(local, depth), max_size=3))
    with_clause = f" with {' and '.join(conjuncts)}" if conjuncts else ""
    terms = draw(st.lists(_term(local, depth), min_size=1, max_size=3))
    report = draw(st.sampled_from(("report", "reportSet")))
    return (f"from {', '.join(groups)}{with_clause} "
            f"{report} tup({', '.join(terms)}) end")


def _domain(kind, scope, depth):
    vertices, name = _of(scope, "vertex"), st.sampled_from(_NAMES)
    if kind == "edge":
        options = [st.sampled_from(("E{Edge_LinksToSrc}",
                                    "E{Edge_LinksToTrg}"))]
        if vertices and depth < 2:
            # joined on an outer vertex, unless the name shadows it
            options.append(st.builds(
                "from {0} : E{{Edge_LinksToSrc}} with startVertex({0}) = {1} "
                "report {0} end".format, name, st.sampled_from(vertices)))
        return st.one_of(options)
    options = [st.sampled_from(("V{Node}", "V{Edge_}"))]
    if vertices:
        vertex = st.sampled_from(vertices)
        options += [st.builds("{} <->".format, vertex),
                    st.builds("{} <--{{Edge_LinksToSrc}}".format, vertex)]
    if depth < 2:
        options.append(name.flatmap(lambda n: _conjunct(
            {**scope, n: "vertex"}, depth + 1).map(
                lambda c: f"from {n} : V{{Node}} with {c} report {n} end")))
    return st.one_of(options)


def _conjunct(scope, depth):
    term = st.sampled_from(list(scope))
    options = [st.builds("{} = {}".format, term, term),
               st.builds("{} <> {}".format, term, term)]
    if _of(scope, "vertex"):
        options.append(st.builds("contains({} <->, {})".format,
                                 st.sampled_from(_of(scope, "vertex")), term))
    if _of(scope, "edge"):
        options.append(st.builds("startVertex({}) = {}".format,
                                 st.sampled_from(_of(scope, "edge")), term))
    if depth < 2:
        inner = _comprehension(scope, depth + 1)
        options += [st.builds("not isEmpty({})".format, inner),
                    st.builds("contains({}, tup({}))".format, inner, term)]
    return st.one_of(options)


def _term(scope, depth):
    term = st.sampled_from(list(scope))
    if depth == 2:
        return term
    return st.one_of(term, st.builds(
        "count({})".format, _comprehension(scope, depth + 1)))


def _graph(seed):
    return genutil.random_sample(random.Random(seed), max_nodes=3,
                                 max_edges=2)


@settings(max_examples=120, deadline=None)
@given(_comprehension({}, 0), st.integers(0, 2**16))
# the later of two declarations in one `from` is the one bound
@example("from x : V{Node}, x : V{Edge_} report tup(x) end", 1)
@example("from x, x : V{Node} with contains(x <->, x) report tup(x) end", 1)
# an inner comprehension shadows the outer name, after its domain read it
@example("from x : V{Node} reportSet tup(x, count(from x : x <-- "
         "report tup(x) end)) end", 2)
# a join and a semi-join on an outer variable inside an inner query
@example("from x : V{Node}, y : from y : E{Edge_LinksToSrc} with "
         "startVertex(y) = x report y end with contains(from x : V{Node} "
         "with x <> startVertex(y) report x end, tup(x)) report tup(x, y) "
         "end", 3)
# one shape over x and y, held in swapped slots by two sibling queries
@example("tup(from x : V{Node}, y : V{Edge_}, z : list(1) report from w : "
         "list(x, y) report w end end, from y : V{Node}, x : V{Edge_}, z : "
         "list(1) report from w : list(x, y) report w end end)", 0)
# one shape in rows of two lengths: a key value new to the second copy,
# and one that bypasses the memo, read the second copy's own slots
@example("tup(from x : list(1), y : list(0) report from z : list(x) report z "
         "end end, from x : list(2), y : list(0), w : list(7) report from z "
         ": list(x) report z end end)", 0)
@example("tup(from x : list(2), y : list(0), w : list(7) report from z : "
         "list(x) report z end end, from x : list(1), y : list(0) report "
         "from z : list(x) report z end end)", 0)
@example("tup(from x : list(1.5), y : list(0) report from z : list(x) report "
         "z end end, from x : list(2.5), y : list(0), w : list(7) report "
         "from z : list(x) report z end end)", 0)
def test_shadowing_matches_nested_loops(text, seed):
    graph = _graph(seed)
    ast = parse_query(text)
    expected = oracles.naive_eval(ast, graph, {})
    actual = evaluate(ast, graph)
    assert type(actual) is type(expected)
    assert rows(actual) == rows(expected)


def test_one_shape_over_a_bound_name_and_a_declared_one():
    # x and y are bound by the caller; each sibling declares one of them
    # in the slot where the other declares the other
    text = ("tup(from x : list(1), w : list(0) report from z : list(x, y) "
            "report z end end, from y : list(5), w : list(0) report from z "
            ": list(x, y) report z end end)")
    graph, bindings = _graph(0), {"x": 10, "y": 20}
    ast = parse_query(text, extra_names=tuple(bindings))
    expected = oracles.naive_eval(ast, graph, dict(bindings))
    assert evaluate(ast, graph, bindings) == expected == ([[1, 20]], [[10, 5]])


@settings(max_examples=60, deadline=None)
@given(_comprehension({"$[0]": "vertex"}, 1), st.integers(0, 2**16))
@example("from x : $[0] <->, x : V{Node} with x <> $[0] report tup(x) end",
         1)
def test_dollar_in_templates_matches_nested_loops(text, seed):
    # each match's node gets, as its name, the text of the template's
    # value for it; names are not read, so the oracle may run on an equal
    # graph as it was before the op
    graph, before = _graph(seed), _graph(seed)
    run = execute(parse_script(
        "transformation T;\n"
        f'MatchReplace (a := $[0], name = "" ++ {text}) <==\n'
        "  from v : V{Node} reportSet tup(v) end;"), graph, in_place=True)
    expr = parse_query(text)
    nodes = oracles.vertices_of(graph, "Node")
    assert run.match_invocations[0].applied == len(nodes)
    for node, old in zip(nodes, oracles.vertices_of(before, "Node")):
        expected = oracles.naive_eval(expr, before, {"$": (old,)})
        assert node.attr("name") == to_text(expected)
