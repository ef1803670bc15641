"""Expected outputs, derived from the generators' data without gretlite.

Query answers are reproduced exactly.  Transformation outputs are read
back with a small `.glg` reader of our own and checked for per-class
counts plus the property that defines each task.  Every check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import re
from collections import Counter

from gen import Chain, Sample

_LINE = re.compile(
    r"(?P<kind>[ve])(?P<num>\d+) : (?P<cls>\w+)"
    r"(?: v(?P<start>\d+) -> v(?P<end>\d+))?(?: \{ (?P<attrs>.*) \})?;"
)
_ATTR = re.compile(r'(\w+) = "((?:[^"\\]|\\.)*)"')


class Glg:
    """Vertices as (class, attrs) and edges as (class, start, end) with
    0-based vertex positions, in file order."""

    def __init__(self, text: str):
        self.vertices: list[tuple[str, dict[str, str]]] = []
        self.edges: list[tuple[str, int, int]] = []
        for line in text.splitlines()[1:]:
            m = _LINE.fullmatch(line)
            if m is None:
                raise ValueError(f"unreadable line {line!r}")
            if m["kind"] == "v":
                self.vertices.append((m["cls"], dict(_ATTR.findall(m["attrs"] or ""))))
            else:
                self.edges.append((m["cls"], int(m["start"]) - 1, int(m["end"]) - 1))

    def counts(self) -> Counter:
        return Counter(c for c, _ in self.vertices) + Counter(c for c, _, _ in self.edges)

    def of(self, cls: str) -> list[int]:
        return [i for i, (c, _) in enumerate(self.vertices) if c == cls]

    def links(self, cls: str) -> dict[int, int]:
        """Start position -> end position of the edges of `cls`."""
        return {s: e for c, s, e in self.edges if c == cls}


def _node_ref(i: int) -> str:
    return f"v{i + 2}"


def _edge_ref(data: Sample, j: int) -> str:
    return f"v{len(data.names) + 2 + j}"


def _render(count: int, members: list[str]) -> str:
    return f"({count}, {{{', '.join(sorted(members))}}})\n"


def query05(data: Sample) -> str:
    """Count loops: Edge_ vertices whose two links hit the same node."""
    loops = [_edge_ref(data, j) for j, (s, t) in enumerate(data.links)
             if s is not None and s == t]
    return _render(len(loops), loops)


def query07(data: Sample) -> str:
    """Pairwise-distinct node triples on a directed 3-cycle, rotations
    included."""
    succ: dict[int, set[int]] = {}
    for s, t in data.links:
        if s is not None and t is not None:
            succ.setdefault(s, set()).add(t)
    triples = [
        f"({_node_ref(a)}, {_node_ref(b)}, {_node_ref(c)})"
        for a in succ for b in succ[a] for c in succ.get(b, ())
        if len({a, b, c}) == 3 and a in succ.get(c, ())
    ]
    return _render(len(triples), triples)


def _expect(problems: list, what: str, got, want):
    if got == want:
        return
    if isinstance(want, set):
        problems.append(f"{what}: missing {sorted(want - got)[:5]}, "
                        f"unexpected {sorted(got - want)[:5]}")
    else:
        problems.append(f"{what}: got {got!r}, expected {want!r}"[:300])


def check_migration(data: Sample, out_text: str, trace_text: str) -> list[str]:
    """Script 10: every source element has one image; node texts equal the
    source names; links keep their endpoints."""
    problems: list[str] = []
    g = Glg(out_text)
    nodes, edges = len(data.names), len(data.links)
    src = [(j, s) for j, (s, _) in enumerate(data.links) if s is not None]
    trg = [(j, t) for j, (_, t) in enumerate(data.links) if t is not None]
    want = Counter({"Graph_": 1, "Node": nodes, "Edge_": edges,
                    "Edge_LinksToSrc": len(src), "Edge_LinksToTrg": len(trg),
                    "Graph_ContainsGcs": nodes + edges})
    _expect(problems, "class counts", g.counts(), want)
    _expect(problems, "trace counts",
            Counter(line.split(":", 1)[0] for line in trace_text.splitlines()), want)
    _expect(problems, "node texts",
            [g.vertices[i][1].get("text") for i in g.of("Node")], list(data.names))
    first_edge = 1 + nodes
    for cls, pairs in (("Edge_LinksToSrc", src), ("Edge_LinksToTrg", trg)):
        got = sorted((s - first_edge, e - 1) for c, s, e in g.edges if c == cls)
        _expect(problems, f"{cls} endpoints", got, sorted(pairs))
    return problems


def check_delete(data: Sample, out_text: str) -> list[str]:
    """Script 13: no node named n1 survives, nor any Edge_ linked to one;
    everything else is kept in order."""
    problems: list[str] = []
    g = Glg(out_text)
    doomed = {i for i, name in enumerate(data.names) if name == "n1"}
    names = [n for i, n in enumerate(data.names) if i not in doomed]
    kept = [(s, t) for s, t in data.links if not {s, t} & doomed]
    name_of = lambda i: None if i is None else data.names[i]
    _expect(problems, "class counts", g.counts(), Counter({
        "Graph_": 1, "Node": len(names), "Edge_": len(kept),
        "Graph_ContainsNodes": len(names), "Graph_ContainsEdges": len(kept),
        "Edge_LinksToSrc": sum(s is not None for s, _ in kept),
        "Edge_LinksToTrg": sum(t is not None for _, t in kept),
    }))
    _expect(problems, "node names",
            [g.vertices[i][1].get("name") for i in g.of("Node")], names)
    src, trg = g.links("Edge_LinksToSrc"), g.links("Edge_LinksToTrg")
    out_name = lambda i: None if i is None else g.vertices[i][1].get("name")
    _expect(problems, "Edge_ link names",
            [(out_name(src.get(v)), out_name(trg.get(v))) for v in g.of("Edge_")],
            [(name_of(s), name_of(t)) for s, t in kept])
    return problems


def check_closure(data: Chain, out_text: str) -> list[str]:
    """Script 14: the links are exactly {(i, i+1)} and {(i, i+2)} over
    chain positions."""
    problems: list[str] = []
    g = Glg(out_text)
    n = len(data.order)
    pos = {i: g.vertices[i][1].get("text") for i in g.of("Node")}
    got = [(pos.get(s), pos.get(e)) for c, s, e in g.edges
           if c == "NodeLinksToLinksTo"]
    want = {(f"p{i}", f"p{i + 1}") for i in range(n - 1)}
    want |= {(f"p{i}", f"p{i + 2}") for i in range(n - 2)}
    _expect(problems, "class counts", g.counts(), Counter({
        "Graph_": 1, "Node": n, "Graph_ContainsNodes": n,
        "NodeLinksToLinksTo": len(want),
    }))
    _expect(problems, "link set", set(got), want)
    return problems


def check_reverse(data: Sample, out_text: str) -> list[str]:
    """Script 09: every complete conceptual edge swaps source and target;
    dangling ones are untouched."""
    problems: list[str] = []
    g = Glg(out_text)
    nodes = len(data.names)
    want = [(t, s) if s is not None and t is not None else (s, t)
            for s, t in data.links]
    _expect(problems, "class counts", g.counts(), Counter({
        "Graph_": 1, "Node": nodes, "Edge_": len(data.links),
        "Graph_ContainsNodes": nodes, "Graph_ContainsEdges": len(data.links),
        "Edge_LinksToSrc": sum(s is not None for s, _ in want),
        "Edge_LinksToTrg": sum(t is not None for _, t in want),
    }))
    src, trg = g.links("Edge_LinksToSrc"), g.links("Edge_LinksToTrg")
    node_pos = lambda i: None if i is None else i - 1
    _expect(problems, "Edge_ links",
            [(node_pos(src.get(v)), node_pos(trg.get(v))) for v in g.of("Edge_")],
            want)
    return problems
