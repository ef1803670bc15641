"""Independent brute-force oracles.

Everything here works by scanning a graph's global vertex/edge lists
directly, never through the query evaluator, path machinery, or the
transformation engine, so these results can check those components.
"""

from __future__ import annotations

import itertools

from gretlite import model
from gretlite.errors import GraphError, ParseError, SchemaError, TransformError
from gretlite.lexer import _STRING_ESCAPES, _SYMBOLS, Token, TokenStream, tokenize
from gretlite.query import nodes
from gretlite.query.evaluator import evaluate
from gretlite.record import Record
from gretlite.values import (UNDEFINED, OrderedSet, ValueMap, render_value,
                             value_key)

LINK_CLASSES = ("Edge_LinksToSrc", "Edge_LinksToTrg")


def edges_of(g, class_name):
    return [e for e in g.edges if e.class_name == class_name]


def vertices_of(g, class_name):
    return [v for v in g.vertices if v.class_name == class_name]


def conceptual_edges(g):
    """(edge-vertex, src nodes, trg nodes) triples for every Edge_ vertex."""
    out = []
    for ev in vertices_of(g, "Edge_"):
        src = [e.end for e in edges_of(g, "Edge_LinksToSrc") if e.start is ev]
        trg = [e.end for e in edges_of(g, "Edge_LinksToTrg") if e.start is ev]
        out.append((ev, src, trg))
    return out


def count_nodes(g) -> int:
    return len(vertices_of(g, "Node"))


def looping_edges(g):
    out = []
    for ev, src, trg in conceptual_edges(g):
        if src and {id(v) for v in src} == {id(v) for v in trg}:
            out.append(ev)
    return out


def isolated_node_names(g) -> set[str]:
    linked = set()
    for cls in LINK_CLASSES:
        for e in edges_of(g, cls):
            linked.add(id(e.start))
            linked.add(id(e.end))
    return {
        v.attr("name") for v in vertices_of(g, "Node") if id(v) not in linked
    }


def connected_pairs(g) -> set[tuple[int, int]]:
    """(src node id, trg node id) for every complete conceptual edge."""
    pairs = set()
    for _, src, trg in conceptual_edges(g):
        for a in src:
            for b in trg:
                pairs.add((id(a), id(b)))
    return pairs


def three_circles(g):
    pairs = connected_pairs(g)
    nodes = vertices_of(g, "Node")
    out = []
    for n1, n2, n3 in itertools.permutations(nodes, 3):
        if (
            (id(n1), id(n2)) in pairs
            and (id(n2), id(n3)) in pairs
            and (id(n3), id(n1)) in pairs
        ):
            out.append((n1, n2, n3))
    return out


def dangling_edges(g):
    out = []
    for ev in vertices_of(g, "Edge_"):
        incident = 0
        for cls in LINK_CLASSES:
            for e in edges_of(g, cls):
                if e.start is ev:
                    incident += 1
                if e.end is ev:
                    incident += 1
        if incident == 1:
            out.append(ev)
    return out


def reachable_by_steps(g, start, steps) -> set[int]:
    """Step-by-step reachability via global edge scans.

    `steps` are (direction, class-name set or None) pairs with direction
    in {"out", "in", "both"}; class sets are exact names.
    """
    frontier = {id(start)}
    by_id = {id(v): v for v in g.vertices}
    for direction, classes in steps:
        nxt = set()
        for e in g.edges:
            if classes is not None and e.class_name not in classes:
                continue
            if direction in ("out", "both") and id(e.start) in frontier:
                nxt.add(id(e.end))
            if direction in ("in", "both") and id(e.end) in frontier:
                nxt.add(id(e.start))
        frontier = nxt
    return {id(by_id[i]) for i in frontier}


def edge_pair_set(g, class_name) -> set[tuple[int, int]]:
    return {(id(e.start), id(e.end)) for e in edges_of(g, class_name)}


def one_step_compositions(g, class_name) -> set[tuple[int, int]]:
    pairs = edge_pair_set(g, class_name)
    return {(a, d) for a, b in pairs for c, d in pairs if b == c}


def expected_delete_set_single(g, name: str):
    """Elements a delete of all nodes named `name` must remove."""
    nodes = [v for v in vertices_of(g, "Node") if v.attr("name") == name]
    doomed = {id(v) for v in nodes}
    for e in g.edges:
        if id(e.start) in doomed or id(e.end) in doomed:
            doomed.add(id(e))
    return doomed


def expected_delete_set_with_edges(g, name: str):
    """As above, but conceptual edges touching those nodes go too."""
    nodes = [v for v in vertices_of(g, "Node") if v.attr("name") == name]
    doomed = {id(v) for v in nodes}
    for ev, src, trg in conceptual_edges(g):
        if any(id(x) in doomed for x in src + trg):
            doomed.add(id(ev))
    for e in g.edges:
        if id(e.start) in doomed or id(e.end) in doomed:
            doomed.add(id(e))
    return doomed


def live_ids(g) -> set[int]:
    return {id(x) for x in g.vertices} | {id(x) for x in g.edges}


def assert_no_dangling(g):
    """Every edge endpoint is live, every incidence entry consistent."""
    vertex_ids = {id(v) for v in g.vertices}
    for e in g.edges:
        assert e.start.alive and id(e.start) in vertex_ids
        assert e.end.alive and id(e.end) in vertex_ids
    for v in g.vertices:
        for e in v._entries:
            assert e.alive
            assert e.start is v or e.end is v


def incidences(v) -> list:
    """The ("out" | "in", edge) pairs of `v`'s incidence entries, in their
    order, a loop's "out" before its "in"."""
    return [(d, e) for e, flags in v._entries.items()
            for d, bit in (("out", model.OUT), ("in", model.IN))
            if flags & bit]


def naive_comprehension(comp, graph, bindings=None):
    """Brute-force nested-loop semantics for a comprehension node.

    Domains expand row by row (later declarations may use earlier
    variables), names within one group take the cross product over the
    same evaluated domain, and the whole `with` clause is tested once
    every variable is bound.  Subexpressions go to `naive_eval`, so
    nested comprehensions, at any depth, are nested loops too.
    """
    rows = [dict(bindings or {})]
    for group in comp.decls:
        expanded = []
        for row in rows:
            members = list(naive_eval(group.domain, graph, row))
            for combo in itertools.product(members, repeat=len(group.names)):
                new_row = dict(row)
                new_row.update(zip(group.names, combo))
                expanded.append(new_row)
        rows = expanded
    if comp.condition is not None:
        rows = [
            row for row in rows
            if naive_eval(comp.condition, graph, row) is True
        ]
    if comp.kind == "map":
        result = ValueMap()
        for row in rows:
            result.put(
                naive_eval(comp.exprs[0], graph, row),
                naive_eval(comp.exprs[1], graph, row),
            )
        return result
    projected = []
    for row in rows:
        values = [naive_eval(e, graph, row) for e in comp.exprs]
        projected.append(values[0] if len(values) == 1 else tuple(values))
    if comp.kind == "set":
        return OrderedSet(projected)
    return projected


def naive_eval(expr, graph, row):
    """`expr` under the variables `row`, with every comprehension in it run
    by `naive_comprehension`.

    Each outermost comprehension inside `expr` is computed first and
    stands in as a fresh variable; the rest goes to `evaluate`, which then
    meets no comprehension.  Being eager, this is only exact for
    expressions that raise on no binding.
    """
    if isinstance(expr, nodes.Comprehension):
        return naive_comprehension(expr, graph, row)
    inner = {}

    def swap(node):
        if isinstance(node, nodes.Comprehension):
            name = f" comprehension {len(inner)}"
            inner[name] = naive_comprehension(node, graph, row)
            return nodes.VarRef(name)
        if isinstance(node, tuple):
            return tuple(swap(part) for part in node)
        if isinstance(node, Record):
            return type(node)(*(swap(getattr(node, f))
                                for f in node.__slots__))
        return node

    return evaluate(swap(expr), graph, {**row, **inner})


def values_equal(a, b) -> bool:
    return value_key(a) == value_key(b)


def canonical_form(g):
    """Isomorphism-comparable summary via iterated color refinement.

    Vertices start from (class, attributes) and refine with the multiset
    of (edge class, direction, edge attributes, neighbor color) until the
    partition stabilizes; the form is the sorted color multiset plus
    sorted edge signatures.
    """

    def attr_sig(el):
        return tuple(sorted((a, repr(el.attr(a))) for a in el._attrs))

    colors = {id(v): (v.class_name, attr_sig(v)) for v in g.vertices}
    for _ in range(max(1, len(g.vertices))):
        raw = {}
        for v in g.vertices:
            nbrs = []
            for e in g.edges:
                if e.start is v:
                    nbrs.append((e.class_name, "out", attr_sig(e),
                                 colors[id(e.end)]))
                if e.end is v:
                    nbrs.append((e.class_name, "in", attr_sig(e),
                                 colors[id(e.start)]))
            raw[id(v)] = (colors[id(v)], tuple(sorted(nbrs)))
        interned = {sig: i for i, sig in enumerate(sorted(set(raw.values())))}
        refined = {vid: interned[sig] for vid, sig in raw.items()}
        old_groups = _partition(colors)
        if _partition(refined) == old_groups:
            colors = refined
            break
        colors = refined
    vertex_part = sorted(colors.values())
    edge_part = sorted(
        (e.class_name, attr_sig(e), colors[id(e.start)], colors[id(e.end)])
        for e in g.edges
    )
    return (tuple(vertex_part), tuple(edge_part))


def _partition(colors: dict) -> frozenset:
    groups: dict = {}
    for vid, color in colors.items():
        groups.setdefault(color, set()).add(vid)
    return frozenset(frozenset(v) for v in groups.values())


def naive_superclasses(schema, name) -> set[str]:
    """`name` and its transitive supertypes, by recursion over the
    declared supertypes."""
    out = {name}
    for sup in schema.element_class(name).supertypes:
        out |= naive_superclasses(schema, sup)
    return out


def naive_subclasses(schema, name) -> list[str]:
    """Classes with `name` among their supertypes, in declaration order."""
    kind = type(schema.element_class(name))
    declared = [c.name for c in schema.vertex_classes + schema.edge_classes]
    return [c for c in declared
            if isinstance(schema.element_class(c), kind)
            and name in naive_superclasses(schema, c)]


def naive_conforms(schema, sub, sup) -> bool:
    same_kind = type(schema.element_class(sub)) is type(schema.element_class(sup))
    return same_kind and sup in naive_superclasses(schema, sub)


def naive_tokenize(text: str) -> list[Token]:
    """Character-by-character reference for `gretlite.lexer.tokenize`."""
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def error(msg):
        raise ParseError(msg, line, col)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(Token("IDENT", word, word, start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            is_float = False
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                is_float = True
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    is_float = True
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            word = text[i:j]
            value = float(word) if is_float else int(word)
            tokens.append(Token("NUMBER", word, value, start_line, start_col))
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            out = []
            while True:
                if j >= n:
                    error("unterminated string literal")
                ch = text[j]
                if ch == '"':
                    j += 1
                    break
                if ch == "\n":
                    error("unterminated string literal")
                if ch == "\\":
                    if j + 1 >= n or text[j + 1] not in _STRING_ESCAPES:
                        error("invalid string escape")
                    out.append(_STRING_ESCAPES[text[j + 1]])
                    j += 2
                    continue
                out.append(ch)
                j += 1
            tokens.append(
                Token("STRING", text[i:j], "".join(out), start_line, start_col)
            )
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("SYMBOL", sym, sym, start_line, start_col))
                i += len(sym)
                col += len(sym)
                break
        else:
            error(f"unexpected character {c!r}")
    tokens.append(Token("EOF", "", None, line, col))
    return tokens


def naive_load_graph(text: str, schema) -> model.Graph:
    """Token-by-token reference for `gretlite.formats.load_graph`.

    It lexes the whole file before reading it, so a lexical fault
    anywhere is reported ahead of an earlier fault of another kind; the
    reader under test reports the first fault in file order.
    """
    ts = TokenStream(tokenize(text))
    ts.expect_ident("graph")
    name_tok = ts.expect_ident()
    ts.expect_ident("conforms")
    schema_tok = ts.expect_ident()
    if schema_tok.text != schema.name:
        raise ParseError(
            f"graph conforms to '{schema_tok.text}' but schema "
            f"'{schema.name}' was given",
            schema_tok.line, schema_tok.column,
        )
    ts.expect_symbol(";")
    graph = model.Graph(schema, name=name_tok.text)
    labels: dict[str, model.Element] = {}
    while not ts.at_eof():
        _element_line(ts, graph, labels)
    return graph


def _element_line(ts: TokenStream, graph: model.Graph, labels):
    label_tok = ts.expect_ident()
    label = label_tok.text
    if label in labels:
        raise ParseError(f"duplicate element id '{label}'",
                         label_tok.line, label_tok.column)
    ts.expect_symbol(":")
    class_tok = ts.expect_ident()
    class_name = class_tok.text
    if not graph.schema.has_class(class_name):
        raise ParseError(f"unknown class '{class_name}'",
                         class_tok.line, class_tok.column)
    try:
        if type(graph.schema.element_class(class_name)) is model.VertexClass:
            element = graph.create_vertex(class_name)
        else:
            start = _endpoint(ts, labels)
            ts.expect_symbol("->")
            end = _endpoint(ts, labels)
            element = graph.create_edge(class_name, start, end)
    except GraphError as exc:
        raise ParseError(str(exc), class_tok.line, class_tok.column) from None
    labels[label] = element
    if ts.at_symbol("{"):
        ts.next()
        while not ts.at_symbol("}"):
            attr_tok = ts.expect_ident()
            ts.expect_symbol("=")
            value = _literal(ts)
            try:
                element.set_attr(attr_tok.text, value)
            except (GraphError, SchemaError) as exc:
                raise ParseError(str(exc), attr_tok.line,
                                 attr_tok.column) from None
            if ts.at_symbol(","):
                ts.next()
        ts.next()
    ts.expect_symbol(";")


def _endpoint(ts: TokenStream, labels) -> model.Vertex:
    tok = ts.expect_ident()
    element = labels.get(tok.text)
    if element is None:
        raise ParseError(f"edge references undeclared element '{tok.text}'",
                         tok.line, tok.column)
    if not isinstance(element, model.Vertex):
        raise ParseError(f"edge endpoint '{tok.text}' is not a vertex",
                         tok.line, tok.column)
    return element


def _literal(ts: TokenStream):
    tok = ts.peek()
    if tok.kind == "STRING":
        return ts.next().value
    if tok.kind == "NUMBER":
        return ts.next().value
    if ts.at_symbol("-"):
        ts.next()
        num = ts.peek()
        if num.kind != "NUMBER":
            ts.error("expected a number after '-'")
        return -ts.next().value
    if ts.accept("true"):
        return True
    if ts.accept("false"):
        return False
    ts.error("expected a literal")


def naive_value_key(v):
    """Structural identity of a value with every atom tagged by its kind:
    numbers ("n"), strings ("s"), elements ("el").  `values.value_key`
    must make two values equal exactly when this does."""
    if v is UNDEFINED:
        return ("u",)
    if isinstance(v, bool):
        return ("b", v)
    if isinstance(v, (int, float)):
        return ("n", v)
    if isinstance(v, str):
        return ("s", v)
    if isinstance(v, model.Element):
        return ("el", v)
    if isinstance(v, tuple):
        return ("t", tuple(naive_value_key(x) for x in v))
    if isinstance(v, list):
        return ("l", tuple(naive_value_key(x) for x in v))
    if isinstance(v, OrderedSet):
        return ("set", frozenset(naive_value_key(x) for x in v))
    if isinstance(v, ValueMap):
        return ("m", frozenset((naive_value_key(k), naive_value_key(x))
                               for k, x in v.items()))
    raise TypeError(f"not a value: {v!r}")


class NaiveIncidences:
    """Each vertex's incidences as a list of ("out" | "in", edge) pairs,
    mirrored from the operations applied to a graph: an edge appends its
    "out" entry to its start and then its "in" entry to its end."""

    def __init__(self):
        self.lists: dict[model.Vertex, list] = {}

    def create_vertex(self, v):
        self.lists[v] = []

    def create_edge(self, e):
        self.lists[e.start].append(("out", e))
        self.lists[e.end].append(("in", e))

    def delete_edge(self, e):
        for v in (e.start, e.end):
            self.lists[v] = [x for x in self.lists[v] if x[1] is not e]

    def delete_vertex(self, v):
        """The deleted elements: `v`, then its edges in incidence order."""
        cascade = []
        for _, e in self.lists[v]:
            if all(e is not c for c in cascade):
                cascade.append(e)
        for e in cascade:
            self.delete_edge(e)
        del self.lists[v]
        return [v, *cascade]

    def degree(self, v, allowed=None):
        return sum(1 for _, e in self.lists[v]
                   if allowed is None or e.class_name in allowed)

    def path(self, start, steps):
        """Vertices reachable by `steps`, (direction, allowed class names
        or None) pairs with the parser's directions, in first-reached
        order; "agg" follows edges forward, like "out"."""
        frontier = [start]
        for direction, allowed in steps:
            reached = []
            for v in frontier:
                for d, e in self.lists[v]:
                    if allowed is not None and e.class_name not in allowed:
                        continue
                    if d == "out" and direction in ("out", "both", "agg"):
                        target = e.end
                    elif d == "in" and direction in ("in", "both"):
                        target = e.start
                    else:
                        continue
                    if all(target is not r for r in reached):
                        reached.append(target)
            frontier = reached
        return frontier


class NaiveTraceabilityMap:
    """Archetype -> image maps per class, where every lookup through a
    class scans the maps of all its subclasses and every registration
    scans all classes that hold entries for a clash."""

    def __init__(self, schema: model.Schema):
        self._schema = schema
        self._maps: dict[str, dict] = {}

    def register(self, archetype, element):
        class_name = element.class_name
        key = naive_value_key(archetype)
        shared = naive_superclasses(self._schema, class_name)
        clashes = [cls for cls, entries in self._maps.items()
                   if key in entries
                   and shared & naive_superclasses(self._schema, cls)]
        if clashes:
            first = next(c for c in self.classes() if c in clashes)
            raise TransformError(
                f"archetype {render_value(archetype)} already has an "
                f"image visible via class '{first}'")
        self._maps.setdefault(class_name, {})[key] = (archetype, element)

    def image(self, class_name, archetype):
        key = naive_value_key(archetype)
        for cls in naive_subclasses(self._schema, class_name):
            hit = self._maps.get(cls, {}).get(key)
            if hit is not None:
                return hit[1]
        return None

    def view_items(self, class_name, inverse):
        """The img (or, if `inverse`, arch) view's items, in order: a key
        seen again keeps its place and takes the later entry."""
        items = {}
        for cls in naive_subclasses(self._schema, class_name):
            for arch, el in self._maps.get(cls, {}).values():
                key, value = (el, arch) if inverse else (arch, el)
                items[naive_value_key(key)] = (key, value)
        return list(items.values())

    def classes(self):
        declared = self._schema.vertex_classes + self._schema.edge_classes
        return [c.name for c in declared if self._maps.get(c.name)]
