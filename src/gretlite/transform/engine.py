"""Execution engine for transformation scripts.

Out-place runs read the source graph and build a separate target graph;
in-place runs rewrite the source graph itself.  Every element created for
an archetype is recorded in a TraceabilityMap, and queries evaluated
during execution see those maps as `img_T` / `arch_T` bindings.

One ExecutionResult is the record of a run: the source and target graphs
(the same graph when the run is in place), the trace, the count each
top-level op reports and the applied/skipped counts of every MatchReplace
invocation.  Its `eval`
evaluates an op's expression on the source, compiled once per op.

CreateSubgraph and MatchReplace instantiate a template the same way.
The template's new vertices are created in order, each archetype
evaluated just before its vertex is created and registered.  Then every
item, new or preserved, is checked to be alive and gets its attribute
assignments, in template order.  Last come the template's edges, each
created, registered if it has an archetype, and assigned.

Delete and MatchReplace delete the same way: first the live edges, then
the live vertices, each of which takes its remaining incident edges with
it.  MatchReplace deletes a match's unreferenced elements before it
instantiates the template for that match.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from gretlite import model
from gretlite.errors import GretliteError, TransformError
from gretlite.query.evaluator import Query, evaluate, raiser
from gretlite.transform import ops
from gretlite.values import (OrderedSet, ValueMap, is_collection, leaves,
                             render_value, value_key)

ROUND_LIMIT = 1_000

# the ops that rewrite or delete what their queries read
_IN_PLACE_ONLY = (ops.MatchReplace, ops.Delete, ops.Iteratively)

_MISSING = object()


class TraceabilityMap:
    """Per-class archetype-to-image bookkeeping.

    Each class holds a bijection archetype -> created element, and an
    entry's class is always its element's class.  Lookups through a class
    T consult T and all subclasses of T (the union view), so an archetype
    registered for a concrete class resolves through any of its
    supertypes.  Registration rejects an archetype that is already visible
    through any lookup class shared with the new entry.

    The one store is each lookup class's union, which an entry for C joins
    in every superclass of C: `image` is one dict lookup, and `register`
    finds a clash in the unions of C's superclasses.  C's own entries are
    those of its union whose element is of class C.

    The union views handed to queries are built on request, one new map
    each time, and never changed afterwards: a query that holds one keeps
    a consistent snapshot while registrations go on.
    """

    def __init__(self, schema: model.Schema):
        self._schema = schema
        # class -> value_key(archetype) -> (archetype, element), registered
        # for the class or one of its subclasses, in registration order
        self._unions: defaultdict[str, dict] = defaultdict(dict)

    def register(self, archetype, element: model.Element):
        key = value_key(archetype)
        lookups = self._schema._supers.get(element.class_name)
        if lookups is None:  # unknown: SchemaError
            self._schema.element_class(element.class_name)
        unions = self._unions
        for lookup in lookups:
            if key in unions.get(lookup, ()):
                owners = {unions[c][key][1].class_name for c in lookups
                          if key in unions.get(c, ())}
                first = next(c for c in self.classes() if c in owners)
                raise TransformError(
                    f"archetype {render_value(archetype)} already has an "
                    f"image visible via class '{first}'")
        entry = (archetype, element)
        for cls in lookups:
            unions[cls][key] = entry

    def image(self, class_name: str, archetype) -> model.Element | None:
        union = self._unions.get(class_name)
        if union is None:
            self._schema.element_class(class_name)  # unknown: SchemaError
            return None
        hit = union.get(value_key(archetype))
        return None if hit is None else hit[1]

    def img_value(self, class_name: str) -> ValueMap:
        """Union-view archetype -> image map for a class, as a query value."""
        return self._view(class_name, False)

    def arch_value(self, class_name: str) -> ValueMap:
        """Union-view image -> archetype map for a class, as a query value."""
        return self._view(class_name, True)

    def _view(self, class_name: str, inverse: bool) -> ValueMap:
        return ValueMap([(el, arch) if inverse else (arch, el)
                         for cls in self._schema.subclasses(class_name)
                         for arch, el in self.entries(cls)])

    def classes(self) -> list[str]:
        declared = self._schema.vertex_classes + self._schema.edge_classes
        return [c.name for c in declared if any(el.class_name == c.name
                for _, el in self._unions.get(c.name, {}).values())]

    def entries(self, class_name: str) -> list[tuple[object, model.Element]]:
        return [entry for entry in self._unions.get(class_name, {}).values()
                if entry[1].class_name == class_name]


class MatchReplaceStats(NamedTuple):
    applied: int
    skipped: int


class ExecutionResult:
    """What a run did, and the state its ops read and write."""

    def __init__(self, source: model.Graph, graph: model.Graph,
                 trace: TraceabilityMap):
        self.source = source
        self.graph = graph
        self.trace = trace
        self.op_counts: list[tuple[str, int]] = []
        self.match_invocations: list[MatchReplaceStats] = []
        self._queries: dict = {}  # id(expression) -> its compiled Query

    def eval(self, expr, dollar=_MISSING):
        """The value of `expr`, with `$` bound to `dollar` if given."""
        names = {} if dollar is _MISSING else {"$": dollar}
        query = self._queries.get(id(expr))
        if query is None:
            query = self._queries[id(expr)] = Query(
                expr, self.source, tuple(names), self._trace_view)
        return evaluate(query, self.source, names)

    def _trace_view(self, name: str):
        """The getter of the trace view `name` names, or None."""
        if (view := ops.trace_view(name)) is None:
            return None
        kind, cls = view
        if not self.graph.schema.has_class(cls):
            return raiser(f"unknown class '{cls}' in '{name}'")
        get = self.trace.img_value if kind == "img" else self.trace.arch_value
        return lambda: get(cls)


def execute(transformation: ops.Transformation,
            source_graph: model.Graph | None = None,
            *,
            target_schema: model.Schema | None = None,
            in_place: bool = False) -> ExecutionResult:
    """Run a transformation and return the record of the run."""
    if in_place:
        if source_graph is None:
            raise TransformError("in-place execution requires a source graph")
        if target_schema is not None and target_schema is not source_graph.schema:
            raise TransformError(
                "in-place execution rewrites the source graph; the target "
                "schema must be the source graph's schema"
            )
        target = source_graph
        source = source_graph
    else:
        if target_schema is None:
            raise TransformError("out-place execution requires a target schema")
        target = model.Graph(target_schema, name=transformation.name)
        source = source_graph
        if source is None:
            source = model.Graph(target_schema, name="empty")
    ctx = ExecutionResult(source, target, TraceabilityMap(target.schema))
    for index, (op, line) in enumerate(
            zip(transformation.ops, transformation.lines), start=1):
        try:
            count = _run_op(ctx, op)
        except GretliteError as exc:
            raise TransformError(f"op {index}: {exc} (line {line})") from exc
        ctx.op_counts.append((type(op).__name__, count))
        ctx._queries.clear()  # each op compiles its expressions once
    return ctx


def _run_op(ctx: ExecutionResult, op) -> int:
    if ctx.graph is not ctx.source and isinstance(op, _IN_PLACE_ONLY):
        raise TransformError(
            f"{type(op).__name__} requires in-place execution")
    return _RUN[type(op)](ctx, op)


def _require_set(value, op_name: str) -> OrderedSet:
    if not isinstance(value, OrderedSet):
        raise TransformError(f"{op_name} expects its query to yield a set")
    return value


def _create_vertices(ctx, op: ops.CreateVertices) -> int:
    members = _require_set(ctx.eval(op.query), "CreateVertices")
    for archetype in members:
        vertex = ctx.graph.create_vertex(op.class_name)
        ctx.trace.register(archetype, vertex)
    return len(members)


def _create_edges(ctx, op: ops.CreateEdges) -> int:
    members = _require_set(ctx.eval(op.query), "CreateEdges")
    edge_class = ctx.graph.schema.edge_class(op.class_name)
    for member in members:
        if not isinstance(member, tuple) or len(member) != 3:
            raise TransformError(
                "CreateEdges expects a set of (edge archetype, start "
                "archetype, end archetype) triples"
            )
        edge_arch, start_arch, end_arch = member
        start = _resolve_image(ctx, edge_class.from_class, start_arch)
        end = _resolve_image(ctx, edge_class.to_class, end_arch)
        edge = ctx.graph.create_edge(op.class_name, start, end)
        ctx.trace.register(edge_arch, edge)
    return len(members)


def _resolve_image(ctx, class_name: str, archetype) -> model.Element:
    image = ctx.trace.image(class_name, archetype)
    if image is None:
        raise TransformError(
            f"no image for archetype {render_value(archetype)} via class "
            f"'{class_name}'"
        )
    return image


def _set_attributes(ctx, op: ops.SetAttributes) -> int:
    entries = ctx.eval(op.query)
    if not isinstance(entries, ValueMap):
        raise TransformError("SetAttributes expects its query to yield a map")
    ctx.graph.schema.attribute_type(op.class_name, op.attr_name)
    for archetype, value in entries.items():
        element = _resolve_image(ctx, op.class_name, archetype)
        element.set_attr(op.attr_name, value)
    return len(entries)


def _create_subgraph(ctx, op: ops.CreateSubgraph) -> int:
    members = _require_set(ctx.eval(op.query), "CreateSubgraph")
    for tv in op.template.vertices:
        if tv.is_ref:
            raise TransformError(
                "CreateSubgraph templates only create new vertices; "
                f"'{tv.alias}' references an existing element"
            )
    for member in members:
        _instantiate(ctx, op.template, {}, member)
    return len(members)


def _instantiate(ctx, template: ops.Template, aliases: dict, dollar):
    """Create a template's new vertices, assign every item, then create
    its edges.  `aliases` holds the preserved items and gains the new
    ones."""
    for tv in template.vertices:
        if not tv.is_ref:
            archetype = ctx.eval(tv.arch, dollar)
            vertex = ctx.graph.create_vertex(tv.class_name)
            ctx.trace.register(archetype, vertex)
            aliases[tv.alias] = vertex
    for tv in template.vertices:
        element = aliases[tv.alias]
        if not element.alive:
            raise TransformError(
                f"preserved element '{tv.alias}' was deleted by a cascade"
            )
        for name, expr in tv.assigns:
            element.set_attr(name, ctx.eval(expr, dollar))
    for te in template.edges:
        start = aliases[te.start_alias]
        end = aliases[te.end_alias]
        for endpoint, alias in ((start, te.start_alias), (end, te.end_alias)):
            if not isinstance(endpoint, model.Vertex):
                raise TransformError(
                    f"template edge endpoint '{alias}' is not a vertex"
                )
        edge = ctx.graph.create_edge(te.class_name, start, end)
        if te.arch is not None:
            ctx.trace.register(ctx.eval(te.arch, dollar), edge)
        for name, expr in te.assigns:
            edge.set_attr(name, ctx.eval(expr, dollar))


def _match_replace(ctx, op: ops.MatchReplace) -> int:
    matches = _require_set(ctx.eval(op.query), "MatchReplace")
    touched: set[model.Element] = set()
    applied = 0
    skipped = 0
    for match in matches:
        elements = [el for el in leaves(match) if isinstance(el, model.Element)]
        if any(el in touched or not el.alive for el in elements):
            skipped += 1
            continue
        dollar = match if isinstance(match, tuple) else (match,)
        aliases: dict[str, model.Element] = {}
        for tv in op.template.vertices:
            if not tv.is_ref:
                continue
            element = ctx.eval(tv.ref, dollar)
            if isinstance(element, tuple) and len(element) == 1:
                # single-element matches are bound as 1-tuples; a bare `$`
                # reference means the element itself
                element = element[0]
            if not isinstance(element, model.Element):
                raise TransformError(
                    f"template reference '{tv.alias}' must name a graph "
                    f"element, got {render_value(element)}"
                )
            aliases[tv.alias] = element
        preserved = set(aliases.values())
        deleted = _delete_all(
            ctx, [el for el in elements if el not in preserved])
        _instantiate(ctx, op.template, aliases, dollar)
        touched.update(elements, deleted)
        applied += 1
    ctx.match_invocations.append(MatchReplaceStats(applied, skipped))
    return applied


def _delete(ctx, op: ops.Delete) -> int:
    value = ctx.eval(op.query)
    if not is_collection(value):
        raise TransformError("Delete expects its query to yield a collection")
    flat = list(leaves(value))
    for el in flat:
        if not isinstance(el, model.Element):
            raise TransformError(
                f"Delete results must contain graph elements only, got "
                f"{render_value(el)}"
            )
    return len(_delete_all(ctx, flat))


def _delete_all(ctx, elements) -> list[model.Element]:
    """Delete the live edges among `elements`, then the live vertices;
    return every element deleted, cascaded edges included."""
    deleted: list[model.Element] = []
    for el in elements:
        if isinstance(el, model.Edge) and el.alive:
            deleted += ctx.graph.delete_edge(el)
    for el in elements:
        if isinstance(el, model.Vertex) and el.alive:
            deleted += ctx.graph.delete_vertex(el)
    return deleted


def _iteratively(ctx, op: ops.Iteratively) -> int:
    rounds = 0
    while True:
        rounds += 1
        if rounds > ROUND_LIMIT:
            raise TransformError(
                f"Iteratively exceeded {ROUND_LIMIT} rounds; the body "
                "probably never becomes inapplicable"
            )
        changed = False
        for body_op in op.body:
            before = ctx.graph.revision
            _run_op(ctx, body_op)
            if ctx.graph.revision != before:
                changed = True
        if not changed:
            return rounds


_RUN = {ops.CreateVertices: _create_vertices, ops.CreateEdges: _create_edges,
        ops.SetAttributes: _set_attributes,
        ops.CreateSubgraph: _create_subgraph, ops.MatchReplace: _match_replace,
        ops.Delete: _delete, ops.Iteratively: _iteratively}
