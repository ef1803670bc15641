"""Typed, attributed graph model and the schema layer it conforms to.

A schema declares vertex classes and edge classes with single or multiple
inheritance and typed attributes.  A graph holds typed vertices and edges,
each one object and an attribute dict, and a vertex one flag per incident
edge.  Every sequence a graph exposes follows creation order, and element
ids are dense per kind and never reused within one graph.  An element's
`class_name` is its class record's own string, and the elements of a
class that declares no attribute share its empty defaults dict as their
store, which nothing writes: a write checks the name first.

Creating an element or writing an attribute reads each class fact it
checks (the class record, a superclass closure, the attribute types) with
one lookup of what the schema resolved when the class was defined.  The
checks run in a fixed order, so of two faults the first is reported: see
`Graph` for creation; a write checks that the element is alive, that its
class declares the attribute, the value's type, and that a Double is
finite.
"""

from __future__ import annotations

import math
from enum import Enum

from gretlite.errors import GraphError, SchemaError
from gretlite.record import Record


class AttrType(Enum):
    """Attribute value types; unset attributes read as the type default."""

    STRING = "String"
    INTEGER = "Integer"
    BOOLEAN = "Boolean"
    DOUBLE = "Double"

    def accepts(self, value) -> bool:
        if self is AttrType.STRING:
            return isinstance(value, str)
        if self is AttrType.BOOLEAN:
            return isinstance(value, bool)
        if self is AttrType.INTEGER:
            return isinstance(value, int) and not isinstance(value, bool)
        return isinstance(value, (int, float)) and not isinstance(value, bool)


_DEFAULTS = {
    AttrType.STRING: "",
    AttrType.INTEGER: 0,
    AttrType.BOOLEAN: False,
    AttrType.DOUBLE: 0.0,
}


class VertexClass(Record):
    # attributes: tuple of (name, AttrType) pairs, the class's own
    __slots__ = ("name", "is_abstract", "supertypes", "attributes")
    _defaults = {"is_abstract": False, "supertypes": (), "attributes": ()}


class EdgeClass(Record):
    __slots__ = ("name", "from_class", "to_class", "is_abstract", "supertypes",
                 "is_aggregation", "attributes")
    _defaults = {"is_abstract": False, "supertypes": (),
                 "is_aggregation": False, "attributes": ()}


class Schema:
    """Class-level definitions a graph conforms to.

    Class names share one namespace across both kinds.  Supertypes must be
    defined before their subtypes, which keeps both inheritance graphs
    acyclic by construction; the one remaining loophole (a class naming
    itself) is rejected explicitly.  Because a class never changes once
    defined, its closures and flattened attributes are computed when it is
    defined and only looked up afterwards.
    """

    def __init__(self, name: str):
        self.name = name
        self._classes: dict[str, VertexClass | EdgeClass] = {}
        # class -> attr name -> (declaring class, type); insertion order is
        # supertype-first so instances list inherited attributes first.
        self._flat: dict[str, dict[str, tuple[str, AttrType]]] = {}
        # class -> attr -> default, copied per new element unless empty
        self._defaults: dict[str, dict[str, object]] = {}
        self._supers: dict[str, frozenset[str]] = {}
        self._subs: dict[str, tuple[str, ...]] = {}

    @property
    def vertex_classes(self) -> list[VertexClass]:
        return [c for c in self._classes.values() if isinstance(c, VertexClass)]

    @property
    def edge_classes(self) -> list[EdgeClass]:
        return [c for c in self._classes.values() if isinstance(c, EdgeClass)]

    def has_class(self, name: str) -> bool:
        return name in self._classes

    def element_class(self, name: str) -> VertexClass | EdgeClass:
        return self._lookup(self._classes, name)

    @staticmethod
    def _lookup(table: dict, name: str):
        try:
            return table[name]
        except KeyError:
            raise SchemaError(f"unknown class '{name}'") from None

    def vertex_class(self, name: str) -> VertexClass:
        cls = self.element_class(name)
        if not isinstance(cls, VertexClass):
            raise SchemaError(f"'{name}' is not a vertex class")
        return cls

    def edge_class(self, name: str) -> EdgeClass:
        cls = self.element_class(name)
        if not isinstance(cls, EdgeClass):
            raise SchemaError(f"'{name}' is not an edge class")
        return cls

    def superclasses(self, name: str) -> frozenset[str]:
        """Transitive supertypes of `name`, including `name` itself."""
        return self._lookup(self._supers, name)

    def subclasses(self, name: str) -> tuple[str, ...]:
        """Classes that conform to `name` (including it), declaration order."""
        return self._lookup(self._subs, name)

    def conforms(self, sub: str, sup: str) -> bool:
        """True iff `sub` equals `sup` or transitively specializes it.

        Supertypes are always of the class's own kind, so a vertex class
        never conforms to an edge class or the other way round.
        """
        supers = self._supers.get(sub)
        if supers is None or sup not in self._supers:
            # raise the unknown-class error for whichever name is unknown
            self.element_class(sub)
            self.element_class(sup)
        return sup in supers

    def attribute_type(self, class_name: str, attr_name: str) -> AttrType:
        entry = self._lookup(self._flat, class_name).get(attr_name)
        if entry is None:
            raise SchemaError(
                f"class '{class_name}' declares no attribute '{attr_name}'")
        return entry[1]

    def define_vertex_class(self, name: str, *, is_abstract: bool = False,
                            supertypes=(), attributes=()) -> VertexClass:
        return self._define(VertexClass(
            name, is_abstract, tuple(supertypes),
            tuple((a, t) for a, t in attributes)))

    def define_edge_class(self, name: str, from_class: str, to_class: str, *,
                          is_abstract: bool = False, supertypes=(),
                          is_aggregation: bool = False,
                          attributes=()) -> EdgeClass:
        return self._define(EdgeClass(
            name, from_class, to_class, is_abstract, tuple(supertypes),
            is_aggregation, tuple((a, t) for a, t in attributes)))

    def _define(self, cls):
        """Check a new class record, then enter it with its flattened
        attributes, their defaults and its closures."""
        name = cls.name
        if name in self._classes:
            raise SchemaError(f"duplicate class name '{name}'")
        if name in cls.supertypes:
            raise SchemaError(f"inheritance cycle: '{name}' extends itself")
        for sup in cls.supertypes:
            sup_cls = self._classes.get(sup)
            if sup_cls is None:
                raise SchemaError(f"unknown supertype '{sup}' of '{name}'")
            if not isinstance(sup_cls, type(cls)):
                raise SchemaError(
                    f"supertype '{sup}' of '{name}' is of the wrong kind"
                )
        if isinstance(cls, EdgeClass):
            for endpoint in (cls.from_class, cls.to_class):
                if not isinstance(self._classes.get(endpoint), VertexClass):
                    raise SchemaError(
                        f"edge class '{name}' endpoint '{endpoint}' is not a "
                        "defined vertex class")
        merged: dict[str, tuple[str, AttrType]] = {}
        for sup in cls.supertypes:
            for attr, (owner, atype) in self._flat[sup].items():
                prev = merged.get(attr)
                if prev is not None and prev[0] != owner:
                    raise SchemaError(
                        f"class '{name}' inherits attribute '{attr}' from "
                        f"both '{prev[0]}' and '{owner}'"
                    )
                merged[attr] = (owner, atype)
        for attr, atype in cls.attributes:
            if not isinstance(atype, AttrType):
                raise SchemaError(
                    f"attribute '{attr}' of '{name}' has no valid type"
                )
            if attr in merged:
                raise SchemaError(
                    f"attribute '{attr}' redeclared in '{name}' "
                    f"(already declared by '{merged[attr][0]}')"
                )
            merged[attr] = (name, atype)
        self._classes[name] = cls
        self._flat[name] = merged
        self._defaults[name] = {
            a: _DEFAULTS[t] for a, (_, t) in merged.items()}
        supers = frozenset({name}).union(
            *(self._supers[sup] for sup in cls.supertypes))
        self._supers[name] = supers
        self._subs[name] = ()
        for sup in supers:
            self._subs[sup] += (name,)
        return cls


class Element:
    """Common state of vertices and edges: id, class, attribute store (in
    declaration order).  Only `Graph` calls the subclasses' constructors."""

    __slots__ = ("graph", "id", "class_name", "alive", "_attrs")

    def ref(self) -> str:
        return f"{self._prefix}{self.id}"

    def __repr__(self):
        return f"<{self.class_name} {self.ref()}>"

    def attr(self, name: str):
        if name not in self._attrs:
            raise GraphError(
                f"class '{self.class_name}' declares no attribute '{name}'"
            )
        return self._attrs[name]

    def set_attr(self, name: str, value) -> bool:
        """Write an attribute; returns True iff the stored value changed."""
        entry = self.graph.schema._flat[self.class_name].get(name)
        if entry is None or not self.alive:
            self._require_alive()
            self.graph.schema.attribute_type(self.class_name, name)  # raises
        atype = entry[1]
        if not atype.accepts(value):
            raise GraphError(
                f"attribute '{name}' of '{self.class_name}' expects "
                f"{atype.value}, got {value!r}"
            )
        if atype is AttrType.DOUBLE:
            try:
                value = float(value)
            except OverflowError:  # an integer too large for a Double
                value = math.inf
        if isinstance(value, float) and not math.isfinite(value):
            raise GraphError(f"attribute '{name}' rejects non-finite value")
        old = self._attrs[name]
        if old == value and str(old) == str(value):  # -0.0 == 0.0
            return False
        self._attrs[name] = value
        self.graph.revision += 1
        return True

    def _require_alive(self):
        if not self.alive:
            raise GraphError(f"element {self.ref()} was deleted")


OUT, IN = 1, 2  # how an edge meets a vertex; a loop is OUT | IN


class Vertex(Element):
    """A vertex.  `_entries` maps each incident edge to its flags, in the
    edges' creation order: no object per incidence, and removing one
    endpoint's entry is O(1)."""

    __slots__ = ("_entries",)
    _prefix = "v"

    def __init__(self, graph, eid, class_name, defaults):
        self.graph = graph
        self.id = eid
        self.class_name = class_name
        self.alive = True
        self._attrs = defaults.copy() if defaults else defaults
        self._entries: dict[Edge, int] = {}


class Edge(Element):
    __slots__ = ("start", "end")
    _prefix = "e"

    def __init__(self, graph, eid, class_name, defaults, start, end):
        self.graph = graph
        self.id = eid
        self.class_name = class_name
        self.alive = True
        self._attrs = defaults.copy() if defaults else defaults
        self.start = start
        self.end = end


class Graph:
    """Instance-level graph over a schema.

    A graph is a single-writer value: callers serialize mutations, while
    any number of concurrent readers are safe.  `revision` increases on
    every effective change (element created or deleted, attribute value
    actually changed).

    `create_vertex` checks that the class is known, is a vertex class and
    is not abstract; `create_edge` the same for an edge class, then that
    the start and then the end is a live vertex of this graph, and last
    that the start and then the end conforms to the class's endpoint
    class.  Each check is one dict lookup; the `Schema` lookup methods run
    only to raise their error.  A rejected call changes nothing.
    """

    def __init__(self, schema: Schema, name: str = "g"):
        self.schema = schema
        self.name = name
        self.revision = 0
        self._vertices: dict[int, Vertex] = {}
        self._edges: dict[int, Edge] = {}
        self._next_vid = 1
        self._next_eid = 1

    @property
    def vertices(self) -> list[Vertex]:
        return list(self._vertices.values())

    @property
    def edges(self) -> list[Edge]:
        return list(self._edges.values())

    def create_vertex(self, class_name: str) -> Vertex:
        schema = self.schema
        cls = schema._classes.get(class_name)
        if type(cls) is not VertexClass:
            schema.vertex_class(class_name)  # raises
        if cls.is_abstract:
            raise GraphError(f"class '{class_name}' is abstract")
        vid = self._next_vid
        self._next_vid = vid + 1
        v = self._vertices[vid] = Vertex(
            self, vid, cls.name, schema._defaults[class_name])
        self.revision += 1
        return v

    def create_edge(self, class_name: str, start: Vertex, end: Vertex) -> Edge:
        schema = self.schema
        cls = schema._classes.get(class_name)
        if type(cls) is not EdgeClass:
            schema.edge_class(class_name)  # raises
        if cls.is_abstract:
            raise GraphError(f"class '{class_name}' is abstract")
        if not (type(start) is Vertex and type(end) is Vertex
                and start.graph is self and end.graph is self
                and start.alive and end.alive):
            for endpoint in (start, end):
                if not isinstance(endpoint, Vertex) or endpoint.graph is not self:
                    raise GraphError(
                        "edge endpoint is not a vertex of this graph")
                if not endpoint.alive:
                    raise GraphError(
                        f"edge endpoint {endpoint.ref()} was deleted")
        # both endpoints are vertices of this graph, so their classes are known
        supers = schema._supers
        if cls.from_class not in supers[start.class_name]:
            raise GraphError(
                f"start vertex of '{class_name}' must conform to "
                f"'{cls.from_class}', got '{start.class_name}'"
            )
        if cls.to_class not in supers[end.class_name]:
            raise GraphError(
                f"end vertex of '{class_name}' must conform to "
                f"'{cls.to_class}', got '{end.class_name}'"
            )
        eid = self._next_eid
        self._next_eid = eid + 1
        e = self._edges[eid] = Edge(
            self, eid, cls.name, schema._defaults[class_name], start, end)
        start._entries[e] = OUT
        end._entries[e] = IN if end is not start else OUT | IN
        self.revision += 1
        return e

    def delete_edge(self, e: Edge) -> list[Edge]:
        if not isinstance(e, Edge) or e.graph is not self:
            raise GraphError("not an edge of this graph")
        e._require_alive()
        del e.start._entries[e]
        e.end._entries.pop(e, None)  # a loop's one entry is gone already
        del self._edges[e.id]
        e.alive = False
        self.revision += 1
        return [e]

    def delete_vertex(self, v: Vertex) -> list[Element]:
        """Delete a vertex and every incident edge.

        Returns the full deleted set: the vertex first, then the cascaded
        edges in incidence order.
        """
        if not isinstance(v, Vertex) or v.graph is not self:
            raise GraphError("not a vertex of this graph")
        v._require_alive()
        cascade: list[Edge] = list(v._entries)  # each edge once, loops too
        for e in cascade:
            self.delete_edge(e)
        del self._vertices[v.id]
        v.alive = False
        self.revision += 1
        return [v, *cascade]
