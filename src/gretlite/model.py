"""Typed, attributed graph model and the schema layer it conforms to.

A schema declares vertex classes and edge classes with single or multiple
inheritance and typed attributes.  A graph holds typed vertices and edges;
every sequence the graph exposes (vertices, edges, per-vertex incidences)
follows creation order, and element ids are dense per kind and never reused
within one graph lifetime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

from gretlite.errors import GraphError, SchemaError


class AttrType(Enum):
    """Attribute value types; unset attributes read as the type default."""

    STRING = "String"
    INTEGER = "Integer"
    BOOLEAN = "Boolean"
    DOUBLE = "Double"

    def default(self):
        return _DEFAULTS[self]

    def accepts(self, value) -> bool:
        if self is AttrType.STRING:
            return isinstance(value, str)
        if self is AttrType.BOOLEAN:
            return isinstance(value, bool)
        if self is AttrType.INTEGER:
            return isinstance(value, int) and not isinstance(value, bool)
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    def coerce(self, value):
        return float(value) if self is AttrType.DOUBLE else value


_DEFAULTS = {
    AttrType.STRING: "",
    AttrType.INTEGER: 0,
    AttrType.BOOLEAN: False,
    AttrType.DOUBLE: 0.0,
}


@dataclass(frozen=True)
class VertexClass:
    name: str
    is_abstract: bool = False
    supertypes: tuple[str, ...] = ()
    attributes: tuple[tuple[str, AttrType], ...] = ()


@dataclass(frozen=True)
class EdgeClass:
    name: str
    from_class: str
    to_class: str
    is_abstract: bool = False
    supertypes: tuple[str, ...] = ()
    is_aggregation: bool = False
    attributes: tuple[tuple[str, AttrType], ...] = ()


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
        # class -> read-only attr name -> type view of `_flat`
        self._attr_types: dict[str, MappingProxyType] = {}
        # class -> attr name -> default value, copied into each new element
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

    def is_vertex_class(self, name: str) -> bool:
        return isinstance(self._classes.get(name), VertexClass)

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

    def flat_attributes(self, name: str) -> MappingProxyType:
        """All attributes of a class after inheritance flattening, as a
        read-only attr name -> AttrType mapping."""
        return self._lookup(self._attr_types, name)

    def attribute_type(self, class_name: str, attr_name: str) -> AttrType:
        atype = self.flat_attributes(class_name).get(attr_name)
        if atype is None:
            raise SchemaError(
                f"class '{class_name}' declares no attribute '{attr_name}'"
            )
        return atype

    def define_vertex_class(
        self,
        name: str,
        *,
        is_abstract: bool = False,
        supertypes: tuple[str, ...] | list[str] = (),
        attributes=(),
    ) -> VertexClass:
        supertypes = tuple(supertypes)
        attributes = tuple((a, t) for a, t in attributes)
        self._check_header(name, supertypes, kind=VertexClass)
        cls = VertexClass(name, is_abstract, supertypes, attributes)
        self._register(cls)
        return cls

    def define_edge_class(
        self,
        name: str,
        from_class: str,
        to_class: str,
        *,
        is_abstract: bool = False,
        supertypes: tuple[str, ...] | list[str] = (),
        is_aggregation: bool = False,
        attributes=(),
    ) -> EdgeClass:
        supertypes = tuple(supertypes)
        attributes = tuple((a, t) for a, t in attributes)
        self._check_header(name, supertypes, kind=EdgeClass)
        for endpoint in (from_class, to_class):
            if not self.is_vertex_class(endpoint):
                raise SchemaError(
                    f"edge class '{name}' endpoint '{endpoint}' is not a "
                    "defined vertex class"
                )
        cls = EdgeClass(
            name, from_class, to_class, is_abstract, supertypes,
            is_aggregation, attributes,
        )
        self._register(cls)
        return cls

    def _check_header(self, name, supertypes, kind):
        if name in self._classes:
            raise SchemaError(f"duplicate class name '{name}'")
        if name in supertypes:
            raise SchemaError(f"inheritance cycle: '{name}' extends itself")
        for sup in supertypes:
            cls = self._classes.get(sup)
            if cls is None:
                raise SchemaError(f"unknown supertype '{sup}' of '{name}'")
            if not isinstance(cls, kind):
                raise SchemaError(
                    f"supertype '{sup}' of '{name}' is of the wrong kind"
                )

    def _register(self, cls):
        merged: dict[str, tuple[str, AttrType]] = {}
        for sup in cls.supertypes:
            for attr, (owner, atype) in self._flat[sup].items():
                prev = merged.get(attr)
                if prev is not None and prev[0] != owner:
                    raise SchemaError(
                        f"class '{cls.name}' inherits attribute '{attr}' from "
                        f"both '{prev[0]}' and '{owner}'"
                    )
                merged[attr] = (owner, atype)
        for attr, atype in cls.attributes:
            if not isinstance(atype, AttrType):
                raise SchemaError(
                    f"attribute '{attr}' of '{cls.name}' has no valid type"
                )
            if attr in merged:
                raise SchemaError(
                    f"attribute '{attr}' redeclared in '{cls.name}' "
                    f"(already declared by '{merged[attr][0]}')"
                )
            merged[attr] = (cls.name, atype)
        self._classes[cls.name] = cls
        self._flat[cls.name] = merged
        self._attr_types[cls.name] = MappingProxyType(
            {a: t for a, (_, t) in merged.items()})
        self._defaults[cls.name] = {
            a: t.default() for a, (_, t) in merged.items()}
        supers = frozenset({cls.name}).union(
            *(self._supers[sup] for sup in cls.supertypes))
        self._supers[cls.name] = supers
        self._subs[cls.name] = ()
        for sup in supers:
            self._subs[sup] += (cls.name,)


class Element:
    """Common state of vertices and edges: id, class, attribute store."""

    __slots__ = ("graph", "id", "class_name", "alive", "_attrs")
    _prefix = "x"

    def __init__(self, graph: Graph, eid: int, class_name: str):
        self.graph = graph
        self.id = eid
        self.class_name = class_name
        self.alive = True
        self._attrs = graph.schema._defaults[class_name].copy()

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
        self._require_alive()
        atype = self.graph.schema.attribute_type(self.class_name, name)
        if not atype.accepts(value):
            raise GraphError(
                f"attribute '{name}' of '{self.class_name}' expects "
                f"{atype.value}, got {value!r}"
            )
        value = atype.coerce(value)
        if isinstance(value, float) and not math.isfinite(value):
            raise GraphError(f"attribute '{name}' rejects non-finite value")
        old = self._attrs[name]
        if old == value and str(old) == str(value):  # -0.0 == 0.0
            return False
        self._attrs[name] = value
        self.graph._bump()
        return True

    def attr_names(self) -> list[str]:
        return list(self._attrs)

    def is_instance_of(self, class_name: str) -> bool:
        return self.graph.schema.conforms(self.class_name, class_name)

    def _require_alive(self):
        if not self.alive:
            raise GraphError(f"element {self.ref()} was deleted")


class Vertex(Element):
    __slots__ = ("_entries",)
    _prefix = "v"
    kind = "vertex"

    def __init__(self, graph, eid, class_name):
        super().__init__(graph, eid, class_name)
        # Combined incidence sequence in creation order, as the keys of an
        # insertion-ordered dict so one entry is removed in O(1); a loop
        # edge contributes one "out" and one "in" entry.
        self._entries: dict[tuple[str, Edge], None] = {}

    def incidences(self, direction: str = "both") -> list[tuple[str, Edge]]:
        self._require_alive()
        if direction not in ("out", "in", "both"):
            raise GraphError(f"invalid direction '{direction}'")
        if direction == "both":
            return list(self._entries)
        return [(d, e) for d, e in self._entries if d == direction]

    def incident(self, direction: str = "both", classes=None) -> list[Edge]:
        """Incident edges in incidence order, optionally class-filtered.

        A class filter matches the named classes and their subclasses.
        """
        entries = self.incidences(direction)
        if classes is None:
            return [e for _, e in entries]
        schema = self.graph.schema
        for c in classes:
            schema.edge_class(c)
        return [
            e for _, e in entries
            if any(schema.conforms(e.class_name, c) for c in classes)
        ]

    def degree(self, classes=None) -> int:
        return len(self.incident("both", classes))


class Edge(Element):
    __slots__ = ("start", "end")
    _prefix = "e"
    kind = "edge"

    def __init__(self, graph, eid, class_name, start: Vertex, end: Vertex):
        super().__init__(graph, eid, class_name)
        self.start = start
        self.end = end


class Graph:
    """Instance-level graph over a schema.

    A graph is a single-writer value: callers serialize mutations, while
    any number of concurrent readers are safe.  `revision` increases on
    every effective change (element created or deleted, attribute value
    actually changed).
    """

    def __init__(self, schema: Schema, name: str = "g"):
        self.schema = schema
        self.name = name
        self.revision = 0
        self._vertices: dict[int, Vertex] = {}
        self._edges: dict[int, Edge] = {}
        self._next_vid = 1
        self._next_eid = 1

    def _bump(self):
        self.revision += 1

    @property
    def vertices(self) -> list[Vertex]:
        return list(self._vertices.values())

    @property
    def edges(self) -> list[Edge]:
        return list(self._edges.values())

    def vertex(self, vid: int) -> Vertex:
        v = self._vertices.get(vid)
        if v is None:
            raise GraphError(f"unknown or deleted vertex v{vid}")
        return v

    def edge(self, eid: int) -> Edge:
        e = self._edges.get(eid)
        if e is None:
            raise GraphError(f"unknown or deleted edge e{eid}")
        return e

    def create_vertex(self, class_name: str) -> Vertex:
        cls = self.schema.vertex_class(class_name)
        if cls.is_abstract:
            raise GraphError(f"class '{class_name}' is abstract")
        v = Vertex(self, self._next_vid, class_name)
        self._next_vid += 1
        self._vertices[v.id] = v
        self._bump()
        return v

    def create_edge(self, class_name: str, start: Vertex, end: Vertex) -> Edge:
        cls = self.schema.edge_class(class_name)
        if cls.is_abstract:
            raise GraphError(f"class '{class_name}' is abstract")
        for endpoint in (start, end):
            if not isinstance(endpoint, Vertex) or endpoint.graph is not self:
                raise GraphError("edge endpoint is not a vertex of this graph")
            if not endpoint.alive:
                raise GraphError(
                    f"edge endpoint {endpoint.ref()} was deleted"
                )
        if not self.schema.conforms(start.class_name, cls.from_class):
            raise GraphError(
                f"start vertex of '{class_name}' must conform to "
                f"'{cls.from_class}', got '{start.class_name}'"
            )
        if not self.schema.conforms(end.class_name, cls.to_class):
            raise GraphError(
                f"end vertex of '{class_name}' must conform to "
                f"'{cls.to_class}', got '{end.class_name}'"
            )
        e = Edge(self, self._next_eid, class_name, start, end)
        self._next_eid += 1
        self._edges[e.id] = e
        start._entries[("out", e)] = None
        end._entries[("in", e)] = None
        self._bump()
        return e

    def delete_edge(self, e: Edge) -> list[Edge]:
        if not isinstance(e, Edge) or e.graph is not self:
            raise GraphError("not an edge of this graph")
        e._require_alive()
        del e.start._entries[("out", e)]
        del e.end._entries[("in", e)]
        del self._edges[e.id]
        e.alive = False
        self._bump()
        return [e]

    def delete_vertex(self, v: Vertex) -> list[Element]:
        """Delete a vertex and every incident edge.

        Returns the full deleted set: the vertex first, then the cascaded
        edges in incidence order.
        """
        if not isinstance(v, Vertex) or v.graph is not self:
            raise GraphError("not a vertex of this graph")
        v._require_alive()
        cascade: list[Edge] = []
        for _, e in list(v._entries):
            if e.alive:
                self.delete_edge(e)
                cascade.append(e)
        del self._vertices[v.id]
        v.alive = False
        self._bump()
        return [v, *cascade]
