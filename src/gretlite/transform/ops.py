"""Operation and template types of the transformation script language."""

from gretlite.record import Record


def trace_view(name: str) -> tuple[str, str] | None:
    """("img", T) for the name `img_T`, ("arch", T) for `arch_T`: the
    views of the trace a script's queries read; None for any other name."""
    kind, underscore, cls = name.partition("_")
    return (kind, cls) if underscore and kind in ("img", "arch") else None


class TemplateVertex(Record):
    """One parenthesized template item.

    Exactly one of `class_name` (a vertex to create, with mandatory
    archetype expression) or `ref` (an expression naming an existing
    element to preserve) is set.
    """

    __slots__ = ("alias", "class_name", "arch", "ref", "assigns")
    _defaults = {"class_name": None, "arch": None, "ref": None, "assigns": ()}

    @property
    def is_ref(self) -> bool:
        return self.ref is not None


class TemplateEdge(Record):
    __slots__ = ("class_name", "start_alias", "end_alias", "arch", "assigns")
    _defaults = {"arch": None, "assigns": ()}


class Template(Record):
    __slots__ = ("vertices", "edges")  # TemplateVertex and TemplateEdge tuples


class CreateVertices(Record):
    __slots__ = ("class_name", "query")


class CreateEdges(Record):
    __slots__ = ("class_name", "query")


class SetAttributes(Record):
    __slots__ = ("class_name", "attr_name", "query")


class CreateSubgraph(Record):
    __slots__ = ("template", "query")


class MatchReplace(Record):
    __slots__ = ("template", "query")


class Delete(Record):
    __slots__ = ("query",)


class Iteratively(Record):
    __slots__ = ("body",)


class Transformation(Record):
    __slots__ = ("name", "ops", "lines")  # lines: where each op starts
