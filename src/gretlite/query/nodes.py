"""AST node types for the query language."""

from gretlite.record import Record


class ClassSpec(Record):
    __slots__ = ("name", "exact")  # exact: True for T! (no subclasses)
    _defaults = {"exact": False}


class PathStep(Record):
    # direction: "out" -->, "in" <--, "both" <->, "agg" <>--
    __slots__ = ("direction", "classes")  # classes: tuple[ClassSpec, ...]
    _defaults = {"classes": ()}


class Literal(Record):
    __slots__ = ("value",)


class VarRef(Record):
    __slots__ = ("name",)


class DollarRef(Record):
    __slots__ = ()


class ElementSet(Record):
    __slots__ = ("kind", "classes")  # "V" or "E"; ClassSpecs, empty = all
    _defaults = {"classes": ()}


class DeclGroup(Record):
    __slots__ = ("names", "domain")


class Comprehension(Record):
    # kind: "list", "set", "map"; exprs: the report projections, for "map"
    # the key expression and the mapped value, in that order
    __slots__ = ("decls", "condition", "kind", "exprs")
    _defaults = {"exprs": ()}


class PathApply(Record):
    __slots__ = ("start", "steps")  # steps: tuple[PathStep, ...]


class Call(Record):
    __slots__ = ("name", "classes", "args")  # classes: None or ClassSpecs


class MapLit(Record):
    __slots__ = ("entries",)  # tuple of (key, value) expression pairs


class Unary(Record):
    __slots__ = ("op", "operand")  # op: "neg", "not"


class Binary(Record):
    __slots__ = ("op", "left", "right")


class Conditional(Record):
    __slots__ = ("condition", "then_expr", "else_expr")


class AttrAccess(Record):
    __slots__ = ("target", "name")


class Index(Record):
    __slots__ = ("target", "index")


# the fields that hold a node's subexpressions, in evaluation order
_PARTS = {Binary: ("left", "right"), PathApply: ("start",),
          AttrAccess: ("target",), Unary: ("operand",),
          Conditional: ("condition", "then_expr", "else_expr"),
          Index: ("target", "index")}


def children(node) -> tuple:
    """The subexpressions of `node`, in evaluation order.

    For a comprehension: each domain, the condition, then the projections,
    a map's key and value; walkers that track scope handle it themselves.
    """
    match node:
        case Call():
            return node.args
        case MapLit():
            return tuple(part for entry in node.entries for part in entry)
        case Comprehension():
            parts = [g.domain for g in node.decls]
            if node.condition is not None:
                parts.append(node.condition)
            return (*parts, *node.exprs)
    return tuple([getattr(node, part) for part in _PARTS.get(type(node), ())])
