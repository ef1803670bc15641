"""AST node types for the query language."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClassSpec:
    name: str
    exact: bool = False  # True for T! (no subclasses)


@dataclass(frozen=True)
class PathStep:
    direction: str  # "out" -->, "in" <--, "both" <->, "agg" <>--
    classes: tuple[ClassSpec, ...] = ()


@dataclass(frozen=True)
class Literal:
    value: object


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class DollarRef:
    pass


@dataclass(frozen=True)
class ElementSet:
    kind: str  # "V" or "E"
    classes: tuple[ClassSpec, ...] = ()  # empty = all


@dataclass(frozen=True)
class DeclGroup:
    names: tuple[str, ...]
    domain: object


@dataclass(frozen=True)
class Comprehension:
    decls: tuple[DeclGroup, ...]
    condition: object | None
    kind: str  # "list", "set", "map"
    exprs: tuple = ()  # report projections; for "map" the key expression
    value_expr: object | None = None  # mapped value for "map"


@dataclass(frozen=True)
class PathApply:
    start: object
    steps: tuple[PathStep, ...]


@dataclass(frozen=True)
class Call:
    name: str
    classes: tuple[ClassSpec, ...] | None
    args: tuple


@dataclass(frozen=True)
class MapLit:
    entries: tuple[tuple[object, object], ...]


@dataclass(frozen=True)
class Unary:
    op: str  # "neg", "not"
    operand: object


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Conditional:
    condition: object
    then_expr: object
    else_expr: object


@dataclass(frozen=True)
class AttrAccess:
    target: object
    name: str


@dataclass(frozen=True)
class Index:
    target: object
    index: object


def children(node) -> tuple:
    """The subexpressions of `node`, in evaluation order.

    For a comprehension: each domain, the condition, the projections and
    the mapped value; walkers that track scope handle it themselves.
    """
    match node:
        case Binary():
            return (node.left, node.right)
        case Call():
            return node.args
        case PathApply():
            return (node.start,)
        case AttrAccess():
            return (node.target,)
        case Unary():
            return (node.operand,)
        case Conditional():
            return (node.condition, node.then_expr, node.else_expr)
        case Index():
            return (node.target, node.index)
        case MapLit():
            return tuple(part for entry in node.entries for part in entry)
        case Comprehension():
            parts = [g.domain for g in node.decls]
            if node.condition is not None:
                parts.append(node.condition)
            parts.extend(node.exprs)
            if node.value_expr is not None:
                parts.append(node.value_expr)
            return tuple(parts)
    return ()
