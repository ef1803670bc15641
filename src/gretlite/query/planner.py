"""Plans for comprehensions: early selection, index joins, shapes.

A comprehension `from x1 : D1, x2 : D2, ... with c1 and c2 and ... report
...` binds one variable per level, in declaration order (each name of a
multi-name group is a level of its own, over the group's one domain).  Its
plan says what the evaluator does at each level:

* Placement.  The `with` clause's top-level `and` chain is split into
  conjuncts.  Each is checked right after the level that binds the last of
  the comprehension's variables it mentions, in source order; one over
  none of them is checked once, before the loops.
* Joins.  The first conjunct of level k of one of two forms is answered
  from an index over the level's domain instead of being checked: `A = B`
  where one side (the key) mentions, of the query's comprehension
  variables, only level k's, and the other (the probe) some earlier ones;
  or the semi-join `contains(S, x)`, where x is level k's variable and S
  mentions only earlier ones.  The domain must mention no comprehension
  variable, so one index serves a whole evaluation.

A `Planner` is made for the whole expression of a compiled query.  It
knows the free variables of every node and its shape: an integer that
two nodes share when they are structurally equal (`1` and `1.0`, or
`-0.0` and `0.0`, are not), and how often each shape occurs.  All walks
here use explicit stacks; only nested comprehensions recurse, and the
parser bounds their depth.
"""

from __future__ import annotations

from gretlite.query import nodes as n
from gretlite.record import Record

_NONE = frozenset()


class Join(Record):
    """A conjunct answered from an index over the level's domain, by `key`
    (over the level's variable), at the value of `probe` (over earlier
    ones) or, with `many` (`contains(probe, key)`), at each member."""

    __slots__ = ("key", "probe", "many")


class Level(Record):
    """A declared name, bound from its group's `domain` (on the first name
    only), with its conjuncts but the `join` in source order (`checks`)."""

    __slots__ = ("name", "decl", "domain", "checks", "join")


class Plan(Record):
    """`what` labels a conjunct that is neither boolean nor undefined."""

    __slots__ = ("levels", "pre_checks", "what")


def conjuncts(condition) -> list:
    """The members of the top-level `and` chain of `condition`, in order."""
    out, stack = [], [condition]
    while stack:
        node = stack.pop()
        if isinstance(node, n.Binary) and node.op == "and":
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    return out


def _label(node) -> tuple:
    """What tells `node` apart from a node of its class whose children
    have the same shapes, as flat data: `Record` hashing would recurse."""
    match node:
        case n.Literal(value=value):  # tells 1 from 1.0, -0.0 from 0.0
            return (type(value), repr(value))
        case n.ElementSet(kind=text) | n.Call(name=text):
            return (text, repr(node.classes))
        case n.PathApply():
            return (repr(node.steps),)
        case n.Comprehension():
            return (node.kind, tuple(g.names for g in node.decls),
                    node.condition is None)
    return (getattr(node, "name", None), getattr(node, "op", None))


class Planner:
    """Plans the comprehensions of the expression `root`; the nodes it is
    asked about must lie within `root`."""

    def __init__(self, root):
        # by node id: its free variable names and its shape; by shape: how
        # many nodes have it
        self.free, self.shape, self.count = free, shape, count = {}, {}, {}
        shapes: dict[tuple, int] = {}
        declared = set()
        order, stack = [], [root]  # parents before their parts
        while stack:
            node = stack.pop()
            order.append((node, n.children(node)))
            stack.extend(order[-1][1])
        for node, parts in reversed(order):
            ids = [id(part) for part in parts]
            if isinstance(node, n.VarRef):
                names = frozenset((node.name,))
            elif isinstance(node, n.Comprehension):
                names, bound = set(), set()
                for group, i in zip(node.decls, ids):
                    names |= free[i] - bound
                    bound.update(group.names)
                for i in ids[len(node.decls):]:
                    names |= free[i] - bound
                names = frozenset(names)
                declared |= bound
            else:
                names = _NONE.union(*[free[i] for i in ids])
            free[id(node)] = names
            key = (type(node), _label(node), *[shape[i] for i in ids])
            shape[id(node)] = k = shapes.setdefault(key, len(shapes))
            count[k] = count.get(k, 0) + 1
        self.declared = frozenset(declared)

    def invariant(self, node) -> bool:
        """Whether `node` mentions no variable declared in the query."""
        return self.free[id(node)].isdisjoint(self.declared)

    def plan(self, node: n.Comprehension) -> Plan:
        """The plan of `node`: `root` or a comprehension within it."""
        decls = [(name, group, group.domain if i == 0 else None)
                 for group in node.decls for i, name in enumerate(group.names)]
        level_of = {name: k for k, (name, _, _) in enumerate(decls)}  # last
        placed: list[list] = [[] for _ in decls]
        pre = []
        split = [] if node.condition is None else conjuncts(node.condition)
        for conjunct in split:
            mine = self.mentioned(conjunct, level_of)
            (placed[max(mine)] if mine else pre).append(conjunct)

        levels = []
        for k, (name, group, domain) in enumerate(decls):
            rest, join = placed[k], None
            if self.invariant(group.domain):
                for conjunct in rest:
                    join = self.join(conjunct, k, name, level_of)
                    if join is not None:
                        rest = [c for c in rest if c is not conjunct]
                        break
            levels.append(Level(name, group, domain, tuple(rest), join))
        return Plan(tuple(levels), tuple(pre),
                    "'and' operand" if len(split) > 1 else "with-clause")

    def mentioned(self, expr, level_of) -> set[int]:
        """The levels whose variables `expr` mentions."""
        return {level_of[x] for x in self.free[id(expr)] if x in level_of}

    def join(self, conjunct, k: int, name: str, level_of) -> Join | None:
        """A join for `conjunct` at level k, whose domain is invariant: the
        key side mentions no comprehension variable of the query but the
        level's own, so one index serves a whole evaluation, and the probe
        only earlier ones.  An invariant probe of `=` would look the index
        up once per evaluation, which gains nothing over a check."""
        match conjunct:
            case n.Call(name="contains", classes=None,
                        args=(probe, n.VarRef(name=x) as key)) if x == name:
                sides, many = [(key, probe)], True
            case n.Binary(op="="):
                sides, many = [(conjunct.left, conjunct.right),
                               (conjunct.right, conjunct.left)], False
            case _:
                return None
        for key, probe in sides:
            if (name in self.free[id(key)]
                    and self.free[id(key)].isdisjoint(self.declared - {name})
                    and all(j < k for j in self.mentioned(probe, level_of))
                    and (many or not self.invariant(probe))):
                return Join(key, probe, many)
        return None
