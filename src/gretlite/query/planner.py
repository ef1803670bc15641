"""Plans for comprehensions: early selection, hash equi-joins, invariants.

A comprehension `from x1 : D1, x2 : D2, ... with c1 and c2 and ... report
...` binds one variable per level, in declaration order (each name of a
multi-name group is a level of its own, over the group's one domain).  Its
plan says what the evaluator checks at each level:

* Placement.  The `with` clause's top-level `and` chain is split into
  conjuncts.  Each is checked right after the level that binds the last of
  the comprehension's variables it mentions, so a partial row is dropped
  as soon as one conjunct is not `true`; a conjunct over none of them is
  checked once, before the loops.  Conjuncts of one level keep their
  source order.
* Joins.  A conjunct `A = B` placed at level k, where one side mentions
  (of the query's comprehension variables) only level k's and the other
  side some earlier ones of this comprehension, becomes a hash index:
  the level's domain members are bucketed by the `value_key` of their
  side, in domain order, and each row probes it with the other side.
  The domain must mention no comprehension variable of the query, so
  the evaluator builds the index once per `evaluate` call.  Any other
  `=` stays a check.
* Invariants.  `Planner.invariant` tells which subexpressions mention no
  variable declared by any comprehension of the query; the evaluator
  computes each largest one that is not a literal at most once per
  `evaluate` call, on first use.
* A `Planner` is made for the outermost comprehension of a query, its
  root, and plans the nested ones too, since what is invariant depends
  on the whole query.

A plan holds the parsed nodes themselves and depends on the tree alone,
not on the graph or the bindings; the evaluator turns it into closures
(`gretlite.query.evaluator`).  All walks here use explicit stacks; only
nested comprehensions recurse, and the parser bounds their depth.
"""

from __future__ import annotations

from gretlite.query import nodes as n

_NONE = frozenset()


class Join:
    """A hash index over a level's domain, built once per `evaluate`."""

    __slots__ = ("key", "probe")

    def __init__(self, key, probe):
        self.key = key  # side over the level's variable: indexes the domain
        self.probe = probe  # side over earlier variables: looks it up


class Level:
    """One declared name, bound from its group's domain."""

    __slots__ = ("name", "decl", "domain", "checks", "join")

    def __init__(self, name: str, decl: n.DeclGroup, domain):
        self.name = name
        self.decl = decl
        self.domain = domain  # the group's domain, on its first name only
        self.checks = ()  # its conjuncts in source order, without the join
        self.join: Join | None = None


class Plan:
    __slots__ = ("kind", "levels", "pre_checks", "exprs", "value_expr",
                 "what")

    def __init__(self, kind: str, levels, pre_checks, exprs, value_expr,
                 what: str):
        self.kind = kind  # "list", "set" or "map"
        self.levels: tuple[Level, ...] = levels
        self.pre_checks = pre_checks  # conjuncts over none of its variables
        self.exprs = exprs
        self.value_expr = value_expr
        # the label of a conjunct that is neither boolean nor undefined:
        # the whole clause, or one operand of its `and` chain
        self.what = what


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


def free_variables(root) -> dict[int, frozenset]:
    """Free variable names of `root` and of every node below it, by id."""
    free: dict[int, frozenset] = {}
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        parts = n.children(node)
        if not done:
            stack.append((node, True))
            stack.extend((part, False) for part in parts)
        elif isinstance(node, n.VarRef):
            free[id(node)] = frozenset((node.name,))
        elif isinstance(node, n.Comprehension):
            names, bound = set(), set()
            for group, domain in zip(node.decls, parts):
                names |= free[id(domain)] - bound
                bound.update(group.names)
            for part in parts[len(node.decls):]:
                names |= free[id(part)] - bound
            free[id(node)] = frozenset(names)
        else:
            names = _NONE
            for part in parts:
                if free[id(part)]:
                    names = names | free[id(part)]
            free[id(node)] = names
    return free


def _declared(root) -> frozenset:
    names, stack = set(), [root]
    while stack:
        node = stack.pop()
        if isinstance(node, n.Comprehension):
            for group in node.decls:
                names.update(group.names)
        stack.extend(n.children(node))
    return frozenset(names)


class Planner:
    """Plans the comprehensions of the query whose outermost comprehension
    is `root`; the nodes it is asked about must lie within `root`."""

    def __init__(self, root: n.Comprehension):
        self.free = free_variables(root)
        self.declared = _declared(root)

    def invariant(self, node) -> bool:
        return self.free[id(node)].isdisjoint(self.declared)

    def plan(self, node: n.Comprehension) -> Plan:
        """The plan of `node`: `root` or a comprehension within it."""
        levels: list[Level] = []
        level_of: dict[str, int] = {}  # name -> its last declaring level
        for group in node.decls:
            for i, name in enumerate(group.names):
                level_of[name] = len(levels)
                levels.append(
                    Level(name, group, group.domain if i == 0 else None))

        placed: list[list] = [[] for _ in levels]
        pre = []
        split = [] if node.condition is None else conjuncts(node.condition)
        for conjunct in split:
            mine = self.mentioned(conjunct, level_of)
            (placed[max(mine)] if mine else pre).append(conjunct)

        for k, level in enumerate(levels):
            rest = placed[k]
            if self.invariant(level.decl.domain):
                for conjunct in rest:
                    level.join = self.join(conjunct, k, level.name, level_of)
                    if level.join is not None:
                        rest = [c for c in rest if c is not conjunct]
                        break
            level.checks = tuple(rest)

        return Plan(
            kind=node.kind,
            levels=tuple(levels),
            pre_checks=tuple(pre),
            exprs=node.exprs,
            value_expr=node.value_expr,
            what="'and' operand" if len(split) > 1 else "with-clause",
        )

    def mentioned(self, expr, level_of) -> set[int]:
        """The levels whose variables `expr` mentions."""
        return {level_of[x] for x in self.free[id(expr)] if x in level_of}

    def join(self, conjunct, k: int, name: str, level_of) -> Join | None:
        """A join for `conjunct` at level k, whose domain is invariant:
        the key side must mention no comprehension variable of the query
        but the level's own, so one index serves the whole call."""
        if not (isinstance(conjunct, n.Binary) and conjunct.op == "="):
            return None
        for key, probe in ((conjunct.left, conjunct.right),
                           (conjunct.right, conjunct.left)):
            # an invariant probe looks the index up once per evaluation,
            # which gains nothing over checking the conjunct
            if (name in self.free[id(key)]
                    and self.free[id(key)].isdisjoint(self.declared - {name})
                    and all(j < k for j in self.mentioned(probe, level_of))
                    and not self.invariant(probe)):
                return Join(key, probe)
        return None
