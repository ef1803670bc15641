"""Evaluator for the query language.

A `Query` is an expression planned whole (`gretlite.query.planner`), then
compiled into nested closures, one per node, each a function from a row
to the node's value (Feeley & Lapalme 1987); `evaluate` runs one.  A
script compiles each expression once per op.

* A row (`Bindings`) is a tuple: the values of the names the query was
  compiled with (`evaluate`'s bindings, a template's `$`), then one per
  comprehension level, bound by `child`.  A variable compiles to its
  slot's index, a name bound nowhere to the `outer` getter of a script's
  `img_T`/`arch_T`, read once per evaluation, or to a closure that raises.
* A builtin gets its arguments' values straight.  An unknown function
  or class, a wrong arity or a needless qualifier raises when evaluated.
* An operator chain is combined from the leftmost operand up, without
  recursion.  A comprehension runs its plan, whose joins and semi-joins
  bind a level's hits, in domain order, from a position index over its
  domain.

Each piece of work is done once per evaluation and key.  A path or
comprehension in a loop that mentions, of the comprehension variables in
scope, only ones bound before its level is computed once per key, the
values in their slots; so is any subexpression in a loop that mentions
none, with the empty key, as are join indexes and the class names of
path steps and `degree{...}`.  Elements key by identity, strings,
integers and booleans by type and value; any other value bypasses the
memo (`1 ++ ""` and `1.0 ++ ""` differ).  A memo is shared by shape and
key names, and compiled once, on a row of the root's slots and then the
key's values: `C` in `tup(count(C), C)` is computed once.  Memo tables
are emptied after each evaluation: the graph may change between two.

Rows come out in the order of the nested loops, so a plan changes what
is computed, not the result; but a join computes its index and probe
before its level's checks, so a `with` clause may raise on another
binding than left-to-right evaluation would, or where it would not, or
not at all.  Collections follow graph creation order.
"""

from __future__ import annotations

import math
import operator
import sys

from gretlite import model
from gretlite.errors import GraphError, QueryError, SchemaError
from gretlite.query import nodes as n
from gretlite.query.planner import Planner
from gretlite.values import (UNDEFINED, OrderedSet, ValueMap, is_collection,
                             leaves, to_text, value_equal, value_key)

_MISSING = object()
_NONE = frozenset()
_UNMEMOISED = (n.Literal, n.VarRef, n.DollarRef)  # nothing to save
_KEYED = (n.PathApply, n.Comprehension)  # work worth a memo with a key
_COMPARISONS = frozenset(("=", "<>", "<", "<=", ">", ">="))
_LOGIC = frozenset(("and", "or"))
_OPERATORS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
              ">=": operator.ge, "+": operator.add, "-": operator.sub,
              "*": operator.mul, "/": operator.truediv, "%": operator.mod}
# the incidence flags a step follows: OUT to an edge's end, IN to its start
_STEP_FOLLOWS = {"out": model.OUT, "agg": model.OUT, "in": model.IN,
                 "both": model.OUT | model.IN}


class Bindings(tuple):
    """A row: the values of a query's slots, in order."""

    __slots__ = ()

    def child(self, value):  # the row with `value` in the next slot
        return Bindings((*self, value))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _require_bool(v, what: str):
    if v is UNDEFINED or isinstance(v, bool):
        return v
    raise QueryError(f"{what} must be a boolean")


def evaluate(query, graph: model.Graph, bindings=None):
    """The value of `query`, an expression or a `Query` made for `graph`
    and the names of `bindings` (name -> value), with `bindings` bound."""
    if not isinstance(query, Query):
        query = Query(query, graph, tuple(bindings or ()))
    assert query.graph is graph, "a Query runs on the graph it was made for"
    try:
        return query.run(Bindings([bindings[x] for x in query.names]))
    finally:
        for table in query.tables:
            table.clear()


def eval_path(graph: model.Graph, start: model.Vertex, steps, classes):
    """Vertices reachable from `start` by applying each step in sequence.
    `classes` holds, per step, the edge class names it may traverse, or
    None for any, as `_step_classes` resolves them: so an aggregation step
    goes forward over aggregation edge classes only."""
    if not isinstance(start, model.Vertex):
        raise QueryError("path expressions start at a vertex")
    start._require_alive()
    # a frontier maps each vertex to itself, as the result's store does;
    # vertices hash by identity, so no vertex needs a `value_key`
    frontier = {start: start}
    for step, allowed in zip(steps, classes):
        follow = _STEP_FOLLOWS[step.direction]
        out = {}
        for v in frontier:
            for edge, flags in v._entries.items():
                if allowed is not None and edge.class_name not in allowed:
                    continue
                flags &= follow
                if flags & model.OUT:
                    out[edge.end] = edge.end
                if flags & model.IN:
                    out[edge.start] = edge.start
        frontier = out
    return OrderedSet.of_elements(frontier)


def _class_names(schema: model.Schema, specs, kind: str,
                 aggregations_only=False) -> frozenset | None:
    """The names of the classes of `kind` ("V" or "E") that `specs` admit,
    or None for any; with `aggregations_only` (a '<>--' step), only
    aggregation edge classes, all of them if `specs` is empty."""
    if not specs:
        return frozenset(c.name for c in schema.edge_classes
                         if c.is_aggregation) if aggregations_only else None
    lookup = schema.vertex_class if kind == "V" else schema.edge_class
    names: set[str] = set()
    for spec in specs:
        try:
            cls = lookup(spec.name)
        except SchemaError as exc:
            raise QueryError(str(exc)) from None
        if aggregations_only and not cls.is_aggregation:
            raise QueryError(
                f"'<>--' traverses aggregation edge classes only, and "
                f"'{spec.name}' is not one"
            )
        if spec.exact:
            names.add(spec.name)
        else:
            names.update(schema.subclasses(spec.name))
    return frozenset(names)


def _step_classes(schema: model.Schema, steps) -> tuple:
    """Per step, the edge class names it may traverse, or None for any."""
    return tuple(_class_names(schema, s.classes, "E", s.direction == "agg")
                 for s in steps)


def _element_set(graph: model.Graph, node: n.ElementSet):
    pool = graph.vertices if node.kind == "V" else graph.edges
    allowed = _class_names(graph.schema, node.classes, node.kind)
    if allowed is None:
        return OrderedSet.of_elements(dict(zip(pool, pool)))
    return OrderedSet.of_elements(
        {el: el for el in pool if el.class_name in allowed})


class Query:
    """`root` compiled for evaluations on `graph` that bind `names`, in
    order; `outer` maps any other free name to a function of no arguments
    returning its value, or to None.  `run` maps a row to the value."""

    __slots__ = ("graph", "names", "outer", "planner", "shared", "tables",
                 "run")

    def __init__(self, root, graph: model.Graph, names=(), outer=None):
        self.graph, self.outer, self.planner = graph, outer, Planner(root)
        self.names = {name: slot for slot, name in enumerate(names)}
        self.shared, self.tables = {}, []  # (shape, key) -> (table, fn)
        self.run = self.compile(root, ({}, len(names), _NONE, None))

    def compile(self, node, at):
        """A function from a row to `node`'s value where `at` says: (slots
        in scope by name, row length, its level's name, memo key or None)."""
        key = self.memo_key(node, at)
        if key is not None:  # compiled once, on a row of its own
            root, slot = len(self.names), (self.planner.shape[id(node)], key)
            if slot not in self.shared:
                frame = range(root, root + len(key))
                self.tables.append({})
                self.shared[slot] = self.tables[-1], self.compile(
                    node, (dict(zip(key, frame)), frame.stop, _NONE, key))
            table, fn = self.shared[slot]
            return self.memo(fn, tuple([at[0][x] for x in key]), root, table)
        match node:
            case n.Literal(value=value):
                return lambda env: value
            case n.VarRef(name=name):
                return self.variable(name, at[0])
            case n.DollarRef():
                return self.variable("$", {})
            case n.ElementSet():
                return lambda env: _element_set(self.graph, node)
            case n.Comprehension():
                return self.comprehension(node, at)
            case n.Binary():
                return self.binary(node, at)
        parts = [self.compile(part, at) for part in n.children(node)]
        match node:
            case n.PathApply():
                return self.path(node, *parts)
            case n.Call(name="degree"):
                return self.degree(node, parts)
            case n.Call():
                return _call(node, parts)
            case n.MapLit():
                def map_literal(env):
                    values = iter([part(env) for part in parts])
                    return ValueMap(zip(values, values))
                return map_literal
            case n.Unary(op=op):
                operand, = parts
                return lambda env: _unary(op, operand(env))
            case n.Conditional():
                test, then, other = parts

                def conditional(env):
                    cond = _require_bool(test(env), "conditional test")
                    if cond is UNDEFINED:
                        return UNDEFINED
                    return then(env) if cond else other(env)
                return conditional
            case n.AttrAccess(name=name):
                target, = parts

                def attribute(env):
                    value = target(env)
                    if value is UNDEFINED:
                        return UNDEFINED
                    if not isinstance(value, model.Element):
                        raise QueryError(
                            f"'.{name}' applies to graph elements")
                    try:
                        return value.attr(name)
                    except GraphError as exc:
                        raise QueryError(str(exc)) from None
                return attribute
            case n.Index():
                target, index = parts
                return lambda env: _index(target(env), index(env))
        return raiser(f"cannot evaluate {node!r}")

    def variable(self, name: str, scope: dict):
        """The slot of `name` in scope or the root's, else its getter."""
        slot = scope.get(name, self.names.get(name))
        if slot is not None:
            return operator.itemgetter(slot)
        get = self.outer and self.outer(name)
        if get is not None:
            return self.memo(lambda env: get())
        return raiser("'$' is not bound here" if name == "$"
                       else f"unbound variable '{name}'")

    def memo_key(self, node, at) -> tuple | None:
        """The names of the variables keying `node`'s memo where `at` says;
        None for a literal, variable or `$`, what mentions its level's
        variable or its memo's key computes, what occurs once outside
        every loop, and any keyed but a path or comprehension."""
        planner = self.planner
        if isinstance(node, _UNMEMOISED):
            return None
        scope, _, fresh, held = at
        key = tuple(sorted(planner.free[id(node)].intersection(scope)))
        if not fresh.isdisjoint(key) or key == held or not (
                scope or planner.count[planner.shape[id(node)]] > 1) or (
                key and not isinstance(node, _KEYED)):
            return None
        return key

    def memo(self, fn, key=(), root=None, table=None):
        """`fn`, computed at most once per evaluation for each key: the
        values in the slots `key` (see the module docstring).  With `root`,
        `fn` runs on the row of the first `root` slots and those values."""
        if table is None:
            self.tables.append(table := {})

        def memo(env, *rest):
            values = key and tuple([_memo_key(env[slot]) for slot in key])
            value = table.get(values, _MISSING)
            if value is _MISSING:
                if root is not None:
                    env = Bindings((*env[:root], *[env[i] for i in key]))
                if None in values:  # a value that bypasses the memo
                    return fn(env, *rest)
                value = table[values] = fn(env, *rest)
            return value
        return memo

    # -- comprehensions ----------------------------------------------------

    def comprehension(self, node: n.Comprehension, at):
        """The nested loops of `node`'s plan.  Level k's domain runs on the
        row before k, its checks on the row up to k, projections on all."""
        plan = self.planner.plan(node)
        what, levels = plan.what, plan.levels
        scope, depth = at[0], at[1]
        pre = [self.compile(c, at) for c in plan.pre_checks]
        candidates, checks = [], []
        for k, level in enumerate(levels):
            before = (scope, depth + k, _NONE, None) if k else at
            scope = {**scope, level.name: depth + k}
            here = (scope, depth + k + 1, frozenset((level.name,)), None)
            candidates.append(self.candidates(level, k, before, here))
            checks.append([self.compile(c, here) for c in level.checks])
        exprs = [self.compile(e, here) for e in node.exprs]
        project = exprs[0] if len(exprs) == 1 else _tuple_of(exprs)
        new, add = _RESULTS[node.kind]
        last = len(levels) - 1

        def comprehension(env):
            result = new()
            if not _holds(pre, env, what):
                return result
            # The nested loops, one per level, as a stack of iterators:
            # scopes[k] is the row bound before level k, pools[k] level k's
            # domain, rows[k] iterates level k's candidates for the row.
            pools, scopes = [None] * len(levels), [env] * len(levels)
            rows = [candidates[0](env, pools)] + [None] * last
            k = 0
            while k >= 0:
                member = next(rows[k], _MISSING)
                if member is _MISSING:
                    k -= 1
                    continue
                scope = scopes[k].child(member)
                if checks[k] and not _holds(checks[k], scope, what):
                    continue
                if k < last:
                    k += 1
                    scopes[k] = scope
                    rows[k] = candidates[k](scope, pools)
                else:
                    add(result, project(scope))
            return result
        return comprehension

    def candidates(self, level, k: int, before, here):
        """A function from the row before level k and the domains so far to
        an iterator over what level k may bind: with a join, the domain
        positions its probe's value (or members) index, in domain order."""
        names, join = level.decl.names, level.join
        bad = f"declaration domain of {', '.join(names)} must be a collection"
        domain = level.domain and self.compile(level.domain, before)
        if join is not None:
            many = join.many
            key = (None if isinstance(join.key, n.VarRef)
                   else self.compile(join.key, here))
            # the probe runs on the row before level k, like the domain
            probe = self.compile(join.probe, (*before[:2], here[2], None))
            index = self.memo(lambda scope, pool: _position_index(
                key, pool, scope))

        def candidates(scope, pools):
            if domain is not None:  # the first name of its group
                pool = domain(scope)
                if not is_collection(pool):
                    raise QueryError(bad)
                # collections are never changed once built: an invariant
                # domain is one value per evaluation, shared uncopied
                pools[k:k + len(names)] = [pool] * len(names)
            pool = pools[k]
            if join is None or not pool:
                return iter(pool)
            value = probe(scope)
            if not many:
                if value is UNDEFINED:
                    return iter(())
                members, positions = index(scope, pool)
                hits = positions.get(value_key(value), ())
            elif is_collection(value):
                members, positions = index(scope, pool)
                hits = sorted(p for key in {value_key(v) for v in value}
                              for p in positions.get(key, ()))
            else:
                raise QueryError("contains expects a collection")
            return map(members.__getitem__, hits)
        return candidates

    # -- operators, paths and calls ----------------------------------------

    def binary(self, node: n.Binary, at):
        op = node.op
        if op in _COMPARISONS:
            left = self.compile(node.left, at)
            right = self.compile(node.right, at)
            return lambda env: _compare(op, left(env), right(env))
        # A left-associative chain such as `a + b - c` or `a and b or c`
        # is a left spine of one operator family; compile it from the
        # leftmost operand up instead of recursing down it.  A memoised
        # part of the spine is an operand of its own.
        logic = op in _LOGIC
        chain = []
        while (isinstance(node, n.Binary) and node.op not in _COMPARISONS
               and (node.op in _LOGIC) == logic
               and not (chain and self.memo_key(node, at) is not None)):
            chain.append(node)
            node = node.left
        first = self.compile(node, at)
        links = [(link.op, self.compile(link.right, at))
                 for link in reversed(chain)]
        if not logic:
            def arithmetic(env):
                value = first(env)
                for op, right in links:
                    value = _arith(op, value, right(env))
                return value
            return arithmetic
        what = f"'{chain[-1].op}' operand"

        def logical(env):
            value = _require_bool(first(env), what)
            for op, right in links:
                value = _logic(op, value, right, env)
            return value
        return logical

    def path(self, node: n.PathApply, start):
        steps, graph = node.steps, self.graph
        classes = self.memo(lambda env: _step_classes(graph.schema, steps))

        def path(env):
            value = start(env)
            return UNDEFINED if value is UNDEFINED else eval_path(
                graph, value, steps, classes(env))
        return path

    def degree(self, node: n.Call, args):
        if len(args) != 1:
            return _applied(raiser(
                f"function 'degree' called with {len(args)} arguments"), args)
        graph, specs = self.graph, node.classes
        allowed = self.memo(lambda env: _class_names(graph.schema, specs, "E"))
        arg, = args

        def degree(env):
            v = arg(env)
            if not isinstance(v, model.Vertex):
                raise QueryError("degree expects a vertex")
            names = allowed(env)
            v._require_alive()
            return sum(flags.bit_count() for edge, flags in v._entries.items()
                       if names is None or edge.class_name in names)
        return degree


def _call(node: n.Call, parts):
    """A function from a row to the value of the call `node` on `parts`."""
    name = node.name
    fn, arity = _BUILTINS.get(name, (None, None))
    if node.classes is not None:
        fn = raiser(f"function '{name}' takes no class qualifier")
    elif fn is None:
        fn = raiser(f"unknown function '{name}'")
    elif arity is None:  # set, list, tup: a collection of the arguments
        values = _tuple_of(parts)
        return values if fn is tuple else lambda env: fn(values(env))
    elif arity != len(parts):
        fn = raiser(f"function '{name}' called with {len(parts)} arguments")
    return _applied(fn, parts)


def _applied(fn, parts):
    """A function from a row to `fn` applied to the values of `parts`."""
    if len(parts) == 1:
        first, = parts
        return lambda env: fn(first(env))
    if len(parts) == 2:
        first, second = parts
        return lambda env: fn(first(env), second(env))
    return lambda env: fn(*[part(env) for part in parts])


def _tuple_of(parts):
    """A function from a row to the tuple of the values of `parts`."""
    if len(parts) == 2:
        first, second = parts
        return lambda env: (first(env), second(env))
    if len(parts) == 3:
        first, second, third = parts
        return lambda env: (first(env), second(env), third(env))
    return lambda env: tuple([part(env) for part in parts])


# per comprehension kind: the type of its result, and how a row is added
_RESULTS = {"list": (list, list.append), "set": (OrderedSet, OrderedSet.add),
            "map": (ValueMap, lambda result, entry: result.put(*entry))}


def raiser(message: str):
    """A function that raises `message` when called, on any arguments."""
    def fail(*_):
        raise QueryError(message)
    return fail


def _memo_key(value):
    """`value` as part of a memo key, or None if it bypasses the memo."""
    kind = type(value)
    if kind is str or kind is int or kind is bool:
        return kind, value
    return value if isinstance(value, model.Element) else None


def _position_index(key, pool, scope: Bindings):
    """`pool` as a list, and its positions by the `value_key` of `key` on
    `scope` with each member bound next (of the member if `key` is None)."""
    members, positions = list(pool), {}
    for p, member in enumerate(members):
        found = member if key is None else key(scope.child(member))
        positions.setdefault(value_key(found), []).append(p)
    return members, positions


def _holds(checks, scope: Bindings, what: str) -> bool:
    for check in checks:
        value = check(scope)
        if value is not True:
            _require_bool(value, what)
            return False
    return True


# -- operators ----------------------------------------------------------------

def _unary(op: str, value):
    if value is UNDEFINED:
        return UNDEFINED
    if op == "neg":
        if not _is_number(value):
            raise QueryError("unary '-' expects a number")
        return -value
    if not isinstance(value, bool):
        raise QueryError("'not' expects a boolean")
    return not value


def _logic(op: str, left, right, env: Bindings):
    if op == "and" and left is False:
        return False
    if op == "or" and left is True:
        return True
    right = _require_bool(right(env), f"'{op}' operand")
    if right is UNDEFINED or left is UNDEFINED:
        # three-valued logic: a definite right answer may still decide
        if op == "and":
            return False if right is False else UNDEFINED
        return True if right is True else UNDEFINED
    return right


def _compare(op: str, left, right):
    if left is UNDEFINED or right is UNDEFINED:
        return False
    if op == "=" or op == "<>":
        return value_equal(left, right) == (op == "=")
    if not (_is_number(left) and _is_number(right)
            or isinstance(left, str) and isinstance(right, str)):
        raise QueryError(f"'{op}' expects two numbers or two strings")
    return _OPERATORS[op](left, right)


def _arith(op: str, left, right):
    if left is UNDEFINED or right is UNDEFINED:
        return UNDEFINED
    if op == "++":
        return to_text(left) + to_text(right)
    if not (_is_number(left) and _is_number(right)):
        raise QueryError(f"'{op}' expects numbers")
    if op == "%" and not (isinstance(left, int) and isinstance(right, int)):
        raise QueryError("'%' expects integers")
    if op in ("/", "%") and right == 0:
        raise QueryError("division by zero")
    try:
        result = _OPERATORS[op](left, right)
    except OverflowError:  # an integer operand or quotient beyond a float
        raise QueryError(f"'{op}' result does not fit in a Double") from None
    if isinstance(result, float) and math.isnan(result):
        return UNDEFINED
    # str() rejects an int longer than the interpreter's digit limit (0: none,
    # as before Python 3.10.7; else >= 640 digits, more than 1920 bits hold)
    if isinstance(result, int) and result.bit_length() > 1920:
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit and abs(result) >= 10 ** limit:
            raise QueryError(f"'{op}' result has more than {limit} digits")
    return result


def _index(target, index):
    if target is UNDEFINED:
        return UNDEFINED
    if not isinstance(target, (tuple, list)):
        raise QueryError("indexing applies to tuples and lists")
    if not isinstance(index, int) or isinstance(index, bool):
        raise QueryError("index must be an integer")
    if index < 0 or index >= len(target):
        raise QueryError(
            f"index {index} out of range for length {len(target)}")
    return target[index]


# -- builtin functions --------------------------------------------------------

def _size(name, empty=False):
    def size(coll):
        if not (is_collection(coll) or isinstance(coll, ValueMap)):
            raise QueryError(f"{name} expects a collection")
        return len(coll) == 0 if empty else len(coll)
    return size


def _builtin_the_element(coll):
    if not is_collection(coll):
        raise QueryError("theElement expects a collection")
    if len(coll) != 1:
        raise QueryError(
            f"theElement expects exactly one element, got {len(coll)}")
    return next(iter(coll))


def _builtin_contains(coll, needle):
    if isinstance(coll, OrderedSet):
        return needle in coll
    if isinstance(coll, (list, tuple)):
        return any(value_equal(member, needle) for member in coll)
    raise QueryError("contains expects a collection")


def _builtin_key_set(value):
    if not isinstance(value, ValueMap):
        raise QueryError("keySet expects a map")
    return OrderedSet(value.keys())


def _builtin_flatten(coll):
    if not is_collection(coll):
        raise QueryError("flatten expects a collection")
    return list(leaves(coll))


def _builtin_has_type(el, name):
    if not isinstance(el, model.Element):
        raise QueryError("hasType expects a graph element")
    if not isinstance(name, str):
        raise QueryError("hasType expects a class name string")
    supers = el.graph.schema._supers
    if name not in supers:
        raise QueryError(f"unknown class '{name}'")
    return name in supers[el.class_name]


def _edge_endpoint(which):
    def endpoint(edge):
        if not isinstance(edge, model.Edge):
            raise QueryError(f"{which} expects an edge")
        return edge.start if which == "startVertex" else edge.end
    return endpoint


# name -> (function, number of arguments, or None for any)
_BUILTINS = {
    "count": (_size("count"), 1),
    "theElement": (_builtin_the_element, 1),
    "contains": (_builtin_contains, 2),
    "isEmpty": (_size("isEmpty", empty=True), 1),
    "keySet": (_builtin_key_set, 1),
    "flatten": (_builtin_flatten, 1),
    "hasType": (_builtin_has_type, 2),
    "startVertex": (_edge_endpoint("startVertex"), 1),
    "endVertex": (_edge_endpoint("endVertex"), 1),
    "set": (OrderedSet, None),
    "list": (list, None),
    "tup": (tuple, None),
}
