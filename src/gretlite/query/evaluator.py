"""Evaluator for the query language.

`evaluate` compiles its expression into nested closures, one per node,
each a function from a `Bindings` to the node's value, and then runs
them.  Compiling is done once per call and resolves what the tree alone
fixes: the builtin a call names, how an operator chain combines its
operands (from the leftmost one up, without recursion), and the plan of
each comprehension (`gretlite.query.planner`):

* each conjunct of the `with` clause is checked right after the level that
  binds the last variable it mentions, so a partial row is dropped at its
  first conjunct that is not `true` (conjuncts over no variable are checked
  once, before the loops);
* an equality between the newest variable and earlier ones is a hash join
  on `value_key` over the level's domain, whose buckets keep domain order;
* subexpressions over no comprehension variable are computed at most once.

What depends on the graph or the bindings is computed on first use and
then kept in a slot of the call's `_Compiler`, a list whose indexes are
handed out while compiling: the value of each invariant subexpression,
the index of each join, and the class names that the class specs of each
path step and `degree{...}` resolve to.  So an unknown class, like an
unknown function or a wrong number of arguments, fails only when it is
evaluated, and a schema that gains classes between calls is seen by the
next call.  Nothing outlives the call.

A row is kept only if every conjunct is `true`, and rows come out in the
order of the nested loops, so a plan changes what is computed, not the
result.  Because conjuncts are checked in plan order, a `with` clause that
raises an error on some binding may raise it on another binding than
left-to-right evaluation would, or not at all.

Evaluation is a pure function of (expression, graph, bindings): repeated
runs yield structurally equal values with identical iteration orders,
because every collection is built in graph creation order.
"""

from __future__ import annotations

import math
import sys

from gretlite import model
from gretlite.errors import GraphError, QueryError, SchemaError
from gretlite.query import nodes as n
from gretlite.query.parser import parse_query
from gretlite.query.planner import Level, Plan, Planner
from gretlite.values import (
    UNDEFINED,
    OrderedSet,
    ValueMap,
    is_collection,
    leaves,
    to_text,
    value_equal,
    value_key,
)

_MISSING = object()
_COMPARISONS = frozenset(("=", "<>", "<", "<=", ">", ">="))
_LOGIC = frozenset(("and", "or"))
# the incidence direction a path step follows; `both` follows either
_STEP_WANT = {"out": "out", "agg": "out", "in": "in"}


class Bindings:
    """Lexically scoped variable environment.

    `fallback` (root scope only) resolves names the chain does not hold,
    e.g. the trace maps a transformation exposes; it returns None for
    unknown names.  `dollar` carries the current-member binding.
    """

    __slots__ = ("_vars", "_parent", "_fallback", "_dollar")

    def __init__(self, variables=None, parent=None, fallback=None,
                 dollar=_MISSING):
        self._vars = dict(variables) if variables else {}
        self._parent = parent
        self._fallback = fallback
        self._dollar = dollar

    def child(self, variables=None):
        return Bindings(variables, parent=self)

    def lookup(self, name: str):
        scope = self
        while scope is not None:
            if name in scope._vars:
                return scope._vars[name]
            if scope._parent is None and scope._fallback is not None:
                hit = scope._fallback(name)
                if hit is not None:
                    return hit
            scope = scope._parent
        raise QueryError(f"unbound variable '{name}'")

    def dollar(self):
        scope = self
        while scope is not None:
            if scope._dollar is not _MISSING:
                return scope._dollar
            scope = scope._parent
        raise QueryError("'$' is not bound here")


def _as_bindings(bindings) -> Bindings:
    if bindings is None:
        return Bindings()
    if isinstance(bindings, Bindings):
        return bindings
    return Bindings(dict(bindings))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _require_bool(v, what: str):
    if v is UNDEFINED or isinstance(v, bool):
        return v
    raise QueryError(f"{what} must be a boolean")


def evaluate(expr, graph: model.Graph, bindings=None):
    return _Compiler(graph).compile(expr)(_as_bindings(bindings))


def run_query(text: str, graph: model.Graph, bindings=None, **parse_kwargs):
    if bindings is not None and not isinstance(bindings, Bindings):
        extra = tuple(parse_kwargs.get("extra_names", ())) + tuple(bindings)
        parse_kwargs["extra_names"] = extra
    return evaluate(parse_query(text, **parse_kwargs), graph, bindings)


def eval_path(graph: model.Graph, start: model.Vertex, steps,
              classes=None):
    """Vertices reachable from `start` by applying each step in sequence.

    Forward steps follow start-to-end, backward steps end-to-start,
    `both` either way; aggregation steps traverse aggregation-flagged
    edge classes in forward direction only.  `classes` holds, per step,
    the edge class names it may traverse (None for any), as
    `_step_classes` resolves them; it is resolved here when not given.
    """
    if not isinstance(start, model.Vertex):
        raise QueryError("path expressions start at a vertex")
    if classes is None:
        classes = _step_classes(graph.schema, steps)
    # a frontier is a dict of vertices, which hash by identity: ordered
    # and duplicate-free without a `value_key` per vertex
    frontier = {start: None}
    for step, allowed in zip(steps, classes):
        want = _STEP_WANT.get(step.direction)
        out = {}
        for v in frontier:
            for direction, edge in v.incidences():
                if allowed is not None and edge.class_name not in allowed:
                    continue
                if direction == "out":
                    if want != "in":
                        out[edge.end] = None
                elif want != "out":
                    out[edge.start] = None
        frontier = out
    return OrderedSet(frontier)


def _spec_names(schema: model.Schema, specs, lookup,
                aggregations_only=False) -> frozenset:
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
    out = []
    for step in steps:
        if step.direction != "agg" and not step.classes:
            out.append(None)
        elif not step.classes:  # a bare '<>--'
            out.append(frozenset(c.name for c in schema.edge_classes
                                 if c.is_aggregation))
        else:
            out.append(_spec_names(schema, step.classes, schema.edge_class,
                                   aggregations_only=step.direction == "agg"))
    return tuple(out)


def _element_set(graph: model.Graph, node: n.ElementSet):
    schema = graph.schema
    if node.kind == "V":
        pool, lookup = graph.vertices, schema.vertex_class
    else:
        pool, lookup = graph.edges, schema.edge_class
    if not node.classes:
        return OrderedSet(pool)
    allowed = _spec_names(schema, node.classes, lookup)
    return OrderedSet(el for el in pool if el.class_name in allowed)


class _Compiler:
    """Compiles the expression of one `evaluate` call, and holds what the
    call shares: the graph, and the slots of what is computed once."""

    __slots__ = ("graph", "slots")

    def __init__(self, graph: model.Graph):
        self.graph = graph
        self.slots: list = []

    def compile(self, node, planner: Planner | None = None):
        """A function from a `Bindings` to the value of `node`.  Inside a
        comprehension, `planner` is its query's: an invariant subexpression
        is computed once, and a nested comprehension is planned with it."""
        if (planner is not None and planner.invariant(node)
                and not isinstance(node, n.Literal)):
            return self.once(self.compile(node))
        match node:
            case n.Literal(value=value):
                return lambda env: value
            case n.VarRef(name=name):
                return lambda env: env.lookup(name)
            case n.DollarRef():
                return Bindings.dollar
            case n.ElementSet():
                graph = self.graph
                return lambda env: _element_set(graph, node)
            case n.Comprehension():
                planner = planner or Planner(node)
                return self.comprehension(planner.plan(node), planner)
            case n.Binary():
                return self.binary(node, planner)
        parts = [self.compile(part, planner) for part in n.children(node)]
        match node:
            case n.PathApply():
                return self.path(node, *parts)
            case n.Call(name="degree"):
                return self.degree(node, parts)
            case n.Call(name=name):
                if node.classes is not None:
                    fn = _raiser(f"function '{name}' takes no class qualifier")
                else:
                    fn = _BUILTINS.get(name) or _raiser(
                        f"unknown function '{name}'")
                return lambda env: fn([arg(env) for arg in parts])
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
        return _raiser(f"cannot evaluate {node!r}")

    def once(self, fn):
        """`fn`, computed on its first call and then kept for the call."""
        slots, i = self.slots, len(self.slots)
        slots.append(_MISSING)

        def once(env, *rest):
            value = slots[i]
            if value is _MISSING:
                value = slots[i] = fn(env, *rest)
            return value
        return once

    # -- comprehensions ----------------------------------------------------

    def comprehension(self, plan: Plan, planner: Planner):
        what, levels = plan.what, plan.levels
        pre = [self.compile(c, planner) for c in plan.pre_checks]
        candidates = [self.candidates(level, k, planner)
                      for k, level in enumerate(levels)]
        names = [level.name for level in levels]
        checks = [[self.compile(c, planner) for c in level.checks]
                  for level in levels]
        exprs = [self.compile(e, planner) for e in plan.exprs]
        if plan.kind == "map":
            exprs.append(self.compile(plan.value_expr, planner))
        project = exprs[0] if len(exprs) == 1 else (
            lambda scope: tuple([e(scope) for e in exprs]))
        new, add = _RESULTS[plan.kind]
        last = len(levels) - 1

        def comprehension(env):
            result = new()
            if not _holds(pre, env, what):
                return result
            # The nested loops, one per level, as a stack of iterators:
            # scopes[k] is the row bound before level k, rows[k] iterates
            # level k's candidates for it.
            pools = [None] * len(names)  # the domain of each level
            scopes = [env] * len(names)
            rows = [candidates[0](env, pools)] + [None] * last
            k = 0
            while k >= 0:
                member = next(rows[k], _MISSING)
                if member is _MISSING:
                    k -= 1
                    continue
                scope = scopes[k].child({names[k]: member})
                if not _holds(checks[k], scope, what):
                    continue
                if k < last:
                    k += 1
                    scopes[k] = scope
                    rows[k] = candidates[k](scope, pools)
                else:
                    add(result, project(scope))
            return result
        return comprehension

    def candidates(self, level: Level, k: int, planner: Planner):
        """A function from the row bound before level k, and the domains
        of the levels so far, to an iterator over what level k may bind."""
        names, join = level.decl.names, level.join
        domain = (None if level.domain is None
                  else self.compile(level.domain, planner))
        if join is not None:
            key = self.compile(join.key, planner)
            probe = self.compile(join.probe, planner)
            index = self.once(lambda scope, pool: _join_index(
                key, level.name, pool, scope))

        def candidates(scope, pools):
            if domain is not None:  # the first name of its group
                pool = domain(scope)
                if not is_collection(pool):
                    raise QueryError(
                        f"declaration domain of {', '.join(names)} "
                        "must be a collection"
                    )
                # collections are never changed once built, and an
                # invariant domain is one value for the whole call: share
                # it, uncopied
                pools[k:k + len(names)] = [pool] * len(names)
            if join is None:
                return iter(pools[k])
            value = probe(scope)
            if value is UNDEFINED:
                return iter(())
            return iter(index(scope, pools[k]).get(value_key(value), ()))
        return candidates

    # -- operators, paths and calls ----------------------------------------

    def binary(self, node: n.Binary, planner: Planner | None):
        op = node.op
        if op in _COMPARISONS:
            left = self.compile(node.left, planner)
            right = self.compile(node.right, planner)
            return lambda env: _compare(op, left(env), right(env))
        # A left-associative chain such as `a + b - c` or `a and b or c`
        # is a left spine of one operator family; compile it from the
        # leftmost operand up instead of recursing down it.  An invariant
        # part of the spine is an operand of its own, computed once.
        logic = op in _LOGIC
        chain = []
        while (isinstance(node, n.Binary) and node.op not in _COMPARISONS
               and (node.op in _LOGIC) == logic
               and not (chain and planner and planner.invariant(node))):
            chain.append(node)
            node = node.left
        first = self.compile(node, planner)
        links = [(link.op, self.compile(link.right, planner))
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
        classes = self.once(lambda env: _step_classes(graph.schema, steps))

        def path(env):
            value = start(env)
            if value is UNDEFINED:
                return UNDEFINED
            return eval_path(graph, value, steps, classes(env))
        return path

    def degree(self, node: n.Call, args):
        graph, specs = self.graph, node.classes
        allowed = self.once(lambda env: _spec_names(
            graph.schema, specs, graph.schema.edge_class) if specs else None)

        def degree(env):
            values = [arg(env) for arg in args]
            _arity("degree", values, 1)
            v = values[0]
            if not isinstance(v, model.Vertex):
                raise QueryError("degree expects a vertex")
            names = allowed(env)
            return sum(1 for _, edge in v.incidences()
                       if names is None or edge.class_name in names)
        return degree


# per comprehension kind: the type of its result, and how a row is added
_RESULTS = {"list": (list, list.append), "set": (OrderedSet, OrderedSet.add),
            "map": (ValueMap, lambda result, entry: result.put(*entry))}


def _raiser(message: str):
    """A function that raises `message`: an unknown function, say, is an
    error of evaluating the call, not of compiling it."""
    def fail(*_):
        raise QueryError(message)
    return fail


def _join_index(key, name: str, pool, scope: Bindings) -> dict:
    """The members of `pool` by the `value_key` of `key` with `name` bound
    to them, each bucket in domain order; an undefined key matches
    nothing."""
    index: dict = {}
    for member in pool:
        found = key(scope.child({name: member}))
        if found is not UNDEFINED:
            index.setdefault(value_key(found), []).append(member)
    return index


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
    if op == "=":
        return value_equal(left, right)
    if op == "<>":
        return not value_equal(left, right)
    if _is_number(left) and _is_number(right):
        pass
    elif isinstance(left, str) and isinstance(right, str):
        pass
    else:
        raise QueryError(f"'{op}' expects two numbers or two strings")
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def _arith(op: str, left, right):
    if left is UNDEFINED or right is UNDEFINED:
        return UNDEFINED
    if op == "++":
        return to_text(left) + to_text(right)
    if not (_is_number(left) and _is_number(right)):
        raise QueryError(f"'{op}' expects numbers")
    try:
        if op == "/":
            if right == 0:
                raise QueryError("division by zero")
            result = left / right
        elif op == "%":
            if not (isinstance(left, int) and isinstance(right, int)):
                raise QueryError("'%' expects integers")
            if right == 0:
                raise QueryError("division by zero")
            result = left % right
        elif op == "+":
            result = left + right
        elif op == "-":
            result = left - right
        else:
            result = left * right
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
            f"index {index} out of range for length {len(target)}"
        )
    return target[index]


# -- builtin functions --------------------------------------------------------

def _arity(name, args, low, high=None):
    high = low if high is None else high
    if not (low <= len(args) <= high):
        raise QueryError(f"function '{name}' called with {len(args)} arguments")


def _builtin_count(args):
    _arity("count", args, 1)
    coll = args[0]
    if not (is_collection(coll) or isinstance(coll, ValueMap)):
        raise QueryError("count expects a collection")
    return len(coll)


def _builtin_the_element(args):
    _arity("theElement", args, 1)
    coll = args[0]
    if not is_collection(coll):
        raise QueryError("theElement expects a collection")
    if len(coll) != 1:
        raise QueryError(
            f"theElement expects exactly one element, got {len(coll)}"
        )
    return next(iter(coll))


def _builtin_contains(args):
    _arity("contains", args, 2)
    coll, needle = args
    if isinstance(coll, OrderedSet):
        return needle in coll
    if isinstance(coll, (list, tuple)):
        return any(value_equal(member, needle) for member in coll)
    raise QueryError("contains expects a collection")


def _builtin_is_empty(args):
    _arity("isEmpty", args, 1)
    coll = args[0]
    if not (is_collection(coll) or isinstance(coll, ValueMap)):
        raise QueryError("isEmpty expects a collection")
    return len(coll) == 0


def _builtin_key_set(args):
    _arity("keySet", args, 1)
    if not isinstance(args[0], ValueMap):
        raise QueryError("keySet expects a map")
    return OrderedSet(args[0].keys())


def _builtin_flatten(args):
    _arity("flatten", args, 1)
    if not is_collection(args[0]):
        raise QueryError("flatten expects a collection")
    return list(leaves(args[0]))


def _builtin_has_type(args):
    _arity("hasType", args, 2)
    el, name = args
    if not isinstance(el, model.Element):
        raise QueryError("hasType expects a graph element")
    if not isinstance(name, str):
        raise QueryError("hasType expects a class name string")
    try:
        return el.is_instance_of(name)
    except SchemaError as exc:
        raise QueryError(str(exc)) from None


def _edge_endpoint(which):
    def fn(args):
        _arity(which, args, 1)
        if not isinstance(args[0], model.Edge):
            raise QueryError(f"{which} expects an edge")
        return args[0].start if which == "startVertex" else args[0].end

    return fn


_BUILTINS = {
    "count": _builtin_count,
    "theElement": _builtin_the_element,
    "contains": _builtin_contains,
    "isEmpty": _builtin_is_empty,
    "keySet": _builtin_key_set,
    "flatten": _builtin_flatten,
    "hasType": _builtin_has_type,
    "startVertex": _edge_endpoint("startVertex"),
    "endVertex": _edge_endpoint("endVertex"),
    "set": lambda args: OrderedSet(args),
    "list": lambda args: list(args),
    "tup": lambda args: tuple(args),
}
