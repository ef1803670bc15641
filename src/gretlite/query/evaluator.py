"""Evaluator for the query language.

Expressions are evaluated by walking the tree, except comprehensions,
which follow a plan (`gretlite.query.planner`), built once per node:

* each conjunct of the `with` clause is checked right after the level that
  binds the last variable it mentions, so a partial row is dropped at its
  first conjunct that is not `true` (conjuncts over no variable are checked
  once, before the loops);
* an equality between the newest variable and earlier ones is a hash join
  on `value_key` over the level's domain, built once per `evaluate` call,
  whose buckets keep domain order;
* subexpressions over no comprehension variable are evaluated at most once
  per `evaluate` call, on first use.

The class specs of path steps and `degree{...}` resolve to sets of class
names once per node and `evaluate` call.

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

from gretlite import model
from gretlite.errors import GraphError, QueryError, SchemaError
from gretlite.query import nodes as n
from gretlite.query import planner
from gretlite.query.parser import parse_query
from gretlite.values import (
    UNDEFINED,
    OrderedSet,
    ValueMap,
    is_collection,
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

    def child(self, variables=None, dollar=_MISSING):
        return Bindings(variables, parent=self, dollar=dollar)

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
    return Evaluator(graph).eval(expr, _as_bindings(bindings))


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
    frontier = OrderedSet([start])
    for step, allowed in zip(steps, classes):
        want = _STEP_WANT.get(step.direction)
        out = OrderedSet()
        for v in frontier:
            for direction, edge in v.incidences("both"):
                if allowed is not None and edge.class_name not in allowed:
                    continue
                if direction == "out":
                    if want != "in":
                        out.add(edge.end)
                elif want != "out":
                    out.add(edge.start)
        frontier = out
    return frontier


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


class Evaluator:
    """Evaluates expressions over one graph.  One evaluator serves one
    `evaluate` call: it keeps what the whole call shares, the values of
    invariant subexpressions, the join indexes and resolved class specs.
    The schema does not change during a call."""

    def __init__(self, graph: model.Graph):
        self.graph = graph
        # by id of an Invariant, a Level (its join index), a PathApply or
        # a degree Call (their class names)
        self._once: dict[int, object] = {}

    def eval(self, node, env: Bindings):
        match node:
            case n.Literal(value=v):
                return v
            case n.VarRef(name=name):
                return env.lookup(name)
            case planner.Invariant(expr=expr):
                value = self._once.get(id(node), _MISSING)
                if value is _MISSING:
                    value = self._once[id(node)] = self.eval(expr, env)
                return value
            case planner.Planned(plan=plan):
                return self._comprehension(plan, env)
            case n.DollarRef():
                return env.dollar()
            case n.ElementSet():
                return self._element_set(node)
            case n.Comprehension():
                plan = node.plan
                if plan is None:
                    plan = planner.plan(node)
                    object.__setattr__(node, "plan", plan)
                return self._comprehension(plan, env)
            case n.PathApply(start=start, steps=steps):
                value = self.eval(start, env)
                if value is UNDEFINED:
                    return UNDEFINED
                classes = self._once.get(id(node))
                if classes is None:
                    classes = self._once[id(node)] = _step_classes(
                        self.graph.schema, steps)
                return eval_path(self.graph, value, steps, classes)
            case n.Call():
                return self._call(node, env)
            case n.MapLit(entries=entries):
                out = ValueMap()
                for k, v in entries:
                    out.put(self.eval(k, env), self.eval(v, env))
                return out
            case n.Unary(op=op, operand=operand):
                return self._unary(op, self.eval(operand, env))
            case n.Binary():
                return self._binary(node, env)
            case n.Conditional():
                cond = _require_bool(self.eval(node.condition, env),
                                     "conditional test")
                if cond is UNDEFINED:
                    return UNDEFINED
                branch = node.then_expr if cond else node.else_expr
                return self.eval(branch, env)
            case n.AttrAccess(target=target, name=name):
                value = self.eval(target, env)
                if value is UNDEFINED:
                    return UNDEFINED
                if not isinstance(value, model.Element):
                    raise QueryError(f"'.{name}' applies to graph elements")
                try:
                    return value.attr(name)
                except GraphError as exc:
                    raise QueryError(str(exc)) from None
            case n.Index(target=target, index=index):
                return self._index(self.eval(target, env),
                                   self.eval(index, env))
            case _:
                raise QueryError(f"cannot evaluate {node!r}")

    def _element_set(self, node: n.ElementSet):
        schema = self.graph.schema
        if node.kind == "V":
            pool, lookup = self.graph.vertices, schema.vertex_class
        else:
            pool, lookup = self.graph.edges, schema.edge_class
        if not node.classes:
            return OrderedSet(pool)
        allowed = _spec_names(schema, node.classes, lookup)
        return OrderedSet(el for el in pool if el.class_name in allowed)

    # -- comprehensions ----------------------------------------------------

    def _comprehension(self, plan: planner.Plan, env: Bindings):
        kind = plan.kind
        if kind == "set":
            result = OrderedSet()
        elif kind == "map":
            result = ValueMap()
        else:
            result = []
        if not self._holds(plan.pre_checks, env, plan.what):
            return result
        # The nested loops, one per level, as a stack of iterators:
        # scopes[k] is the row bound before level k, rows[k] iterates
        # level k's candidates for it.
        levels = plan.levels
        last = len(levels) - 1
        pools = [None] * len(levels)  # the domain of each level
        scopes = [env] * len(levels)
        rows = [self._candidates(levels, 0, env, pools)]
        rows.extend([None] * last)
        k = 0
        while k >= 0:
            member = next(rows[k], _MISSING)
            if member is _MISSING:
                k -= 1
                continue
            level = levels[k]
            scope = scopes[k].child({level.name: member})
            if not self._holds(level.checks, scope, plan.what):
                continue
            if k < last:
                k += 1
                scopes[k] = scope
                rows[k] = self._candidates(levels, k, scope, pools)
            elif kind == "map":
                result.put(self.eval(plan.exprs[0], scope),
                           self.eval(plan.value_expr, scope))
            else:
                values = [self.eval(e, scope) for e in plan.exprs]
                row = values[0] if len(values) == 1 else tuple(values)
                if kind == "set":
                    result.add(row)
                else:
                    result.append(row)
        return result

    def _holds(self, checks, scope: Bindings, what: str) -> bool:
        for check in checks:
            value = self.eval(check, scope)
            if value is not True:
                _require_bool(value, what)
                return False
        return True

    def _candidates(self, levels, k: int, scope: Bindings, pools):
        """An iterator over the members level k may bind after `scope`."""
        level = levels[k]
        if level.domain is not None:  # the first name of its group
            domain = self.eval(level.domain, scope)
            if not is_collection(domain):
                raise QueryError(
                    f"declaration domain of {', '.join(level.decl.names)} "
                    "must be a collection"
                )
            # collections are never changed once built, and an invariant
            # domain is one value for the whole call: share it, uncopied
            pools[k:k + len(level.decl.names)] = [domain] * len(
                level.decl.names)
        join = level.join
        if join is None:
            return iter(pools[k])
        probe = self.eval(join.probe, scope)
        if probe is UNDEFINED:
            return iter(())
        index = self._once.get(id(level))
        if index is None:
            index = self._once[id(level)] = self._join_index(
                level, pools[k], scope)
        return iter(index.get(value_key(probe), ()))

    def _join_index(self, level: planner.Level, pool, scope: Bindings):
        """The members of `pool` by the `value_key` of the join's key side,
        each bucket in domain order; an undefined key matches nothing."""
        index: dict = {}
        for member in pool:
            key = self.eval(level.join.key, scope.child({level.name: member}))
            if key is not UNDEFINED:
                index.setdefault(value_key(key), []).append(member)
        return index

    # -- operators ---------------------------------------------------------

    def _unary(self, op: str, value):
        if value is UNDEFINED:
            return UNDEFINED
        if op == "neg":
            if not _is_number(value):
                raise QueryError("unary '-' expects a number")
            return -value
        if not isinstance(value, bool):
            raise QueryError("'not' expects a boolean")
        return not value

    def _binary(self, node: n.Binary, env: Bindings):
        op = node.op
        if op in _COMPARISONS:
            return self._compare(op, self.eval(node.left, env),
                                 self.eval(node.right, env))
        # A left-associative chain such as `a + b - c` or `a and b or c`
        # is a left spine of one operator family; walk it from the
        # leftmost operand up instead of recursing down it.
        logic = op in _LOGIC
        chain = []
        while (isinstance(node, n.Binary) and node.op not in _COMPARISONS
               and (node.op in _LOGIC) == logic):
            chain.append(node)
            node = node.left
        value = self.eval(node, env)
        if logic:
            value = _require_bool(value, f"'{chain[-1].op}' operand")
        for link in reversed(chain):
            if logic:
                value = self._logic(link, value, env)
                continue
            right = self.eval(link.right, env)
            if link.op != "++":
                value = self._arith(link.op, value, right)
            elif value is UNDEFINED or right is UNDEFINED:
                value = UNDEFINED
            else:
                value = to_text(value) + to_text(right)
        return value

    def _logic(self, link: n.Binary, left, env: Bindings):
        op = link.op
        if op == "and" and left is False:
            return False
        if op == "or" and left is True:
            return True
        right = _require_bool(self.eval(link.right, env), f"'{op}' operand")
        if right is UNDEFINED or left is UNDEFINED:
            # three-valued logic: a definite right answer may still decide
            if op == "and":
                return False if right is False else UNDEFINED
            return True if right is True else UNDEFINED
        return right

    def _compare(self, op: str, left, right):
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

    def _arith(self, op: str, left, right):
        if left is UNDEFINED or right is UNDEFINED:
            return UNDEFINED
        if not (_is_number(left) and _is_number(right)):
            raise QueryError(f"'{op}' expects numbers")
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
        if isinstance(result, float) and math.isnan(result):
            return UNDEFINED
        return result

    def _index(self, target, index):
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

    # -- function calls ----------------------------------------------------

    def _call(self, node: n.Call, env: Bindings):
        args = [self.eval(a, env) for a in node.args]
        name = node.name
        if node.classes is not None and name != "degree":
            raise QueryError(f"function '{name}' takes no class qualifier")
        if name == "degree":
            return self._degree(node, args)
        fn = _BUILTINS.get(name)
        if fn is None:
            raise QueryError(f"unknown function '{name}'")
        return fn(self, args)

    def _degree(self, node: n.Call, args):
        _arity("degree", args, 1)
        v = args[0]
        if not isinstance(v, model.Vertex):
            raise QueryError("degree expects a vertex")
        allowed = None
        if node.classes:
            allowed = self._once.get(id(node))
            if allowed is None:
                schema = self.graph.schema
                allowed = self._once[id(node)] = _spec_names(
                    schema, node.classes, schema.edge_class)
        count = 0
        for _, edge in v.incidences("both"):
            if allowed is None or edge.class_name in allowed:
                count += 1
        return count


def _arity(name, args, low, high=None):
    high = low if high is None else high
    if not (low <= len(args) <= high):
        raise QueryError(f"function '{name}' called with {len(args)} arguments")


def _builtin_count(ev, args):
    _arity("count", args, 1)
    coll = args[0]
    if not (is_collection(coll) or isinstance(coll, ValueMap)):
        raise QueryError("count expects a collection")
    return len(coll)


def _builtin_the_element(ev, args):
    _arity("theElement", args, 1)
    coll = args[0]
    if not is_collection(coll):
        raise QueryError("theElement expects a collection")
    if len(coll) != 1:
        raise QueryError(
            f"theElement expects exactly one element, got {len(coll)}"
        )
    return next(iter(coll))


def _builtin_contains(ev, args):
    _arity("contains", args, 2)
    coll, needle = args
    if isinstance(coll, OrderedSet):
        return needle in coll
    if isinstance(coll, (list, tuple)):
        return any(value_equal(member, needle) for member in coll)
    raise QueryError("contains expects a collection")


def _builtin_is_empty(ev, args):
    _arity("isEmpty", args, 1)
    coll = args[0]
    if not (is_collection(coll) or isinstance(coll, ValueMap)):
        raise QueryError("isEmpty expects a collection")
    return len(coll) == 0


def _builtin_key_set(ev, args):
    _arity("keySet", args, 1)
    if not isinstance(args[0], ValueMap):
        raise QueryError("keySet expects a map")
    return OrderedSet(args[0].keys())


def _builtin_flatten(ev, args):
    _arity("flatten", args, 1)
    if not is_collection(args[0]):
        raise QueryError("flatten expects a collection")
    out = []

    def walk(v):
        if is_collection(v):
            for member in v:
                walk(member)
        else:
            out.append(v)

    walk(args[0])
    return out


def _builtin_has_type(ev, args):
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
    def fn(ev, args):
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
    "set": lambda ev, args: OrderedSet(args),
    "list": lambda ev, args: list(args),
    "tup": lambda ev, args: tuple(args),
}
