"""Evaluator for the query language.

`evaluate` compiles its expression into nested closures, one per node,
each a function from a `Bindings` to the node's value, and then runs
them.  Compiling resolves what the tree alone fixes: the builtin a call
names, how an operator chain combines its operands (from the leftmost one
up, without recursion), and the plan of each comprehension
(`gretlite.query.planner`), whose joins and semi-joins bind a level's
hits, in domain order, from a position index over its domain.

Each piece of work is done once per call and key.  A path or
comprehension in a loop that mentions, of the comprehension variables in
scope, only ones bound before its level is computed at most once per key,
the values of those variables; so is any subexpression in a loop that
mentions none, with the empty key.  Elements key by identity, strings,
integers and booleans by type and value, and any other value bypasses
the memo: `value_key` would make `1` and `1.0` one key, but `1 ++ ""` and
`1.0 ++ ""` differ.  Memos are shared by shape, so the two copies of `C`
in `tup(count(C), C)` are computed once.

Join indexes and the class names that the class specs of path steps and
`degree{...}` resolve to are memoised with the empty key too: computed
on first use, once per call.  So an unknown class, like an unknown
function or a wrong number of arguments, fails only when it is evaluated,
and a schema that gains classes between calls is seen by the next call.

A row is kept only if every conjunct is `true`, and rows come out in the
order of the nested loops, so a plan changes what is computed, not the
result.  Conjuncts are checked in plan order, and a join computes its
index and probe before its level's checks, so a `with` clause that raises
an error on some binding may raise it on another binding than
left-to-right evaluation would, or on none, or where that would raise
none.  Evaluation is a pure function of (expression, graph, bindings):
every collection is built in graph creation order.
"""

from __future__ import annotations

import math
import operator
import sys

from gretlite import model
from gretlite.errors import GraphError, QueryError, SchemaError
from gretlite.query import nodes as n
from gretlite.query.parser import parse_query
from gretlite.query.planner import Level, Planner
from gretlite.values import (UNDEFINED, OrderedSet, ValueMap, is_collection,
                             leaves, to_text, value_equal, value_key)

_MISSING = object()
_NONE = frozenset()
_TOP = (_NONE, _NONE, None)  # where a query's root is evaluated
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


class Bindings:
    """Lexically scoped variable environment.

    `fallback` (root scope only) resolves names the chain does not hold,
    e.g. the trace maps a transformation exposes; it returns None for
    unknown names.  `dollar` carries the current-member binding."""

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
    if isinstance(bindings, Bindings):
        return bindings
    return Bindings(bindings)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _require_bool(v, what: str):
    if v is UNDEFINED or isinstance(v, bool):
        return v
    raise QueryError(f"{what} must be a boolean")


def evaluate(expr, graph: model.Graph, bindings=None):
    return _Compiler(graph, expr).compile(expr)(_as_bindings(bindings))


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
    start._require_alive()
    # a frontier is a dict of vertices, which hash by identity: ordered
    # and duplicate-free without a `value_key` per vertex
    frontier = {start: None}
    for step, allowed in zip(steps, classes):
        follow = _STEP_FOLLOWS[step.direction]
        out = {}
        for v in frontier:
            for edge, flags in v._entries.items():
                if allowed is not None and edge.class_name not in allowed:
                    continue
                flags &= follow
                if flags & model.OUT:
                    out[edge.end] = None
                if flags & model.IN:
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
    """Compiles the expression `root` of one `evaluate` call, and holds
    what the call shares: the graph, the query's planner and the memoised
    closures by shape, whose tables are the call's own."""

    __slots__ = ("graph", "root", "planner", "shared")

    def __init__(self, graph: model.Graph, root):
        self.graph, self.root = graph, root
        self.planner: Planner | None = None  # made at the first comprehension
        self.shared: dict = {}  # (shape, key names) -> memoised closure

    def compile(self, node, at=_TOP):
        """A function from a `Bindings` to the value of `node`, evaluated
        where `at` says: (the comprehension variables in scope, those not
        bound before its level, the key of the memo computing it or None)."""
        if self.planner is None and isinstance(node, n.Comprehension):
            self.planner = Planner(self.root)
        names = self.planner and self.memo_names(node, at)
        if names is not None:
            slot = (self.planner.shape[id(node)], names)
            if slot not in self.shared:
                self.shared[slot] = self.memo(
                    self.compile(node, (at[0], at[1], names)),
                    tuple(sorted(names)))
            return self.shared[slot]
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
                return self.comprehension(node, at)
            case n.Binary():
                return self.binary(node, at)
        parts = [self.compile(part, at) for part in n.children(node)]
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

    def memo_names(self, node, at) -> frozenset | None:
        """The variables keying the memo of `node` evaluated where `at`
        says, or None if it is computed each time: a literal, variable or
        `$`; what mentions its level's own variable; what a memo with its
        key computes; outside every loop, what occurs once; and, with a
        key, what is no path or comprehension (its work would cost about a
        memo lookup).  Before the first comprehension, nothing is."""
        planner = self.planner
        if planner is None or isinstance(node, _UNMEMOISED):
            return None
        scope, fresh, held = at
        names = planner.free[id(node)] & scope
        if names & fresh or names == held or not (
                scope or planner.count[planner.shape[id(node)]] > 1) or (
                names and not isinstance(node, _KEYED)):
            return None
        return names

    def memo(self, fn, names=()):
        """`fn`, computed at most once per call for each key: the values
        of the variables `names` (see the module docstring)."""
        table = {}

        def memo(env, *rest):
            key = names and tuple([_memo_key(env.lookup(x)) for x in names])
            value = table.get(key, _MISSING)
            if value is _MISSING:
                if None in key:  # a value that bypasses the memo
                    return fn(env, *rest)
                value = table[key] = fn(env, *rest)
            return value
        return memo

    # -- comprehensions ----------------------------------------------------

    def comprehension(self, node: n.Comprehension, at):
        """The nested loops of `node`'s plan.  Its pre-checks and first
        domain are evaluated where `node` is; at level k, the domain with
        the variables before k in scope, the rest with all of them, and
        level k's not bound before."""
        plan = self.planner.plan(node)
        what, levels = plan.what, plan.levels
        names = [level.name for level in levels]
        inner = at[0] | frozenset(names)
        pre = [self.compile(c, at) for c in plan.pre_checks]
        candidates, checks = [], []
        for k, level in enumerate(levels):
            here = (inner, frozenset((level.name,)), None)
            before = (at[0] | frozenset(names[:k]), _NONE, None) if k else at
            candidates.append(self.candidates(level, k, before, here))
            checks.append([self.compile(c, here) for c in level.checks])
        exprs = [self.compile(e, here) for e in node.exprs]
        if node.kind == "map":
            exprs.append(self.compile(node.value_expr, here))
        project = exprs[0] if len(exprs) == 1 else (
            lambda scope: tuple([e(scope) for e in exprs]))
        new, add = _RESULTS[node.kind]
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

    def candidates(self, level: Level, k: int, before, here):
        """A function from the row bound before level k, and the domains
        of the levels so far, to an iterator over what level k may bind:
        with a join, the domain positions its probe's value (or, for a
        semi-join, its members) index, in domain order."""
        names, join = level.decl.names, level.join
        bad = f"declaration domain of {', '.join(names)} must be a collection"
        domain = (None if level.domain is None
                  else self.compile(level.domain, before))
        if join is not None:
            many, name = join.many, level.name
            key = (None if isinstance(join.key, n.VarRef)
                   else self.compile(join.key, here))
            probe = self.compile(join.probe, here)
            index = self.memo(lambda scope, pool: _position_index(
                key, name, pool, scope))

        def candidates(scope, pools):
            if domain is not None:  # the first name of its group
                pool = domain(scope)
                if not is_collection(pool):
                    raise QueryError(bad)
                # collections are never changed once built, and an
                # invariant domain is one value for the whole call: share
                # it, uncopied
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
               and not (chain and self.memo_names(node, at) is not None)):
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
            if value is UNDEFINED:
                return UNDEFINED
            return eval_path(graph, value, steps, classes(env))
        return path

    def degree(self, node: n.Call, args):
        graph, specs = self.graph, node.classes
        allowed = self.memo(lambda env: _spec_names(
            graph.schema, specs, graph.schema.edge_class) if specs else None)

        def degree(env):
            values = [arg(env) for arg in args]
            _arity("degree", values, 1)
            v = values[0]
            if not isinstance(v, model.Vertex):
                raise QueryError("degree expects a vertex")
            names = allowed(env)
            v._require_alive()
            return sum(flags.bit_count() for edge, flags in v._entries.items()
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


def _memo_key(value):
    """`value` as part of a memo key, or None if it bypasses the memo."""
    kind = type(value)
    if kind is str or kind is int or kind is bool:
        return kind, value
    return value if isinstance(value, model.Element) else None


def _position_index(key, name: str, pool, scope: Bindings):
    """`pool` as a list, and its positions by the `value_key` of `key` with
    `name` bound to each member (of the member itself if `key` is None)."""
    members, positions = list(pool), {}
    for p, member in enumerate(members):
        found = member if key is None else key(scope.child({name: member}))
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

def _arity(name, args, count):
    if len(args) != count:
        raise QueryError(f"function '{name}' called with {len(args)} arguments")


def _size(name, empty=False):
    def size(args):
        _arity(name, args, 1)
        if not (is_collection(args[0]) or isinstance(args[0], ValueMap)):
            raise QueryError(f"{name} expects a collection")
        return len(args[0]) == 0 if empty else len(args[0])
    return size


def _builtin_the_element(args):
    _arity("theElement", args, 1)
    coll = args[0]
    if not is_collection(coll):
        raise QueryError("theElement expects a collection")
    if len(coll) != 1:
        raise QueryError(
            f"theElement expects exactly one element, got {len(coll)}")
    return next(iter(coll))


def _builtin_contains(args):
    _arity("contains", args, 2)
    coll, needle = args
    if isinstance(coll, OrderedSet):
        return needle in coll
    if isinstance(coll, (list, tuple)):
        return any(value_equal(member, needle) for member in coll)
    raise QueryError("contains expects a collection")


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
    "count": _size("count"),
    "theElement": _builtin_the_element,
    "contains": _builtin_contains,
    "isEmpty": _size("isEmpty", empty=True),
    "keySet": _builtin_key_set,
    "flatten": _builtin_flatten,
    "hasType": _builtin_has_type,
    "startVertex": _edge_endpoint("startVertex"),
    "endVertex": _edge_endpoint("endVertex"),
    "set": OrderedSet,
    "list": list,
    "tup": tuple,
}
