"""Recursive-descent parser for the query language.

The grammar is the one this module implements: `_LEVELS` is the table
of operator precedence levels, which the one method `QueryParser._binary`
reads, a frame per level; tokens come from `gretlite.lexer`, and the AST
node types are in `gretlite.query.nodes`.  The parser works on a shared
TokenStream so transformation scripts can embed queries directly.  Scope
is checked at each identifier: a group's names are bound from the end of
its domain to its comprehension's `end`, and any other name that is not
external is a ParseError at it.

Nesting is bounded: every nested expression, prefix operator and postfix
operator counts one level, and an expression deeper than MAX_DEPTH is a
ParseError at the token that crosses the limit.  Only left-associative
binary chains (`a + b + c`, `a and b and c`) grow without nesting, and
everything that walks an AST walks those chains without recursion.
"""

from __future__ import annotations

from gretlite.lexer import TokenStream, tokenize
from gretlite.query import nodes as n
from gretlite.values import UNDEFINED

RESERVED = {
    "from", "with", "report", "reportSet", "reportList", "reportMap", "end",
    "and", "or", "not", "true", "false", "undefined", "V", "E",
}

_REPORT_KINDS = {
    "report": "list",
    "reportList": "list",
    "reportSet": "set",
    "reportMap": "map",
}

# Deep enough for any real query and shallow enough that parsing and
# evaluating the deepest one stays far inside Python's recursion limit.
MAX_DEPTH = 50

_CONSTANTS = {"true": True, "false": False, "undefined": UNDEFINED}
_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")
_PATH_ARROWS = {"-->": "out", "<--": "in", "<->": "both", "<>--": "agg"}
_POSTFIX = (".", "[", *_PATH_ARROWS)

# The operator precedence levels, loosest first, between `?:` (read by
# `parse_expression`) and the postfix operators.  A tuple of binary
# operators is left-associative, except that comparisons do not chain; a
# string is a prefix operator, whose operand is read at its own level.
# Operators are found by token text alone: only SYMBOL tokens carry a
# symbol's text, and only IDENT tokens `or`, `and` or `not`.
_LEVELS = (("or",), ("and",), "not", _COMPARISONS, ("+", "-", "++"),
           ("*", "/", "%"), "-")


class QueryParser:
    def __init__(self, stream: TokenStream, is_external):
        self.ts = stream
        self._depth = 0
        self._external = is_external
        self._bound: list[str] = []  # declared by the comprehensions around

    def _nest(self):
        self._depth += 1
        if self._depth > MAX_DEPTH:
            self.ts.error(f"expression nested more than {MAX_DEPTH} levels deep")

    def parse_expression(self):
        self._nest()
        expr = self._binary(0)
        if self.ts.accept("?"):
            then_expr = self.parse_expression()
            self.ts.expect_symbol(":")
            expr = n.Conditional(expr, then_expr, self.parse_expression())
        self._depth -= 1
        return expr

    def _binary(self, level: int):
        """An expression whose operators bind at `level` or tighter."""
        if level == len(_LEVELS):
            return self._postfix()
        ops = _LEVELS[level]
        if isinstance(ops, str):
            if not self.ts.accept(ops):
                return self._binary(level + 1)
            self._nest()
            node = n.Unary("neg" if ops == "-" else ops, self._binary(level))
            self._depth -= 1
            return node
        left = self._binary(level + 1)
        while self.ts.peek().text in ops:
            op = self.ts.next().text
            left = n.Binary(op, left, self._binary(level + 1))
            if ops is _COMPARISONS:
                break
        return left

    def _postfix(self):
        node = self._primary()
        depth = self._depth
        while self.ts.peek().text in _POSTFIX:
            self._nest()
            if self.ts.accept("."):
                node = n.AttrAccess(node, self.ts.expect_ident().text)
            elif self.ts.accept("["):
                node = n.Index(node, self.parse_expression())
                self.ts.expect_symbol("]")
            else:
                steps = []
                while self.ts.peek().text in _PATH_ARROWS:
                    direction = _PATH_ARROWS[self.ts.next().text]
                    steps.append(n.PathStep(direction, self._class_list()))
                node = n.PathApply(node, tuple(steps))
        self._depth = depth
        return node

    def _class_list(self) -> tuple[n.ClassSpec, ...]:
        """The `{...}` class list that comes next, or () if none does."""
        if not self.ts.accept("{"):
            return ()
        specs = self.ts.separated(lambda: n.ClassSpec(
            self.ts.expect_ident().text, self.ts.accept("!")))
        self.ts.expect_symbol("}")
        return specs

    def _primary(self):
        tok = self.ts.peek()
        if tok.kind == "NUMBER" or tok.kind == "STRING":
            self.ts.next()
            return n.Literal(tok.value)
        if self.ts.accept("$"):
            return n.DollarRef()
        if self.ts.accept("("):
            node = self.parse_expression()
            self.ts.expect_symbol(")")
            return node
        if tok.kind != "IDENT":
            self.ts.error("expected an expression")
        word = tok.text
        if word in _CONSTANTS:
            self.ts.next()
            return n.Literal(_CONSTANTS[word])
        if word in ("V", "E"):
            self.ts.next()
            return n.ElementSet(word, self._class_list())
        if word == "from":
            return self._comprehension()
        if word in RESERVED:
            self.ts.error(f"unexpected '{word}'")
        self.ts.next()
        if word == "map" and self.ts.accept("("):
            return n.MapLit(self._arguments(self._map_entry))
        if self.ts.at_symbol("{"):
            classes = self._class_list()
            self.ts.expect_symbol("(")
        elif self.ts.accept("("):
            classes = None
        else:
            if word not in self._bound and not self._external(word):
                self.ts.fail(f"unbound variable '{word}'", tok)
            return n.VarRef(word)
        return n.Call(word, classes, self._arguments(self.parse_expression))

    def _arguments(self, item) -> tuple:
        """`item`s separated by ',' up to a ')', which it consumes."""
        items = () if self.ts.at_symbol(")") else self.ts.separated(item)
        self.ts.expect_symbol(")")
        return items

    def _map_entry(self) -> tuple:
        key = self.parse_expression()
        self.ts.expect_symbol("->")
        return key, self.parse_expression()

    def _comprehension(self):
        self.ts.expect_ident("from")
        outer = len(self._bound)
        groups = self.ts.separated(self._decl_group)
        condition = None
        if self.ts.accept("with"):
            condition = self.parse_expression()
        kind = _REPORT_KINDS[self.ts.expect("a report clause",
                                            _REPORT_KINDS).text]
        if kind == "map":
            exprs = self._map_entry()
        else:
            exprs = self.ts.separated(self.parse_expression)
        self.ts.expect_ident("end")
        del self._bound[outer:]
        return n.Comprehension(groups, condition, kind, exprs)

    def _decl_group(self) -> n.DeclGroup:
        names = [self._decl_name()]
        # `x, y : D` — the name list continues while the token after the
        # next identifier is ',' or ':'; otherwise the ',' starts a new group.
        while (self.ts.at_symbol(",") and self.ts.peek(1).kind == "IDENT"
               and self.ts.peek(2).text in (",", ":")):
            self.ts.next()
            names.append(self._decl_name())
        self.ts.expect_symbol(":")
        domain = self.parse_expression()
        self._bound += names
        return n.DeclGroup(tuple(names), domain)

    def _decl_name(self) -> str:
        tok = self.ts.expect_ident()
        if tok.text in RESERVED:
            self.ts.fail(f"'{tok.text}' is reserved and cannot be declared",
                         tok)
        return tok.text


def parse_embedded(stream: TokenStream, is_external):
    """Parse one expression from a shared stream (used by script parsing),
    where a name bound nowhere in it is bound iff `is_external(name)`."""
    return QueryParser(stream, is_external).parse_expression()


def parse_query(text: str, *, extra_names=()):
    """Parse a complete query; raises ParseError with position on failure."""
    stream = TokenStream(tokenize(text))
    expr = QueryParser(
        stream, frozenset(extra_names).__contains__).parse_expression()
    if not stream.at_eof():
        stream.error("unexpected trailing input")
    return expr
