"""Recursive-descent parser for the query language.

The grammar is the one this module implements: `QueryParser` has one
method per precedence level (listed above `parse_expression`), tokens come
from `gretlite.lexer`, and the AST node types are in `gretlite.query.nodes`.
The parser works on a shared TokenStream so transformation scripts can
embed queries directly.  Scope is checked at each identifier: a group's
names are bound from the end of its domain to its comprehension's `end`,
and any other name that is not external is a ParseError at it.

Nesting is bounded: every nested expression, prefix operator and postfix
operator counts one level, and an expression deeper than MAX_DEPTH is a
ParseError at the token that crosses the limit.  Only left-associative
binary chains (`a + b + c`, `a and b and c`) grow without nesting, and
everything that walks an AST walks those chains without recursion.
"""

from __future__ import annotations

from gretlite.errors import ParseError
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

    # precedence, loosest first:
    # conditional > or > and > not > comparison > additive > mult > unary > postfix

    def parse_expression(self):
        self._nest()
        expr = self._conditional()
        self._depth -= 1
        return expr

    def _conditional(self):
        cond = self._or()
        if self.ts.accept("?"):
            then_expr = self.parse_expression()
            self.ts.expect_symbol(":")
            else_expr = self.parse_expression()
            return n.Conditional(cond, then_expr, else_expr)
        return cond

    def _or(self):
        left = self._and()
        while self.ts.accept("or"):
            left = n.Binary("or", left, self._and())
        return left

    def _and(self):
        left = self._not()
        while self.ts.accept("and"):
            left = n.Binary("and", left, self._not())
        return left

    def _not(self):
        if self.ts.accept("not"):
            self._nest()
            node = n.Unary("not", self._not())
            self._depth -= 1
            return node
        return self._comparison()

    def _comparison(self):
        left = self._additive()
        if self.ts.at_symbol(*_COMPARISONS):
            op = self.ts.next().text
            return n.Binary(op, left, self._additive())
        return left

    def _additive(self):
        left = self._multiplicative()
        while self.ts.at_symbol("+", "-", "++"):
            op = self.ts.next().text
            left = n.Binary(op, left, self._multiplicative())
        return left

    def _multiplicative(self):
        left = self._unary()
        while self.ts.at_symbol("*", "/", "%"):
            op = self.ts.next().text
            left = n.Binary(op, left, self._unary())
        return left

    def _unary(self):
        if self.ts.accept("-"):
            self._nest()
            node = n.Unary("neg", self._unary())
            self._depth -= 1
            return node
        return self._postfix()

    def _postfix(self):
        node = self._primary()
        depth = self._depth
        while True:
            if self.ts.at_symbol(".", "[", *_PATH_ARROWS):
                self._nest()
            if self.ts.accept("."):
                name = self.ts.expect_ident().text
                node = n.AttrAccess(node, name)
            elif self.ts.accept("["):
                index = self.parse_expression()
                self.ts.expect_symbol("]")
                node = n.Index(node, index)
            elif self.ts.at_symbol(*_PATH_ARROWS):
                steps = []
                while self.ts.at_symbol(*_PATH_ARROWS):
                    direction = _PATH_ARROWS[self.ts.next().text]
                    classes = ()
                    if self.ts.at_symbol("{"):
                        classes = self._class_list()
                    steps.append(n.PathStep(direction, classes))
                node = n.PathApply(node, tuple(steps))
            else:
                self._depth = depth
                return node

    def _class_list(self) -> tuple[n.ClassSpec, ...]:
        self.ts.expect_symbol("{")
        specs = []
        while True:
            name = self.ts.expect_ident().text
            specs.append(n.ClassSpec(name, self.ts.accept("!")))
            if not self.ts.accept(","):
                break
        self.ts.expect_symbol("}")
        return tuple(specs)

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
            classes = self._class_list() if self.ts.at_symbol("{") else ()
            return n.ElementSet(word, classes)
        if word == "from":
            return self._comprehension()
        if word in RESERVED:
            self.ts.error(f"unexpected '{word}'")
        if word == "map" and self.ts.peek(1).text == "(":
            return self._map_literal()
        self.ts.next()
        if self.ts.at_symbol("{"):
            classes = self._class_list()
            self.ts.expect_symbol("(")
            args = self._arguments()
            return n.Call(word, classes, args)
        if self.ts.accept("("):
            args = self._arguments()
            return n.Call(word, None, args)
        if word not in self._bound and not self._external(word):
            raise ParseError(f"unbound variable '{word}'", tok.line, tok.column)
        return n.VarRef(word)

    def _arguments(self) -> tuple:
        args = []
        if not self.ts.at_symbol(")"):
            args.append(self.parse_expression())
            while self.ts.accept(","):
                args.append(self.parse_expression())
        self.ts.expect_symbol(")")
        return tuple(args)

    def _map_literal(self):
        self.ts.next()  # map
        self.ts.expect_symbol("(")
        entries = []
        if not self.ts.at_symbol(")"):
            while True:
                key = self.parse_expression()
                self.ts.expect_symbol("->")
                value = self.parse_expression()
                entries.append((key, value))
                if not self.ts.accept(","):
                    break
        self.ts.expect_symbol(")")
        return n.MapLit(tuple(entries))

    def _comprehension(self):
        self.ts.expect_ident("from")
        outer = len(self._bound)
        groups = [self._decl_group()]
        while self.ts.accept(","):
            groups.append(self._decl_group())
        condition = None
        if self.ts.accept("with"):
            condition = self.parse_expression()
        tok = self.ts.peek()
        if tok.kind != "IDENT" or tok.text not in _REPORT_KINDS:
            self.ts.error("expected a report clause")
        kind = _REPORT_KINDS[self.ts.next().text]
        if kind == "map":
            key = self.parse_expression()
            self.ts.expect_symbol("->")
            exprs = [key, self.parse_expression()]
        else:
            exprs = [self.parse_expression()]
            while self.ts.accept(","):
                exprs.append(self.parse_expression())
        self.ts.expect_ident("end")
        del self._bound[outer:]
        return n.Comprehension(tuple(groups), condition, kind, tuple(exprs))

    def _decl_group(self) -> n.DeclGroup:
        names = [self._decl_name()]
        # `x, y : D` — the name list continues while the token after the
        # next identifier is ',' or ':'; otherwise the ',' starts a new group.
        while (
            self.ts.at_symbol(",")
            and self.ts.peek(1).kind == "IDENT"
            and self.ts.peek(2).text in (",", ":")
        ):
            self.ts.next()
            names.append(self._decl_name())
        self.ts.expect_symbol(":")
        domain = self.parse_expression()
        self._bound += names
        return n.DeclGroup(tuple(names), domain)

    def _decl_name(self) -> str:
        tok = self.ts.expect_ident()
        if tok.text in RESERVED:
            raise ParseError(
                f"'{tok.text}' is reserved and cannot be declared",
                tok.line, tok.column,
            )
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
