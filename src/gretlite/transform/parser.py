"""Parser for transformation scripts.

Statement forms:

    CreateVertices T <== Q;
    CreateEdges T <== Q;
    SetAttributes T.a <== Q;
    CreateSubgraph TEMPLATE <== Q;
    MatchReplace TEMPLATE <== Q;
    Delete Q;
    Iteratively { STMT+ }

Templates are comma-separated chains of parenthesized vertex items joined
by `-->{T ...}` arrows; embedded queries use the query-language grammar.
`Iteratively` blocks nest at most MAX_DEPTH deep, the query parser's
limit; a deeper one is a ParseError at its keyword.
"""

from __future__ import annotations

from gretlite.errors import ParseError
from gretlite.lexer import TokenStream, tokenize
from gretlite.query.parser import MAX_DEPTH, parse_embedded
from gretlite.transform import ops

_STATEMENT_KEYWORDS = (
    "CreateVertices", "CreateEdges", "SetAttributes", "CreateSubgraph",
    "MatchReplace", "Delete", "Iteratively",
)


def parse_script(text: str) -> ops.Transformation:
    ts = TokenStream(tokenize(text))
    if not ts.at_ident("transformation"):
        ts.error("script must start with 'transformation NAME;'")
    ts.next()
    name = ts.expect_ident().text
    ts.expect_symbol(";")
    statements = []
    while not ts.at_eof():
        statements.append(_statement(ts, 0))
    return ops.Transformation(name, tuple(statements))


def _statement(ts: TokenStream, depth: int):
    """One operation; `depth` counts the Iteratively blocks around it."""
    tok = ts.peek()
    if tok.kind != "IDENT" or tok.text not in _STATEMENT_KEYWORDS:
        ts.error("expected an operation keyword")
    keyword = ts.next().text
    if keyword == "CreateVertices":
        class_name = ts.expect_ident().text
        query = _query_after_arrow(ts)
        return ops.CreateVertices(class_name, query)
    if keyword == "CreateEdges":
        class_name = ts.expect_ident().text
        query = _query_after_arrow(ts)
        return ops.CreateEdges(class_name, query)
    if keyword == "SetAttributes":
        class_name = ts.expect_ident().text
        ts.expect_symbol(".")
        attr_name = ts.expect_ident().text
        query = _query_after_arrow(ts)
        return ops.SetAttributes(class_name, attr_name, query)
    if keyword in ("CreateSubgraph", "MatchReplace"):
        template = _template(ts)
        query = _query_after_arrow(ts)
        op = ops.CreateSubgraph if keyword == "CreateSubgraph" else ops.MatchReplace
        return op(template, query)
    if keyword == "Delete":
        query = parse_embedded(ts)
        ts.expect_symbol(";")
        return ops.Delete(query)
    # Iteratively
    if depth == MAX_DEPTH:
        raise ParseError(
            f"Iteratively blocks nested more than {MAX_DEPTH} levels deep",
            tok.line, tok.column)
    ts.expect_symbol("{")
    body = []
    while not ts.at_symbol("}"):
        if ts.at_eof():
            ts.error("unterminated Iteratively block")
        body.append(_statement(ts, depth + 1))
    if not body:
        ts.error("Iteratively block must contain at least one operation")
    ts.next()
    return ops.Iteratively(tuple(body))


def _query_after_arrow(ts: TokenStream):
    ts.expect_symbol("<==")
    query = parse_embedded(ts)
    ts.expect_symbol(";")
    return query


class _TemplateParser:
    def __init__(self, ts: TokenStream):
        self.ts = ts
        self.vertices: list[ops.TemplateVertex] = []
        self.edges: list[ops.TemplateEdge] = []
        self.aliases: dict[str, ops.TemplateVertex] = {}

    def parse(self) -> ops.Template:
        self._chain()
        while self.ts.at_symbol(","):
            self.ts.next()
            self._chain()
        return ops.Template(tuple(self.vertices), tuple(self.edges))

    def _chain(self):
        left = self._endpoint()
        while self.ts.at_symbol("-->"):
            self.ts.next()
            class_name, arch, assigns = self._arrow_body()
            right = self._endpoint()
            self.edges.append(
                ops.TemplateEdge(class_name, left, right, arch, assigns)
            )
            left = right

    def _endpoint(self) -> str:
        if self.ts.at_symbol("("):
            self.ts.next()
            alias = self._alias_token()
            if self.ts.at_symbol(")"):
                self.ts.next()
                return self._known(alias)
            if self.ts.at_symbol(":="):
                self.ts.next()
                ref = parse_embedded(self.ts)
                assigns = self._assigns()
                self.ts.expect_symbol(")")
                self._declare(ops.TemplateVertex(alias, ref=ref, assigns=assigns))
                return alias
            self.ts.expect_symbol(":")
            class_name = self.ts.expect_ident().text
            self.ts.expect_symbol("|")
            self.ts.expect_ident("arch")
            self.ts.expect_symbol("=")
            arch = parse_embedded(self.ts)
            assigns = self._assigns()
            self.ts.expect_symbol(")")
            self._declare(
                ops.TemplateVertex(alias, class_name=class_name, arch=arch,
                                   assigns=assigns)
            )
            return alias
        return self._known(self._alias_token())

    def _arrow_body(self):
        self.ts.expect_symbol("{")
        class_name = self.ts.expect_ident().text
        arch = None
        if self.ts.at_symbol("|"):
            self.ts.next()
            self.ts.expect_ident("arch")
            self.ts.expect_symbol("=")
            arch = parse_embedded(self.ts)
        assigns = self._assigns()
        self.ts.expect_symbol("}")
        return class_name, arch, assigns

    def _assigns(self) -> tuple:
        assigns = []
        while self.ts.at_symbol(","):
            self.ts.next()
            name = self.ts.expect_ident().text
            self.ts.expect_symbol("=")
            assigns.append((name, parse_embedded(self.ts)))
        return tuple(assigns)

    def _alias_token(self) -> str:
        return self.ts.expect_ident().text

    def _declare(self, vertex: ops.TemplateVertex):
        if vertex.alias in self.aliases:
            tok = self.ts.peek()
            raise ParseError(
                f"duplicate template alias '{vertex.alias}'", tok.line, tok.column
            )
        self.aliases[vertex.alias] = vertex
        self.vertices.append(vertex)

    def _known(self, alias: str) -> str:
        if alias not in self.aliases:
            tok = self.ts.peek()
            raise ParseError(
                f"unknown template alias '{alias}'", tok.line, tok.column
            )
        return alias


def _template(ts: TokenStream) -> ops.Template:
    return _TemplateParser(ts).parse()
