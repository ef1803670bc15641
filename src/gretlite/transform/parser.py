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

from gretlite.lexer import TokenStream, tokenize
from gretlite.query.parser import MAX_DEPTH, parse_embedded
from gretlite.transform import ops

_STATEMENT_KEYWORDS = (
    "CreateVertices", "CreateEdges", "SetAttributes", "CreateSubgraph",
    "MatchReplace", "Delete", "Iteratively",
)


def parse_script(text: str) -> ops.Transformation:
    ts = TokenStream(tokenize(text))
    if not ts.accept("transformation"):
        ts.error("script must start with 'transformation NAME;'")
    name = ts.expect_ident().text
    ts.expect_symbol(";")
    statements, lines = [], []
    while not ts.at_eof():
        lines.append(ts.peek().line)
        statements.append(_statement(ts, 0))
    return ops.Transformation(name, tuple(statements), tuple(lines))


def _statement(ts: TokenStream, depth: int):
    """One operation; `depth` counts the Iteratively blocks around it."""
    tok = ts.expect("an operation keyword", _STATEMENT_KEYWORDS)
    keyword = tok.text
    op = getattr(ops, keyword)  # each keyword names its op's class
    # arguments are evaluated left to right, so tokens are read in order
    if keyword in ("CreateVertices", "CreateEdges"):
        return op(ts.expect_ident().text, _query_after_arrow(ts))
    if keyword == "SetAttributes":
        class_name = ts.expect_ident().text
        ts.expect_symbol(".")
        return op(class_name, ts.expect_ident().text, _query_after_arrow(ts))
    if keyword in ("CreateSubgraph", "MatchReplace"):
        return op(_TemplateParser(ts).parse(), _query_after_arrow(ts))
    if keyword == "Delete":
        query = _query(ts)
        ts.expect_symbol(";")
        return op(query)
    # Iteratively
    if depth == MAX_DEPTH:
        ts.fail(f"Iteratively blocks nested more than {MAX_DEPTH} levels deep",
                tok)
    ts.expect_symbol("{")
    body = []
    while not ts.at_symbol("}"):
        if ts.at_eof():
            ts.error("unterminated Iteratively block")
        body.append(_statement(ts, depth + 1))
    if not body:
        ts.error("Iteratively block must contain at least one operation")
    ts.next()
    return op(tuple(body))


def _query_after_arrow(ts: TokenStream):
    ts.expect_symbol("<==")
    query = _query(ts)
    ts.expect_symbol(";")
    return query


def _query(ts: TokenStream):
    """An embedded query, which may name the trace views."""
    return parse_embedded(ts, ops.trace_view)


class _TemplateParser:
    def __init__(self, ts: TokenStream):
        self.ts = ts
        self.edges: list[ops.TemplateEdge] = []
        self.aliases: dict[str, ops.TemplateVertex] = {}

    def parse(self) -> ops.Template:
        self.ts.separated(self._chain)
        return ops.Template(tuple(self.aliases.values()), tuple(self.edges))

    def _chain(self):
        left = self._endpoint()
        while self.ts.accept("-->"):
            class_name, arch, assigns = self._arrow_body()
            right = self._endpoint()
            self.edges.append(
                ops.TemplateEdge(class_name, left, right, arch, assigns)
            )
            left = right

    def _endpoint(self) -> str:
        if self.ts.accept("("):
            tok = self.ts.expect_ident()
            if self.ts.accept(")"):
                return self._known(tok)
            if self.ts.accept(":="):
                fields = {"ref": _query(self.ts)}
            else:
                self.ts.expect_symbol(":")
                fields = {"class_name": self.ts.expect_ident().text}
                self.ts.expect_symbol("|")
                fields["arch"] = self._arch()
            fields["assigns"] = self._assigns()
            self.ts.expect_symbol(")")
            return self._declare(tok, **fields)
        return self._known(self.ts.expect_ident())

    def _arrow_body(self):
        self.ts.expect_symbol("{")
        class_name = self.ts.expect_ident().text
        arch = self._arch() if self.ts.accept("|") else None
        assigns = self._assigns()
        self.ts.expect_symbol("}")
        return class_name, arch, assigns

    def _arch(self):
        """The query of an `arch = Q` that follows a '|'."""
        self.ts.expect_ident("arch")
        self.ts.expect_symbol("=")
        return _query(self.ts)

    def _assigns(self) -> tuple:
        return self.ts.separated(self._assign) if self.ts.accept(",") else ()

    def _assign(self) -> tuple:
        name = self.ts.expect_ident().text
        self.ts.expect_symbol("=")
        return name, _query(self.ts)

    def _declare(self, tok, **fields) -> str:
        """Declare the alias the token `tok` names, for a vertex of `fields`."""
        if tok.text in self.aliases:
            self.ts.fail(f"duplicate template alias '{tok.text}'",
                         tok)
        self.aliases[tok.text] = ops.TemplateVertex(tok.text, **fields)
        return tok.text

    def _known(self, tok) -> str:
        """The alias the token `tok` names, which must be declared."""
        if tok.text not in self.aliases:
            self.ts.fail(f"unknown template alias '{tok.text}'", tok)
        return tok.text
