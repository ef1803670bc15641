"""Text formats for schemas (.gls) and graphs (.glg), plus DOT export.

Saved graphs are canonical: vertices then edges, creation order, all
attributes in declaration order, positional labels v1../e1...  Loading a
saved document and saving it again reproduces it byte for byte.

A `.glg` file is a header `graph NAME conforms SCHEMA;` followed by one
statement per element, in creation order:

    LABEL : CLASS [START -> END] [{ ATTR = LITERAL [,] ... }] ;

START and END (required for edge classes, absent for vertex classes) are
labels of vertices declared earlier.  A LITERAL is a string, a number
with an optional '-' before it, `true` or `false`.  Whitespace and `//`
comments may stand between any two tokens, and identifiers, numbers and
strings follow the lexer's rules.  The header goes through the lexer;
each statement is read with one match of `_STATEMENT`, and its attribute
entries with `_ENTRY`.  Every error is a ParseError with the line and
column of the offending token, and the first fault in file order is the
one reported.
"""

from __future__ import annotations

import re

from gretlite import model
from gretlite.errors import GraphError, ParseError, SchemaError
from gretlite.lexer import (
    IDENT,
    NUMBER,
    STRING,
    Token,
    TokenStream,
    scan,
    string_value,
    tokenize,
)
from gretlite.values import quote_string

_ATTR_TYPES = {t.value: t for t in model.AttrType}

# Each piece of the `.glg` patterns below matches exactly the lexer's
# token: whitespace and whole `//` comments (a comment never gives back
# characters), the lexer's own identifier, number and string rules, and
# a symbol only where the lexer would not read a longer one (':' but not
# ':=', '-' but not '->' or '-->').  Every group is optional after the
# first, so a failed statement still shows how far it got.  They are
# compiled on first use (`re` keeps them), so a process that reads no
# graph does not compile them.
_S = r"(?:\s|//.*(?!.))*"
# groups: name, string, '-', number, boolean
_ENTRY = (
    rf"({IDENT}){_S}={_S}"
    rf"(?:({STRING})|(?:(-){_S})?({NUMBER})|(true|false)(?!\w))"
    rf"{_S}(?:,{_S})?"
)
# the statement repeats the entry pattern with its groups made non-capturing
_ENTRIES = "(?:" + re.sub(r"\((?!\?)", "(?:", _ENTRY) + ")*"
# groups: label, ':', class, start, '->', end, '{', entries, '}', ';'
_STATEMENT = (
    rf"({IDENT}){_S}(?:(:(?!=)){_S}(?:({IDENT}){_S}"
    rf"(?:({IDENT}){_S}(?:(->){_S}(?:({IDENT}){_S})?)?)?"
    rf"(?:(\{{){_S}({_ENTRIES})"
    rf"(?:(\}}){_S})?)?"
    rf"(?:(;){_S})?)?)?"
)
_HEADER = (rf"{_S}graph(?!\w){_S}{IDENT}{_S}conforms(?!\w){_S}{IDENT}{_S}"
           rf";{_S}")
# groups: name, '=', '-'; reads a malformed entry as far as it goes
_ENTRY_HEAD = rf"({IDENT}){_S}(?:(=){_S}(?:(-)(?!-?>){_S})?)?"


def load_schema(text: str) -> model.Schema:
    ts = TokenStream(tokenize(text))
    ts.expect_ident("schema")
    schema = model.Schema(ts.expect_ident().text)
    ts.expect_symbol(";")
    while not ts.at_eof():
        _class_decl(ts, schema)
    return schema


def _class_decl(ts: TokenStream, schema: model.Schema):
    tok = ts.peek()
    is_aggregation = False
    is_abstract = False
    if ts.at_ident("aggregation"):
        ts.next()
        is_aggregation = True
    if ts.at_ident("abstract"):
        ts.next()
        is_abstract = True
    if ts.at_ident("vertexclass"):
        if is_aggregation:
            ts.error("'aggregation' applies to edge classes only")
        ts.next()
        name = ts.expect_ident().text
        supers = _supertypes(ts)
        attrs = _attr_block(ts)
        ts.expect_symbol(";")
        define = lambda: schema.define_vertex_class(
            name, is_abstract=is_abstract, supertypes=supers, attributes=attrs
        )
    elif ts.at_ident("edgeclass"):
        ts.next()
        name = ts.expect_ident().text
        supers = _supertypes(ts)
        ts.expect_ident("from")
        from_class = ts.expect_ident().text
        _skip_multiplicity(ts)
        ts.expect_ident("to")
        to_class = ts.expect_ident().text
        _skip_multiplicity(ts)
        attrs = _attr_block(ts)
        ts.expect_symbol(";")
        define = lambda: schema.define_edge_class(
            name, from_class, to_class, is_abstract=is_abstract,
            supertypes=supers, is_aggregation=is_aggregation, attributes=attrs,
        )
    else:
        ts.error("expected a class declaration")
    try:
        define()
    except SchemaError as exc:
        raise ParseError(str(exc), tok.line, tok.column) from None


def _supertypes(ts: TokenStream) -> tuple[str, ...]:
    if not ts.at_symbol(":"):
        return ()
    ts.next()
    supers = [ts.expect_ident().text]
    while ts.at_symbol(","):
        ts.next()
        supers.append(ts.expect_ident().text)
    return tuple(supers)


def _attr_block(ts: TokenStream) -> tuple:
    if not ts.at_symbol("{"):
        return ()
    ts.next()
    attrs = []
    while not ts.at_symbol("}"):
        name = ts.expect_ident().text
        ts.expect_symbol(":")
        type_tok = ts.expect_ident()
        atype = _ATTR_TYPES.get(type_tok.text)
        if atype is None:
            raise ParseError(
                f"unknown attribute type '{type_tok.text}'",
                type_tok.line, type_tok.column,
            )
        attrs.append((name, atype))
        if ts.at_symbol(","):
            ts.next()
    ts.next()
    return tuple(attrs)


def _skip_multiplicity(ts: TokenStream):
    # multiplicities like (0,*) are accepted and ignored
    if not ts.at_symbol("("):
        return
    ts.next()
    if ts.peek().kind != "NUMBER":
        ts.error("expected a multiplicity lower bound")
    ts.next()
    ts.expect_symbol(",")
    if ts.at_symbol("*"):
        ts.next()
    elif ts.peek().kind == "NUMBER":
        ts.next()
    else:
        ts.error("expected a multiplicity upper bound")
    ts.expect_symbol(")")


def save_schema(schema: model.Schema) -> str:
    lines = [f"schema {schema.name};"]
    for cls in schema.vertex_classes:
        head = "abstract vertexclass" if cls.is_abstract else "vertexclass"
        lines.append(f"{head} {cls.name}{_supers_text(cls)}{_attrs_text(cls)};")
    for cls in schema.edge_classes:
        head = "edgeclass"
        if cls.is_abstract:
            head = f"abstract {head}"
        if cls.is_aggregation:
            head = f"aggregation {head}"
        lines.append(
            f"{head} {cls.name}{_supers_text(cls)} "
            f"from {cls.from_class} to {cls.to_class}{_attrs_text(cls)};"
        )
    return "\n".join(lines) + "\n"


def _supers_text(cls) -> str:
    return f" : {', '.join(cls.supertypes)}" if cls.supertypes else ""


def _attrs_text(cls) -> str:
    if not cls.attributes:
        return ""
    body = ", ".join(f"{a}: {t.value}" for a, t in cls.attributes)
    return " { " + body + " }"


def load_graph(text: str, schema: model.Schema) -> model.Graph:
    header = re.match(_HEADER, text)
    # A header the regex rejects is parsed from a lazy scan of the file,
    # which raises at its first fault.
    ts = TokenStream(tokenize(header.group()) if header else scan(text))
    ts.expect_ident("graph")
    name_tok = ts.expect_ident()
    ts.expect_ident("conforms")
    schema_tok = ts.expect_ident()
    if schema_tok.text != schema.name:
        raise ParseError(
            f"graph conforms to '{schema_tok.text}' but schema "
            f"'{schema.name}' was given",
            schema_tok.line, schema_tok.column,
        )
    ts.expect_symbol(";")
    graph = model.Graph(schema, name=name_tok.text)
    labels: dict[str, model.Element] = {}
    statement, entries = re.compile(_STATEMENT), re.compile(_ENTRY)
    pos = header.end()
    while pos < len(text):
        m = statement.match(text, pos)
        if m is None:
            _expected(text, pos, "identifier")
        label, colon, class_name, start, arrow, end, brace, _, close, semi = \
            m.groups()
        # a label the lexer rejects ('²x') fails as `_invalid` lexes it
        if not (label[0].isalpha() or label[0] == "_") or label in labels:
            _invalid(text, pos, f"duplicate element id '{label}'")
        if colon is None:
            _expected(text, m.end(1), "':'")
        if class_name is None:
            _expected(text, m.end(2), "identifier")
        if not schema.has_class(class_name):
            _invalid(text, m.start(3), f"unknown class '{class_name}'")
        try:
            if schema.is_vertex_class(class_name):
                element = graph.create_vertex(class_name)
                if start is not None:
                    _expected(text, m.start(4), "';'")
            else:
                if start is None:
                    _expected(text, m.end(3), "identifier")
                tail = _vertex(text, m, 4, labels)
                if arrow is None:
                    _expected(text, m.end(4), "'->'")
                if end is None:
                    _expected(text, m.end(5), "identifier")
                element = graph.create_edge(class_name, tail,
                                            _vertex(text, m, 6, labels))
        except GraphError as exc:
            _invalid(text, m.start(3), str(exc))
        labels[label] = element
        if brace is not None:
            for e in entries.finditer(text, m.start(8), m.end(8)):
                _set_attr(text, e, element)
            if close is None:
                _entry_fault(text, m.end(8))
        if semi is None:
            _expected(text, m.end(), "';'")
        pos = m.end()
    return graph


def _vertex(text: str, m: re.Match, group: int, labels) -> model.Vertex:
    name = m[group]
    element = labels.get(name)
    if element is None:
        _invalid(text, m.start(group),
                 f"edge references undeclared element '{name}'")
    if not isinstance(element, model.Vertex):
        _invalid(text, m.start(group),
                 f"edge endpoint '{name}' is not a vertex")
    return element


def _set_attr(text: str, e: re.Match, element: model.Element):
    name, string, minus, number, boolean = e.groups()
    if string is not None:
        value = string_value(string)
    elif number is not None:
        try:
            value = int(number) if number.isdecimal() else float(number)
        except ValueError:  # the lexer reports the over-long literal
            _invalid(text, e.start(4), "number literal too long")
        if minus is not None:
            value = -value
    else:
        value = boolean == "true"
    try:
        element.set_attr(name, value)
    except (GraphError, SchemaError) as exc:
        _invalid(text, e.start(), str(exc))


def _entry_fault(text: str, pos: int):
    """Raise for the malformed attribute entry, or the missing '}', at
    `pos`."""
    e = re.compile(_ENTRY_HEAD).match(text, pos)
    if e is None:
        _expected(text, pos, "identifier")
    if e[2] is None:
        _expected(text, e.end(1), "'='")
    _expected(text, e.end(),
              "a literal" if e[3] is None else "a number after '-'")


def _token_at(text: str, pos: int) -> Token:
    """The token at `pos`, after any whitespace; the lexer raises its own
    error if that token is malformed."""
    return next(scan(text, re.compile(_S).match(text, pos).end()))


def _expected(text: str, pos: int, what: str):
    TokenStream([_token_at(text, pos)]).error(f"expected {what}")


def _invalid(text: str, pos: int, message: str):
    tok = _token_at(text, pos)
    raise ParseError(message, tok.line, tok.column)


def _render_literal(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return quote_string(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def save_graph(graph: model.Graph) -> str:
    lines = [f"graph {graph.name} conforms {graph.schema.name};"]
    vertex_labels = {v.id: f"v{i}" for i, v in enumerate(graph.vertices, 1)}
    for i, v in enumerate(graph.vertices, 1):
        lines.append(f"v{i} : {v.class_name}{_attr_store_text(v)};")
    for i, e in enumerate(graph.edges, 1):
        endpoints = f" {vertex_labels[e.start.id]} -> {vertex_labels[e.end.id]}"
        lines.append(f"e{i} : {e.class_name}{endpoints}{_attr_store_text(e)};")
    return "\n".join(lines) + "\n"


def _attr_store_text(element: model.Element) -> str:
    names = element.attr_names()
    if not names:
        return ""
    body = ", ".join(
        f"{name} = {_render_literal(element.attr(name))}" for name in names
    )
    return " { " + body + " }"


def export_dot(graph: model.Graph) -> str:
    """DOT rendering for inspection: one node per vertex, labeled with
    class, id, and attribute values; one arrow per edge."""
    lines = ["digraph G {"]
    vertex_labels = {v.id: f"v{i}" for i, v in enumerate(graph.vertices, 1)}
    for i, v in enumerate(graph.vertices, 1):
        parts = [v.class_name, f"v{i}"]
        parts += [
            f"{name} = {_render_literal(v.attr(name))}"
            for name in v.attr_names()
        ]
        label = _dot_escape("\\n".join(parts))
        lines.append(f'  v{i} [label="{label}"];')
    for e in graph.edges:
        lines.append(
            f"  {vertex_labels[e.start.id]} -> {vertex_labels[e.end.id]} "
            f'[label="{_dot_escape(e.class_name)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace('"', '\\"')
