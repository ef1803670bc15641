"""Text formats for schemas (.gls) and graphs (.glg).

Saved graphs are canonical: vertices then edges, creation order, all
attributes in declaration order (the order of each element's store),
positional labels v1../e1...  Loading a saved document and saving it
again reproduces it byte for byte.

A `.glg` file is a header `graph NAME conforms SCHEMA;` followed by one
statement per element, in creation order:

    LABEL : CLASS [START -> END] [{ ATTR = LITERAL [,] ... }] ;

START and END (required for edge classes, absent for vertex classes) are
labels of vertices declared earlier.  A LITERAL is a string, a number
with an optional '-' before it, `true` or `false`.  Whitespace and `//`
comments may stand between any two tokens, and identifiers, numbers and
strings follow the lexer's rules.  The header goes through the lexer.

The statements are read by matching `_LEAN`, which takes whole
statements only, each where the last one ended, and an attribute block's
entries with `_ENTRY` the same way.  That reader builds no message: at a
statement it cannot take it stops, and `_fault` reads that one statement
token by token from a lazy scan of the lexer, as the schema parser reads
its declarations, and raises.  So every error is a ParseError with the
line and column of the offending token, and the first fault in file
order is the one reported.
"""

from __future__ import annotations

import re
from itertools import islice

from gretlite import model
from gretlite.errors import GraphError, SchemaError
from gretlite.lexer import (IDENT, NUMBER, STRING, TokenStream, scan,
                            string_value, tokenize)
from gretlite.model import Vertex, VertexClass
from gretlite.values import render_value

_ATTR_TYPES = {t.value: t for t in model.AttrType}

# Each piece of the `.glg` patterns below matches exactly the lexer's
# token: whitespace and whole `//` comments (a comment never gives back
# characters), the lexer's identifier, number and string rules, and a
# symbol only where the lexer would not read a longer one ('-' but not
# '->' or '-->').  A statement they do not take, `_fault` reads again
# from the lexer's tokens.
_S = r"\s*(?://.*(?!.)\s*)*"
# groups: name, string, '-', number, boolean
_ENTRY = (
    rf"({IDENT}){_S}={_S}"
    rf"(?:({STRING})|(?:(-){_S})?({NUMBER})|(true|false)(?!\w))"
    rf"{_S}(?:,{_S})?"
)
# an attribute block's text up to its '}', strings and comments skipped
# whole; `_ENTRY` then reads it
_BLOCK = rf'[^"}}/]*(?:(?:{STRING}|//.*(?!.))[^"}}/]*)*'
# groups: label, class, start, end, block
_LEAN = (
    rf"({IDENT}){_S}:{_S}({IDENT}){_S}"
    rf"(?:({IDENT}){_S}->{_S}({IDENT}){_S})?"
    rf"(?:\{{{_S}({_BLOCK})\}}{_S})?;{_S}"
)
_HEADER = (rf"{_S}graph(?!\w){_S}{IDENT}{_S}conforms(?!\w){_S}{IDENT}{_S}"
           rf";{_S}")


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
    is_aggregation = ts.accept("aggregation")
    is_abstract = ts.accept("abstract")
    if is_aggregation and ts.peek().text == "vertexclass":
        ts.error("'aggregation' applies to edge classes only")
    kind = ts.expect("a class declaration", ("vertexclass", "edgeclass")).text
    name = ts.expect_ident().text
    fields = {"is_abstract": is_abstract, "supertypes": _supertypes(ts)}
    define = schema.define_vertex_class
    if kind == "edgeclass":
        define = schema.define_edge_class
        for end in ("from", "to"):
            ts.expect_ident(end)
            fields[f"{end}_class"] = ts.expect_ident().text
            _skip_multiplicity(ts)
        fields["is_aggregation"] = is_aggregation
    fields["attributes"] = _attr_block(ts)
    ts.expect_symbol(";")
    try:
        define(name, **fields)
    except SchemaError as exc:
        ts.fail(str(exc), tok)


def _supertypes(ts: TokenStream) -> tuple[str, ...]:
    if not ts.accept(":"):
        return ()
    return ts.separated(lambda: ts.expect_ident().text)


def _attr_block(ts: TokenStream) -> tuple:
    if not ts.accept("{"):
        return ()
    attrs = []
    while not ts.accept("}"):
        name = ts.expect_ident().text
        ts.expect_symbol(":")
        type_tok = ts.expect_ident()
        if type_tok.text not in _ATTR_TYPES:
            ts.fail(f"unknown attribute type '{type_tok.text}'", type_tok)
        attrs.append((name, _ATTR_TYPES[type_tok.text]))
        ts.accept(",")
    return tuple(attrs)


def _skip_multiplicity(ts: TokenStream):
    # multiplicities like (0,*) are accepted and ignored
    if not ts.accept("("):
        return
    ts.expect("a multiplicity lower bound", kinds=("NUMBER",))
    ts.expect_symbol(",")
    ts.expect("a multiplicity upper bound", ("*",), kinds=("NUMBER",))
    ts.expect_symbol(")")


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
        ts.fail(f"graph conforms to '{schema_tok.text}' but schema "
                f"'{schema.name}' was given", schema_tok)
    ts.expect_symbol(";")
    graph = model.Graph(schema, name=name_tok.text)
    labels: dict[str, model.Element] = {}
    classes = schema._classes
    create_vertex, create_edge = graph.create_vertex, graph.create_edge
    statement, entry = re.compile(_LEAN).match, re.compile(_ENTRY).match
    pos = header.end()
    while (m := statement(text, pos)) is not None:
        label, class_name, start, end, block = m.groups()
        if label in labels or not (label[0].isalpha() or label[0] == "_"):
            break
        try:
            # an unknown class or an endpoint that is no vertex raises
            if type(classes.get(class_name)) is VertexClass:
                if start is not None:
                    break
                element = create_vertex(class_name)
            else:
                element = create_edge(class_name, labels.get(start),
                                      labels.get(end))
            if block is not None:
                at, block_end = m.span(5)
                while (e := entry(text, at, block_end)) is not None:
                    element.set_attr(e[1], _value(e))
                    at = e.end()
                if at != block_end:
                    break
        except (GraphError, SchemaError, ValueError):
            break
        labels[label] = element
        pos = m.end()
    if pos != len(text):
        _fault(text, pos, graph, labels)
    return graph


def _fault(text: str, pos: int, graph: model.Graph, labels):
    """Raise the error of the statement at `pos`, which `load_graph` did
    not take, given the `labels` declared before it.  The scan is lazy,
    so a lexical fault after the statement's first fault is never read."""
    ts = TokenStream(scan(text, pos))
    label = ts.expect_ident()
    if label.text in labels:
        ts.fail(f"duplicate element id '{label.text}'", label)
    ts.expect_symbol(":")
    class_tok = ts.expect_ident()
    cls = graph.schema._classes.get(class_tok.text)
    if cls is None:
        ts.fail(f"unknown class '{class_tok.text}'", class_tok)
    try:
        if type(cls) is VertexClass:
            element = graph.create_vertex(cls.name)
        else:
            tail = _vertex(ts, labels)
            ts.expect_symbol("->")
            element = graph.create_edge(cls.name, tail, _vertex(ts, labels))
    except GraphError as exc:
        ts.fail(str(exc), class_tok)
    if ts.accept("{"):
        while not ts.accept("}"):
            name = ts.expect_ident()
            ts.expect_symbol("=")
            try:
                element.set_attr(name.text, _literal(ts))
            except (GraphError, SchemaError) as exc:
                ts.fail(str(exc), name)
            ts.accept(",")
    ts.expect_symbol(";")
    raise AssertionError(f"no fault in the statement at offset {pos}")


def _vertex(ts: TokenStream, labels) -> Vertex:
    tok = ts.expect_ident()
    element = labels.get(tok.text)
    if element is None:
        ts.fail(f"edge references undeclared element '{tok.text}'", tok)
    if not isinstance(element, Vertex):
        ts.fail(f"edge endpoint '{tok.text}' is not a vertex", tok)
    return element


def _literal(ts: TokenStream):
    if ts.accept("-"):
        return -ts.expect("a number after '-'", kinds=("NUMBER",)).value
    if ts.peek().text in ("true", "false"):
        return ts.next().text == "true"
    return ts.expect("a literal", kinds=("NUMBER", "STRING")).value


def _value(e: re.Match):
    """An `_ENTRY` match's value; ValueError beyond int()'s digit limit."""
    _, string, minus, number, boolean = e.groups()
    if string is not None:
        return string_value(string)
    if number is None:
        return boolean == "true"
    value = int(number) if number.isdecimal() else float(number)
    return value if minus is None else -value


def save_graph(graph: model.Graph) -> str:
    labels = vertex_labels(graph)
    return f"graph {graph.name} conforms {graph.schema.name};\n" + joined(
        f"{label} : {v.class_name}{_store_text(v)};\n"
        for v, label in labels.items()) + joined(
        f"e{i} : {e.class_name} {labels[e.start]} -> {labels[e.end]}"
        f"{_store_text(e)};\n" for i, e in enumerate(graph.edges, 1))


def joined(lines) -> str:
    """`"".join(lines)` a thousand at a time: of the strings `lines`
    yields, at most a thousand are alive at once, not one per line."""
    lines = iter(lines)
    return "".join(iter(lambda: "".join(islice(lines, 1000)), ""))


def vertex_labels(graph: model.Graph) -> dict[Vertex, str]:
    """Each vertex's positional label, v1, v2, ... in creation order."""
    return {v: f"v{i}" for i, v in enumerate(graph.vertices, 1)}


def assignments(element: model.Element) -> list[str]:
    # an element's store holds every attribute of its class, already in
    # declaration order, inherited ones first
    return [f"{name} = {render_value(value)}"
            for name, value in element._attrs.items()]


def _store_text(element: model.Element) -> str:
    if not element._attrs:
        return ""
    return " { " + ", ".join(assignments(element)) + " }"

