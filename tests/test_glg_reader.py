"""The statement-level `.glg` reader against the token-by-token oracle."""

import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gretlite import corpus, formats
from gretlite.errors import ParseError
from gretlite.formats import load_graph, load_schema, save_graph
from gretlite.values import quote_string

import genutil
import oracles

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

SCHEMA = load_schema(
    "schema t;\n"
    "vertexclass A { s: String, i: Integer, b: Boolean, d: Double };\n"
    "vertexclass B : A { t: String };\n"
    "abstract vertexclass Abs;\n"
    "edgeclass E from A to A { w: Double, n: Integer };\n"
    "edgeclass F from B to A;\n"
)
ATTRS = {
    "A": ("s", "i", "b", "d"),
    "B": ("s", "i", "b", "d", "t"),
    "E": ("w", "n"),
    "F": (),
}
KINDS = {"s": "str", "t": "str", "i": "int", "n": "int", "b": "bool",
         "d": "float", "w": "float"}

# Between two tokens: nothing, blanks, line breaks, or a comment holding
# characters that would end a statement outside it.
GAPS = ("", " ", "\n", "\t", "  \n  ", "\r\n", ' // c; } "x\n', "//\n")
LABELS = st.sampled_from(
    ["v1", "e1", "x", "_y", "true", "false", "graph", "conforms", "é",
     "a²", "Node", "A", "n_2"])
STRINGS = st.text(st.sampled_from('ab "\\\n\t\r;{}/é²'), max_size=6)


def _literal(draw, kind):
    """Literal tokens for one value of `kind`; a '-' is its own token."""
    if kind == "str":
        return [quote_string(draw(STRINGS))]
    if kind == "bool":
        return [draw(st.sampled_from(["true", "false"]))]
    if kind == "int":
        value = draw(st.integers(-10**6, 10**6))
    else:
        value = draw(st.floats(allow_nan=False, allow_infinity=False)
                     | st.integers(-1000, 1000)
                     | st.sampled_from([1e-7, 2.5e300, -0.0]))
    text = repr(value) if isinstance(value, float) else str(value)
    if draw(st.booleans()) and isinstance(value, float):
        text = text.upper()  # 1E-07
    return ["-", text[1:]] if text.startswith("-") else [text]


def _block(draw, class_name):
    names = ATTRS[class_name]
    if not names or not draw(st.booleans()):
        return []
    chosen = draw(st.lists(st.sampled_from(names), max_size=6))
    tokens = ["{"]
    for i, name in enumerate(chosen):
        tokens += [name, "=", *_literal(draw, KINDS[name])]
        last = i == len(chosen) - 1
        if draw(st.booleans()) or (not last and draw(st.booleans())):
            tokens.append(",")
    return tokens + ["}"]


def _render(draw, tokens):
    out = [tokens[0]]
    for prev, tok in zip(tokens, tokens[1:]):
        gap = draw(st.sampled_from(GAPS))
        if not gap and (prev[-1].isalnum() or prev[-1] in "_²") and \
                (tok[0].isalnum() or tok[0] == "_"):
            gap = " "  # keep two words apart
        out += [gap, tok]
    return "".join(out)


@st.composite
def hand_spaced(draw):
    """A valid graph with every token spacing the format allows."""
    labels = draw(st.lists(LABELS, unique=True, min_size=1, max_size=8))
    tokens = ["graph", "g", "conforms", "t", ";"]
    vertices = {}
    for label in labels:
        if vertices and draw(st.booleans()):
            start = draw(st.sampled_from(sorted(vertices)))
            end = draw(st.sampled_from(sorted(vertices)))
            cls = "F" if vertices[start] == "B" else "E"
            tokens += [label, ":", cls, start, "->", end, *_block(draw, cls),
                       ";"]
        else:
            cls = draw(st.sampled_from(["A", "B"]))
            vertices[label] = cls
            tokens += [label, ":", cls, *_block(draw, cls), ";"]
    return draw(st.sampled_from(GAPS)) + _render(draw, tokens) + \
        draw(st.sampled_from(GAPS))


@settings(max_examples=100, deadline=None)
@given(hand_spaced())
@example('graph g conforms t; x : A { d = - // minus\n 3e2, s = "a\\"}\\\\;" };'
         "\ntrue : B { i = -0 b = true, t = \"\" , }; e : E x -> true;")
def test_hand_spaced_graphs_load_like_the_oracle(text):
    graph = load_graph(text, SCHEMA)
    saved = save_graph(graph)
    assert saved == save_graph(oracles.naive_load_graph(text, SCHEMA))
    # the saved form is canonical and reads back the same under both
    assert save_graph(load_graph(saved, SCHEMA)) == saved
    assert save_graph(oracles.naive_load_graph(saved, SCHEMA)) == saved


def _no_fault(*_):
    raise AssertionError("a valid graph reached the fault locator")


@settings(max_examples=100, deadline=None)
@given(hand_spaced())
@example('graph g conforms t; x : A { s = "a" // c"; } "\n , i = 1 };')
@example('graph g conforms t; x : A { s = "// { } ;" };')
def test_valid_graphs_never_reach_the_fault_locator(text):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_fault", _no_fault)
        graph = load_graph(text, SCHEMA)
    assert save_graph(graph) == save_graph(
        oracles.naive_load_graph(text, SCHEMA))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_inputs_never_reach_the_fault_locator(seed, monkeypatch):
    monkeypatch.setattr(formats, "_fault", _no_fault)
    graph1 = load_schema(corpus.read_text("graph1.gls"))
    graph2 = load_schema(corpus.read_text("graph2.gls"))
    for text, schema in (
            (gen.write_sample(gen.sample(seed, 200, 20, 0.05)), graph1),
            (gen.write_chain(gen.chain(seed, 50)), graph2)):
        graph = load_graph(text, schema)
        assert len(graph.vertices) + len(graph.edges) == text.count(";") - 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_canonical_graphs_load_like_the_oracle(seed):
    schema = genutil.graph1_schema()
    text = save_graph(genutil.random_sample(random.Random(seed), schema))
    assert save_graph(load_graph(text, schema)) == text
    assert save_graph(oracles.naive_load_graph(text, schema)) == text


def _error(reader, text):
    with pytest.raises(ParseError) as info:
        reader(text, SCHEMA)
    return str(info.value), info.value.line, info.value.column


_HEAD = "graph g conforms t;\nx : A;\ny : B;\n"

# One fault each; both readers report it with the same message, line and
# column.
SINGLE_FAULTS = [
    "grph g conforms t;",
    "graph g conforms t",
    "graph g conform t;",
    "graph g conforms other;",
    "graph 1 conforms t;",
    _HEAD + "z : A",
    _HEAD + "z A;",
    _HEAD + "z := A;",
    _HEAD + "z : ;",
    _HEAD + "z :: A;",
    _HEAD + "e : E x y;",
    _HEAD + "e : E x --> y;",
    _HEAD + "e : E x <- y;",
    _HEAD + "e : E x ->;",
    _HEAD + "e : E;",
    _HEAD + "e : E { w = 1.0 };",
    _HEAD + "z : A x -> y;",
    _HEAD + "z : A z;",
    _HEAD + "z : A { i = };",
    _HEAD + "z : A { i = - };",
    _HEAD + "z : A { i = --3 };",
    _HEAD + "z : A { i = ->3 };",
    _HEAD + "z : A { i = - \"x\" };",
    _HEAD + "z : A { i = yes };",
    _HEAD + "z : A { i = truex };",
    _HEAD + "z : A { i = 1.5.2 };",
    _HEAD + "z : A { d = 1e5 = 2 };",
    _HEAD + "z : A { i // = 1\n };",
    _HEAD + "z : A { i = - // 3\n };",
    "graph g // conforms t;\n x;",
    _HEAD + "z : A { i 1 };",
    _HEAD + "z : A { = 1 };",
    _HEAD + "z : A { i = 1 ; };",
    _HEAD + "z : A { i = 1, , };",
    _HEAD + "z : A { i = 1 }",
    _HEAD + "z : A { i = 1",
    _HEAD + "z : A { s = \"abc };",
    _HEAD + "z : A { s = \"abc\n\" };",
    _HEAD + "z : A { s = \"a\\qc\" };",
    _HEAD + "z : A { s = \"x\" } # ;",
    _HEAD + "z : A ?;",
    _HEAD + "²z : A;",
    _HEAD + "z : ²A;",
    _HEAD + "z : A { i = " + "9" * 5000 + " };",
    _HEAD + "x : A;",
    _HEAD + "true : A;\ntrue : B;",
    _HEAD + "e : E x -> nowhere;",
    _HEAD + "e : E nowhere -> x;",
    _HEAD + "e : E x -> y;\nf : E e -> x;",
    _HEAD + "e : E x -> y;\nf : E x -> e;",
    _HEAD + "e : F x -> y;",
    _HEAD + "z : Widget;",
    _HEAD + "z : A { nme = \"x\" };",
    _HEAD + "e : E x -> y { nme = 1 };",
    _HEAD + "z : A { s = 3 };",
    _HEAD + "z : A { i = 1.5 };",
    _HEAD + "z : A { b = 1 };",
    _HEAD + "e : E x -> y { w = \"x\" };",
    _HEAD + "z : A { d = 1e999 };",
    _HEAD + "z : Abs;",
    # faults after the statement's element was made and an entry set
    _HEAD + "z : A { i = 1, s = };",
    _HEAD + "z : A { i = 1, s = 3 };",
    _HEAD + "e : E x -> y { n = 1 w = true };",
    _HEAD + "z : A { s = \"a\" // c\"; } \"\n , i = 1 ;",
]


@pytest.mark.parametrize("text", SINGLE_FAULTS,
                         ids=lambda text: text.rsplit("\n", 1)[-1][:40])
def test_single_fault_is_reported_like_the_oracle(text):
    assert _error(load_graph, text) == _error(oracles.naive_load_graph, text)


_LEXICAL = ("unterminated string", "invalid string escape",
            "unexpected character", "number literal too long")


@settings(max_examples=100, deadline=None)
@given(hand_spaced(), st.data())
def test_mutated_graphs_fail_at_the_first_fault(text, data):
    """One character deleted, replaced or inserted: both readers accept
    the text or both reject it.  A rejection is reported where the
    oracle reports it, or earlier when the oracle, which lexes the whole
    file first, reports a lexical fault further on."""
    i = data.draw(st.integers(0, len(text)))
    piece = data.draw(st.sampled_from(['"', "\\", ";", ":", "{", "}", ",",
                                       "=", "-", ">", "/", "x", "1", " ", ""]))
    cut = data.draw(st.integers(0, 1))
    text = text[:i] + piece + text[i + cut:]
    try:
        expected = save_graph(oracles.naive_load_graph(text, SCHEMA))
    except ParseError:
        expected = None
    if expected is not None:
        assert save_graph(load_graph(text, SCHEMA)) == expected
        return
    actual = _error(load_graph, text)
    oracle = _error(oracles.naive_load_graph, text)
    if actual != oracle:
        assert oracle[0].startswith(_LEXICAL)
        assert actual[1:] < oracle[1:]


@pytest.mark.parametrize("text, first, oracle", [
    (_HEAD + "z : Widget;\nw : A { s = \"unterminated };\n",
     "unknown class 'Widget' (line 4, column 5)",
     "unterminated string literal (line 5, column 13)"),
    ("grph ²x conforms t;", "expected graph, found 'grph' (line 1, column 1)",
     "unexpected character '²' (line 1, column 6)"),
    # within one statement, the tokens after its first fault are not read
    (_HEAD + "z : A { i = yes \"x };",
     "expected a literal, found 'yes' (line 4, column 13)",
     "unterminated string literal (line 4, column 17)"),
    (_HEAD + "z : Widget \"x;", "unknown class 'Widget' (line 4, column 5)",
     "unterminated string literal (line 4, column 12)"),
    (_HEAD + "e : E x -> nowhere ²;",
     "edge references undeclared element 'nowhere' (line 4, column 12)",
     "unexpected character '²' (line 4, column 20)"),
], ids=["element", "header", "literal", "class", "endpoint"])
def test_first_fault_in_file_order_wins(text, first, oracle):
    assert _error(load_graph, text)[0] == first
    assert _error(oracles.naive_load_graph, text)[0] == oracle


def test_only_the_header_reaches_the_lexer(monkeypatch):
    schema = genutil.graph1_schema()
    rng = random.Random(3)
    graph = genutil.random_sample(rng, schema, max_nodes=400, max_edges=600)
    while len(graph.vertices) + len(graph.edges) < 2000:
        graph = genutil.random_sample(rng, schema, max_nodes=400,
                                      max_edges=600)
    text = save_graph(graph)
    seen = []
    real = formats.tokenize

    def recording(source):
        seen.append(source)
        return real(source)

    monkeypatch.setattr(formats, "tokenize", recording)
    loaded = load_graph(text, schema)
    assert save_graph(loaded) == text
    assert [s.strip() for s in seen] == [text.splitlines()[0]]


@pytest.mark.parametrize("fault, message", [
    ("y" + "a" * 100_000 + " ;", "expected ':'"),
    ("a:A{" * 25_000, "expected '='"),
], ids=["long word", "many heads"])
def test_a_fault_is_found_without_searching_past_it(fault, message):
    """Each statement is matched where the last one ended, so the text of
    a fault is read once; a search for the next statement from each of
    its positions would take time quadratic in its length, minutes for
    these inputs."""
    start = time.perf_counter()
    with pytest.raises(ParseError, match=message):
        load_graph(_HEAD + fault, SCHEMA)
    assert time.perf_counter() - start < 5
