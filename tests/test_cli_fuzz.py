"""Fuzzing the command line: corpus files mutated by byte flips,
truncation and spliced tokens, random token strings, and `.glg` graphs
whose statements are rewritten but still parse, end in a result or a user
error (exit 0 or 1), never in an internal error (exit 2).

Each run records a Hypothesis event, whether a parser rejected its inputs
(the error carries a line and column) or the run got past the parsers;
`pytest --hypothesis-show-statistics` shows the shares."""

import contextlib
import io
import re

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gretlite import corpus
from gretlite.cli import main
from gretlite.errors import ParseError
from gretlite.formats import load_graph, load_schema
from gretlite.lexer import tokenize
from gretlite.transform import engine

# the corpus tasks solved by one command line; each runs in a work
# directory holding its input files, some of them mutated
COMMANDS = [commands[0] for _, _, *commands in corpus.TASKS
            if len(commands) == 1]
QUERIES = [c for c in COMMANDS if c.startswith("query ")]
TRANSFORMS = [c for c in COMMANDS if c.startswith("transform ")]
VOCABULARY = sorted({
    tok.text
    for name in ("graph1.gls", "sample1.glg", "07-circle-of-three.grq",
                 "08-dangling-edges.grq", "09-reverse-edges.grt",
                 "10-simple-migration.grt", "14-insert-transitive-edges.grt")
    for tok in tokenize(corpus.read_text(name)) if tok.kind != "EOF"
} | {"1" + "0" * 400})


@pytest.fixture(scope="module")
def fuzzdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@st.composite
def mutated(draw, text: str) -> bytes:
    data = bytearray(text.encode("utf-8"))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "truncate", "splice"]))
        pos = draw(st.integers(0, len(data)))
        if kind == "flip" and pos < len(data):
            data[pos] ^= draw(st.integers(1, 255))
        elif kind == "truncate":
            del data[pos:]
        else:
            token = draw(st.sampled_from(VOCABULARY))
            data[pos:pos] = f" {token} ".encode("utf-8")
    return bytes(data)


tokens = st.lists(st.sampled_from(VOCABULARY), max_size=30).map(" ".join)


def _inputs(command: str) -> list[str]:
    """The corpus files a command line reads, in command-line order."""
    return [word for word in command.split()[1:] if not word.startswith("-")
            and corpus.default_root().joinpath(word).is_file()]


_POSITION = r"\(line \d+, column \d+\)"


def _run(directory, command: str, replaced: dict):
    """Run `command` in `directory` on its corpus input files, with the
    contents of the files named in `replaced` swapped for the given
    bytes; returns what it printed to standard error."""
    for name in _inputs(command):
        data = replaced.get(name)
        if data is None:
            data = corpus.read_text(name).encode("utf-8")
        (directory / name).write_bytes(data)
    err = io.StringIO()
    # a script whose Iteratively never settles fails at the round limit;
    # a low limit keeps such examples fast without changing the outcome
    with pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        patch.setattr(engine, "ROUND_LIMIT", 20)
        patch.chdir(directory)
        code = main(command.split())
    err = err.getvalue()
    assert code in (0, 1), err
    assert "internal error" not in err
    event("rejected by a parser" if code and re.search(_POSITION, err)
          else "past the parsers")
    return err


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_query_inputs(fuzzdir, data):
    command = data.draw(st.sampled_from(QUERIES))
    name = data.draw(st.sampled_from(_inputs(command)))
    _run(fuzzdir, command, {name: data.draw(mutated(corpus.read_text(name)))})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_transform_inputs(fuzzdir, data):
    command = data.draw(st.sampled_from(TRANSFORMS))
    name = data.draw(st.sampled_from(_inputs(command)))
    _run(fuzzdir, command, {name: data.draw(mutated(corpus.read_text(name)))})


@settings(max_examples=150, deadline=None)
@given(tokens)
def test_token_string_queries(fuzzdir, text):
    query = _inputs(QUERIES[0])[-1]
    _run(fuzzdir, QUERIES[0], {query: text.encode("utf-8")})


@settings(max_examples=60, deadline=None)
@given(tokens, st.sampled_from(TRANSFORMS))
def test_token_string_scripts(fuzzdir, text, command):
    script = f"transformation T;\n{text}".encode("utf-8")
    _run(fuzzdir, command, {_inputs(command)[0]: script})


# Statement-level `.glg` mutations: each rewritten statement still matches
# the statement grammar, so it reaches the model's element checks.
_STATEMENT = re.compile(
    r"(\w+) : (\w+)(?: (\w+) -> (\w+))?(?: \{ (.*) \})?;$")
_ENTRY = re.compile(r'(\w+) = ("[^"]*"|[^,]+)')
_SCHEMAS = ("graph1.gls", "graph2.gls", "graph1evo.gls", "hello.gls",
            "hello_ext.gls")
_CLASS_DECL = re.compile(r"(?<!abstract )\b(vertexclass|edgeclass) (\w+)")
# every class of every corpus schema, abstract ones included, and one that
# no schema declares, each with whether it is an edge class
CLASSES = sorted({(m[2], m[1] == "edge") for name in _SCHEMAS
                  for m in re.finditer(r"(vertex|edge)class (\w+)",
                                       corpus.read_text(name))}
                 | {("Nowhere", False), ("Nowhere", True)})
ATTRIBUTES = sorted({m[1] for name in _SCHEMAS for m in re.finditer(
    r"(\w+): (?:String|Integer|Double|Boolean)", corpus.read_text(name))}
    | {"nosuch"})
LITERALS = ['"s"', '""', "0", "42", "-7", "2.5", "-0.0", "1e999",
            "1" + "0" * 400, "true", "false"]
GRAPH_COMMANDS = [c for c in COMMANDS
                  if any(n.endswith(".glg") for n in _inputs(c))]


def _graph_and_schema(command: str) -> tuple[str, str]:
    """The `.glg` a command reads and the schema it is loaded against."""
    words = command.split()
    graph = next(n for n in _inputs(command) if n.endswith(".glg"))
    if "--source-schema" in words:
        return graph, words[words.index("--source-schema") + 1]
    return graph, next(w for w in words if w.endswith(".gls"))


@st.composite
def statements_mutated(draw, text: str) -> str:
    lines = text.split("\n")
    at = [i for i, line in enumerate(lines) if _STATEMENT.match(line)]
    labels = [_STATEMENT.match(lines[i])[1] for i in at] + ["nowhere"]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["class", "endpoint", "literal",
                                     "attribute"]))
        edges = [i for i in at if _STATEMENT.match(lines[i])[3]]
        i = draw(st.sampled_from(edges if kind == "endpoint" else at))
        label, cls, start, end, body = _STATEMENT.match(lines[i]).groups()
        entries = _ENTRY.findall(body or "")
        if kind == "class":
            cls, is_edge = draw(st.sampled_from(CLASSES))
            # endpoints as the class's kind needs, now and then the other way
            if is_edge != draw(st.sampled_from([True] * 4 + [False])):
                start = end = None
            elif start is None:
                start = draw(st.sampled_from(labels))
                end = draw(st.sampled_from(labels))
        elif kind == "endpoint":
            # an edge's label, a later label or an undeclared one
            new = draw(st.sampled_from(labels))
            if draw(st.booleans()):
                start = new
            else:
                end = new
        else:
            pos = draw(st.integers(0, len(entries)))  # len: a new entry
            name, value = entries[pos] if pos < len(entries) else (
                draw(st.sampled_from(ATTRIBUTES)), '"s"')
            if kind == "literal":
                value = draw(st.sampled_from(LITERALS))
            else:
                name = draw(st.sampled_from(ATTRIBUTES))
            entries[pos:pos + 1] = [(name, value)]
        ends = f" {start} -> {end}" if start else ""
        store = (" { " + ", ".join(f"{n} = {v}" for n, v in entries) + " }"
                 if entries else "")
        lines[i] = f"{label} : {cls}{ends}{store};"
    return "\n".join(lines)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_statement_mutated_graphs(fuzzdir, data):
    """A graph that fails to load is rejected with exit 1 and the loader's
    error, which names a line and column; one that loads may still fail
    when the command runs on it, with exit 1 too."""
    command = data.draw(st.sampled_from(GRAPH_COMMANDS))
    graph, schema = _graph_and_schema(command)
    text = data.draw(statements_mutated(corpus.read_text(graph)))
    schema_text = corpus.read_text(schema)
    if data.draw(st.booleans()):  # make one class of the schema abstract
        at = data.draw(st.sampled_from(
            [m.start() for m in _CLASS_DECL.finditer(schema_text)]))
        schema_text = schema_text[:at] + "abstract " + schema_text[at:]
    err = _run(fuzzdir, command, {graph: text.encode("utf-8"),
                                  schema: schema_text.encode("utf-8")})
    try:
        load_graph(text, load_schema(schema_text))
    except ParseError as exc:
        assert re.search(_POSITION + "$", str(exc))
        assert err == f"error: {exc}\n"
        event("graph: a syntax error" if str(exc).startswith("expected ")
              else "graph: a rejected class, endpoint or attribute")
    else:
        event("graph: loads")
