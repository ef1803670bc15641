"""Fuzzing the command line: corpus files mutated by byte flips,
truncation and spliced tokens, and random token strings, end in a result
or a user error (exit 0 or 1), never in an internal error (exit 2)."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gretlite import corpus
from gretlite.cli import main
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


def _run(directory, command: str, replaced: dict):
    """Run `command` in `directory` on its corpus input files, with the
    contents of the files named in `replaced` swapped for the given
    bytes."""
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
    assert code in (0, 1), err.getvalue()
    assert "internal error" not in err.getvalue()


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
