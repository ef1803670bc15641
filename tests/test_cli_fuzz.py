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

# (role, corpus file) per input of each command; the command line is
# built from the roles by `_argv`
QUERIES = [
    {"schema": "graph1.gls", "graph": "sample1.glg", "query": name}
    for name in ("04-count-nodes.grq", "06-isolated-nodes.grq",
                 "07-circle-of-three.grq", "08-dangling-edges.grq")
]
TRANSFORMS = [
    {"script": "09-reverse-edges.grt", "schema": "graph1.gls",
     "source": "sample1.glg", "flags": ["--in-place"]},
    {"script": "10-simple-migration.grt", "schema": "graph1evo.gls",
     "source": "sample1.glg", "source_schema": "graph1.gls",
     "flags": ["--trace"]},
    {"script": "13-delete-node-n1-and-edges.grt", "schema": "graph1.gls",
     "source": "sample1.glg", "flags": ["--in-place", "--trace"]},
    {"script": "14-insert-transitive-edges.grt", "schema": "graph2.gls",
     "source": "chain4.glg", "flags": ["--in-place"]},
]
VOCABULARY = sorted({
    tok.text
    for name in ("graph1.gls", "sample1.glg", "07-circle-of-three.grq",
                 "08-dangling-edges.grq", "09-reverse-edges.grt",
                 "10-simple-migration.grt", "14-insert-transitive-edges.grt")
    for tok in tokenize(corpus.read_text(name)) if tok.kind != "EOF"
})


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


def _argv(command: str, case: dict, paths: dict) -> list[str]:
    if command == "query":
        return ["query", paths["schema"], paths["graph"], paths["query"]]
    argv = ["transform", paths["script"], paths["schema"],
            "--source", paths["source"], "--out", paths["out"]]
    if "source_schema" in case:
        argv += ["--source-schema", paths["source_schema"]]
    if "--in-place" in case["flags"]:
        argv.append("--in-place")
    if "--trace" in case["flags"]:
        argv += ["--trace", paths["trace"]]
    return argv


def _run(directory, command: str, case: dict, replaced: dict):
    """Run `command` on the case's corpus files, with the contents of
    the roles in `replaced` swapped for the given bytes."""
    paths = {"out": str(directory / "out.glg"),
             "trace": str(directory / "trace.txt")}
    for role, name in case.items():
        if role == "flags":
            continue
        path = directory / f"{role}-{name}"
        data = replaced.get(role)
        if data is None:
            data = corpus.read_text(name).encode("utf-8")
        path.write_bytes(data)
        paths[role] = str(path)
    err = io.StringIO()
    # a script whose Iteratively never settles fails at the round limit;
    # a low limit keeps such examples fast without changing the outcome
    with pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        patch.setattr(engine, "ROUND_LIMIT", 20)
        code = main(_argv(command, case, paths))
    assert code in (0, 1), err.getvalue()
    assert "internal error" not in err.getvalue()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_query_inputs(fuzzdir, data):
    case = data.draw(st.sampled_from(QUERIES))
    role = data.draw(st.sampled_from(sorted(case)))
    _run(fuzzdir, "query", case,
         {role: data.draw(mutated(corpus.read_text(case[role])))})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_transform_inputs(fuzzdir, data):
    case = data.draw(st.sampled_from(TRANSFORMS))
    role = data.draw(st.sampled_from(sorted(set(case) - {"flags"})))
    _run(fuzzdir, "transform", case,
         {role: data.draw(mutated(corpus.read_text(case[role])))})


@settings(max_examples=150, deadline=None)
@given(tokens)
def test_token_string_queries(fuzzdir, text):
    _run(fuzzdir, "query", QUERIES[0], {"query": text.encode("utf-8")})


@settings(max_examples=60, deadline=None)
@given(tokens, st.sampled_from(TRANSFORMS))
def test_token_string_scripts(fuzzdir, text, case):
    script = f"transformation T;\n{text}".encode("utf-8")
    _run(fuzzdir, "transform", case, {"script": script})
