"""The whole pipeline against the benchmark's reference: inputs written by
`perfbench/gen.py` from a seed, run through `cli.main` as the benchmark's
jobs run, and checked with `perfbench/reference.py`, which derives every
answer without gretlite.  The sizes reach what no corpus golden covers:
one-node graphs, no cycle at all, every conceptual edge dangling."""

import contextlib
import io
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from gretlite import corpus
from gretlite.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402
import reference  # noqa: E402

_CORPUS = ("graph1.gls", "graph1evo.gls", "graph2.gls", "05-count-loops.grq",
           "07-circle-of-three.grq", "09-reverse-edges.grt",
           "10-simple-migration.grt", "13-delete-node-n1-and-edges.grt",
           "14-insert-transitive-edges.grt")


def _run(work: Path, command: str, *args: str) -> str:
    """Run `gretlite COMMAND ARGS` in `work`; what it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command] + [arg if arg.startswith("--") else
                                 str(work / arg) for arg in args]) == 0
    return out.getvalue()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), nodes=st.integers(1, 40),
       name_pool=st.integers(1, 5), dangling=st.sampled_from((0, 0.5, 1)),
       chain_nodes=st.integers(2, 60))
def test_jobs_match_the_reference(tmp_path_factory, seed, nodes, name_pool,
                                  dangling, chain_nodes):
    work = tmp_path_factory.mktemp("pipeline")
    for name in _CORPUS:
        (work / name).write_text(corpus.read_text(name), encoding="utf-8")
    data = gen.sample(seed, nodes, name_pool, dangling)
    chain = gen.chain(seed, chain_nodes)
    for name in ("sample.glg", "t13.glg", "t09.glg"):
        (work / name).write_text(gen.write_sample(data), encoding="utf-8")
    (work / "t14.glg").write_text(gen.write_chain(chain), encoding="utf-8")

    assert _run(work, "query", "graph1.gls", "sample.glg",
                "05-count-loops.grq") == reference.query05(data)
    assert _run(work, "query", "graph1.gls", "sample.glg",
                "07-circle-of-three.grq") == reference.query07(data)
    _run(work, "transform", "10-simple-migration.grt", "graph1evo.gls",
         "--source", "sample.glg", "--source-schema", "graph1.gls",
         "--out", "t10.glg", "--trace", "t10-trace.txt")
    assert reference.check_migration(
        data, (work / "t10.glg").read_text(encoding="utf-8"),
        (work / "t10-trace.txt").read_text(encoding="utf-8")) == []
    for script, schema, graph, check in (
            ("13-delete-node-n1-and-edges.grt", "graph1.gls", "t13.glg",
             lambda text: reference.check_delete(data, text)),
            ("14-insert-transitive-edges.grt", "graph2.gls", "t14.glg",
             lambda text: reference.check_closure(chain, text)),
            ("09-reverse-edges.grt", "graph1.gls", "t09.glg",
             lambda text: reference.check_reverse(data, text))):
        _run(work, "transform", script, schema, "--source", graph,
             "--in-place", "--out", graph)
        assert check((work / graph).read_text(encoding="utf-8")) == []
