"""The work ledger: how often each layer function that the benchmark's
tracer probes is called, per corpus task and per benchmark job shape,
compared exactly with the checked-in table `work_ledger.json`.

The counts are those `perfbench/tracer.py` reports: the calls of each
probed function, tokens lexed, elements loaded, `Iteratively` rounds
and MatchReplace matches.  A change that alters the work a run does
(rows bound, paths taken, elements created, trace lookups, schema
closures, ...) changes a count here, and must change the table with it
and say why.  Regenerate the table with

    PYTHONPATH=src python tests/test_work_ledger.py > tests/work_ledger.json
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

# loaded before counting, so that the probes put into them are put back
import gretlite.transform.engine  # noqa: F401
import gretlite.transform.parser  # noqa: F401
from gretlite import cli, corpus

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))
import gen  # noqa: E402
import tracer  # noqa: E402

TABLE = HERE / "work_ledger.json"
_CORPUS = ("graph1.gls", "graph1evo.gls", "graph2.gls", "05-count-loops.grq",
           "07-circle-of-three.grq", "09-reverse-edges.grt",
           "10-simple-migration.grt", "13-delete-node-n1-and-edges.grt",
           "14-insert-transitive-edges.grt")
# the benchmark's job shapes, on smaller inputs
_JOBS = {
    "bulk q05": "query graph1.gls sample.glg 05-count-loops.grq",
    "bulk t10": "transform 10-simple-migration.grt graph1evo.gls --source "
                "sample.glg --source-schema graph1.gls --out t10.glg "
                "--trace t10-trace.txt",
    "bulk t13": "transform 13-delete-node-n1-and-edges.grt graph1.gls "
                "--source sample.glg --in-place --out t13.glg",
    "cycles q07": "query graph1.gls cycles.glg 07-circle-of-three.grq",
    "closure t14": "transform 14-insert-transitive-edges.grt graph2.gls "
                   "--source chain.glg --in-place --out t14.glg",
    "closure t09": "transform 09-reverse-edges.grt graph1.gls --source "
                   "cycles.glg --in-place --out t09.glg",
}


@contextlib.contextmanager
def counting():
    """The benchmark tracer's counts over the block.  Its probes replace
    functions in gretlite's modules and classes; every attribute they
    replaced is put back after."""
    modules = [module for name, module in list(sys.modules.items())
               if name.split(".")[0] == "gretlite"]
    owners = modules + [value for module in modules
                        for value in vars(module).values()
                        if isinstance(value, type)]
    saved = [(owner, dict(vars(owner))) for owner in owners]
    probes = tracer.Tracer()
    probes.install()
    try:
        yield probes.counts
    finally:
        for owner, attrs in saved:
            for attr, value in attrs.items():
                if vars(owner).get(attr) is not value:
                    setattr(owner, attr, value)


def ledger() -> dict:
    table = {}
    for task in corpus.TASKS:
        with counting() as counts:
            assert corpus.run_task(task).passed
        table[f"corpus {task[0]:02d}"] = dict(sorted(counts.items()))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in _CORPUS:
            (work / name).write_text(corpus.read_text(name), encoding="utf-8")
        for name, text in (
                ("sample.glg", gen.write_sample(gen.sample(1, 200, 20, 0.05))),
                ("cycles.glg", gen.write_sample(gen.sample(1, 32, 20, 0.1))),
                ("chain.glg", gen.write_chain(gen.chain(1, 40)))):
            (work / name).write_text(text, encoding="utf-8")
        for job, command in _JOBS.items():
            argv = [arg if arg.startswith("--") or arg in ("query", "transform")
                    else str(work / arg) for arg in command.split()]
            with counting() as counts, \
                    contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
            table[job] = dict(sorted(counts.items()))
    return table


def test_work_equals_the_ledger():
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    actual = ledger()
    assert list(actual) == list(expected)
    moved = {(job, key): (expected[job].get(key), actual[job].get(key))
             for job in expected
             for key in expected[job].keys() | actual[job].keys()
             if expected[job].get(key) != actual[job].get(key)}
    assert moved == {}, "(job, count): (ledger, now)"


if __name__ == "__main__":
    print(json.dumps(ledger(), indent=1))
