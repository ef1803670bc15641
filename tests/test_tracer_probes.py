"""The benchmark's traced worker (`perfbench/tracer.py`) still finds every
name it wraps, and the engine counts it reports equal the ones `execute`
returns for the same inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

from gretlite import corpus
from gretlite.formats import load_graph, load_schema
from gretlite.transform import execute, parse_script

ROOT = Path(__file__).resolve().parents[1]


def _argv(spec, directory: Path):
    argv = ["transform", str(directory / spec.script),
            str(directory / spec.schema), "--source", str(directory / spec.source),
            "--out", str(directory / f"{spec.number:02d}-out.glg")]
    if spec.source_schema is not None:
        argv += ["--source-schema", str(directory / spec.source_schema)]
    if spec.in_place:
        argv.append("--in-place")
    if spec.golden_trace is not None:
        argv += ["--trace", str(directory / spec.golden_trace)]
    return argv


def _engine_counts(spec):
    schema = load_schema(corpus.read_text(spec.schema))
    source_schema = schema
    if spec.source_schema is not None:
        source_schema = load_schema(corpus.read_text(spec.source_schema))
    source = load_graph(corpus.read_text(spec.source), source_schema)
    run = execute(parse_script(corpus.read_text(spec.script)), source,
                  target_schema=schema, in_place=spec.in_place)
    return (sum(n for op, n in run.op_counts if op == "Iteratively"),
            sum(s.applied for s in run.match_invocations),
            sum(s.skipped for s in run.match_invocations))


def test_traced_run_finds_every_probe_and_engine_counts(tmp_path):
    specs = [spec for spec in corpus.TASKS if spec.number in (14, 9, 10)]
    assert [s.in_place for s in specs] == [True, False, True]
    assert specs[1].golden_trace is not None
    for spec in specs:
        for name in (spec.script, spec.schema, spec.source, spec.source_schema):
            if name is not None:
                (tmp_path / name).write_text(corpus.read_text(name),
                                             encoding="utf-8")
    jobs = [{"argv": _argv(spec, tmp_path),
             "stdout": str(tmp_path / f"{spec.number:02d}.out")}
            for spec in specs]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), json.dumps(jobs)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["exit_codes"] == [0, 0, 0]
    assert report["absent"] == []
    counts = report["counts"]
    expected = [sum(column) for column in zip(*map(_engine_counts, specs))]
    assert expected[0] > 0 and expected[1] > 0
    assert [counts.get(f"transform.engine.{key}", 0)
            for key in ("rounds", "match.applied", "match.skipped")] == expected
