"""The benchmark's traced worker (`perfbench/tracer.py`) still finds every
name it wraps, and the engine counts it reports equal the ones `execute`
returns while the corpus runs the same command lines."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from gretlite import corpus
from gretlite.transform import engine

ROOT = Path(__file__).resolve().parents[1]


def _engine_counts(tasks, monkeypatch):
    """(Iteratively rounds, matches applied, matches skipped), summed over
    every `execute` call of the in-process corpus runs of `tasks`."""
    runs = []
    execute = engine.execute

    def recording(*args, **kwargs):
        runs.append(execute(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(engine, "execute", recording)
    for task in tasks:
        assert corpus.run_task(task).passed
    return [sum(n for run in runs for op, n in run.op_counts
                if op == "Iteratively"),
            sum(s.applied for run in runs for s in run.match_invocations),
            sum(s.skipped for run in runs for s in run.match_invocations)]


def test_traced_run_finds_every_probe_and_engine_counts(tmp_path, monkeypatch):
    tasks = [task for task in corpus.TASKS if task[0] in (14, 9, 10)]
    commands = [command for _, _, command in tasks]
    assert ["--in-place" in c for c in commands] == [True, False, True]
    assert "--trace" in commands[1]
    for entry in corpus.default_root().iterdir():
        if entry.is_file():
            shutil.copy(str(entry), tmp_path / entry.name)
    jobs = [{"argv": command.split(), "stdout": str(tmp_path / f"{n:02d}.out")}
            for n, _, command in tasks]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), json.dumps(jobs)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["exit_codes"] == [0, 0, 0]
    assert report["absent"] == []
    counts = report["counts"]
    expected = _engine_counts(tasks, monkeypatch)
    assert expected[0] > 0 and expected[1] > 0
    assert [counts.get(f"transform.engine.{key}", 0)
            for key in ("rounds", "match.applied", "match.skipped")] == expected
