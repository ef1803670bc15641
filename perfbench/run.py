"""gretlite benchmark: seeded workloads run through the gretlite CLI.

    python3 perfbench/run.py --workload bulk|cycles|closure --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout; it uses the gretlite under
`src/`.  Inputs are generated from the seed into a scratch directory in
the checkout, which is removed at the end.

With `--trace 0` the workload's job list runs again and again for S
seconds, each job in a fresh `python -m gretlite.cli` process and one
job at a time (a closed loop with one client), and the end-to-end
metrics are medians over those passes and over the set-up probes run
between them.  `yardstick.py` runs before and after each job, and a
pass's times are reported relative to the mean yardstick time of that
pass, which cancels most of a shared machine's drift in speed; the raw
seconds are printed too.

With `--trace 1` one untraced pass is followed by traced passes, each in
a worker that calls `gretlite.cli.main` in-process with probes around
every layer (`tracer.py`); the per-layer metrics are medians over traced
passes, and the counts must repeat exactly between passes, which
alternate between two PYTHONHASHSEED values.

Every job's output is checked against `reference.py`.  The last line
printed is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = SRC / "gretlite" / "corpus"

MIN_PASSES = 3           # untraced passes per --trace 0 run
MIN_TRACED_PASSES = 2    # one per hash seed
SETUP_PROBES_PER_PASS = 2
MIN_SETUP_PROBES = 9
JOB_TIMEOUT_S = 120
# String hashing changes dict layouts and, with them, the speed of a
# process by several percent.  Each untraced process draws its own
# PYTHONHASHSEED from --seed, so a run's medians span many layouts rather
# than resting on one.  Traced passes alternate two fixed seeds to show
# that no count depends on it.
HASH_SEEDS = ("1", "2")

# Input sizes per workload (see README.md for why each was chosen).
SIZES = {
    "bulk": {"nodes": 2000, "name_pool": 20, "dangling_share": 0.05},
    "cycles": {"nodes": 32, "name_pool": 20, "dangling_share": 0.1},
    "closure": {"chain_nodes": 120,
                "sample": {"nodes": 16, "name_pool": 20, "dangling_share": 0.1}},
}

SETUP_CODE = """\
import sys
import gretlite.cli
from gretlite.formats import load_schema
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as handle:
        load_schema(handle.read())
"""


@dataclass
class Job:
    name: str
    argv: list[str]
    stdout: Path
    outputs: list[Path]   # removed before each run of the job
    check: Callable[[], list[str]]

    def clear(self):
        for path in (self.stdout, *self.outputs):
            path.unlink(missing_ok=True)


def _corpus(name: str) -> str:
    return str(CORPUS / name)


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _query_job(name, schema, graph, query, expected, work) -> Job:
    out = work / f"{name}.out"

    def check():
        got = _read(out)
        return [] if got == expected else [f"answer {got[:200]!r} != {expected[:200]!r}"]
    return Job(name, ["query", _corpus(schema), str(graph), _corpus(query)],
               out, [], check)


def _transform_job(name, argv, outputs, check, work) -> Job:
    return Job(name, ["transform", *argv], work / f"{name}.stdout", outputs, check)


def _write_graph(work: Path, name: str, text: str) -> Path:
    path = work / f"{name}.glg"
    path.write_text(text, encoding="utf-8")
    return path


def bulk(seed: int, work: Path):
    data = gen.sample(seed, **SIZES["bulk"])
    graph = _write_graph(work, "bulk", gen.write_sample(data, "bulk"))
    out10, trace10, out13 = work / "t10.glg", work / "t10-trace.txt", work / "t13.glg"
    jobs = [
        _query_job("q05", "graph1.gls", graph, "05-count-loops.grq",
                   reference.query05(data), work),
        _transform_job(
            "t10", [_corpus("10-simple-migration.grt"), _corpus("graph1evo.gls"),
                    "--source", str(graph), "--source-schema", _corpus("graph1.gls"),
                    "--out", str(out10), "--trace", str(trace10)],
            [out10, trace10],
            lambda: reference.check_migration(data, _read(out10), _read(trace10)), work),
        _transform_job(
            "t13", [_corpus("13-delete-node-n1-and-edges.grt"), _corpus("graph1.gls"),
                    "--source", str(graph), "--in-place", "--out", str(out13)],
            [out13], lambda: reference.check_delete(data, _read(out13)), work),
    ]
    return jobs, ["graph1.gls", "graph1evo.gls"]


def cycles(seed: int, work: Path):
    data = gen.sample(seed, **SIZES["cycles"])
    graph = _write_graph(work, "cycles", gen.write_sample(data, "cycles"))
    jobs = [_query_job("q07", "graph1.gls", graph, "07-circle-of-three.grq",
                       reference.query07(data), work)]
    return jobs, ["graph1.gls"]


def closure(seed: int, work: Path):
    size = SIZES["closure"]
    chain = gen.chain(seed, size["chain_nodes"])
    data = gen.sample(seed, **size["sample"])
    chain_graph = _write_graph(work, "chain", gen.write_chain(chain))
    sample_graph = _write_graph(work, "sample", gen.write_sample(data))
    out14, out09 = work / "t14.glg", work / "t09.glg"
    jobs = [
        _transform_job(
            "t14", [_corpus("14-insert-transitive-edges.grt"), _corpus("graph2.gls"),
                    "--source", str(chain_graph), "--in-place", "--out", str(out14)],
            [out14], lambda: reference.check_closure(chain, _read(out14)), work),
        _transform_job(
            "t09", [_corpus("09-reverse-edges.grt"), _corpus("graph1.gls"),
                    "--source", str(sample_graph), "--in-place", "--out", str(out09)],
            [out09], lambda: reference.check_reverse(data, _read(out09)), work),
    ]
    return jobs, ["graph2.gls", "graph1.gls"]


WORKLOADS = {"bulk": bulk, "cycles": cycles, "closure": closure}


def _env(hash_seed: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX", "PYTHONHOME")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = hash_seed
    return env


def _spawn(cmd, stdout: Path, stderr: Path, env) -> tuple[float, object, int]:
    """Run one process to completion: wall seconds, rusage, exit code."""
    with open(stdout, "w") as out, open(stderr, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
    watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode


class Run:
    """Counts the jobs attempted and failed in one benchmark run."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.hash_seeds = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.nondeterministic = False

    def attempt(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
        for problem in problems:
            print(f"FAIL {what}: {problem}", flush=True)

    def _untraced_env(self) -> dict:
        return _env(str(self.hash_seeds.randrange(2 ** 32)))

    def _stderr(self, code: int) -> list[str]:
        return [f"exit code {code}: {_read(self.work / 'stderr.txt').strip()[-300:]}"]

    def judge(self, job: Job, code: int):
        if code != 0:
            self.attempt(job.name, self._stderr(code))
            return
        try:
            problems = job.check()
        except (OSError, ValueError) as exc:
            problems = [f"unreadable output: {exc}"]
        self.attempt(job.name, problems)

    def yardstick(self) -> tuple[float, float]:
        """Wall and CPU seconds of one run of `yardstick.py`."""
        spent, usage, code = _spawn(
            [sys.executable, str(HERE / "yardstick.py")],
            self.work / "stdout.txt", self.work / "stderr.txt",
            self._untraced_env())
        self.attempt("yardstick", self._stderr(code) if code else [])
        return spent, usage.ru_utime + usage.ru_stime

    def untraced_pass(self, jobs: list[Job]) -> dict:
        """Wall and CPU seconds summed over the jobs, the same relative to
        the mean of the yardstick runs before and after each job, and the
        jobs' peak RSS in MiB."""
        wall = cpu = peak = 0.0
        refs = [self.yardstick()]
        for job in jobs:
            job.clear()
            spent, usage, code = _spawn(
                [sys.executable, "-m", "gretlite.cli", *job.argv],
                job.stdout, self.work / "stderr.txt", self._untraced_env())
            self.judge(job, code)
            wall += spent
            cpu += usage.ru_utime + usage.ru_stime
            peak = max(peak, usage.ru_maxrss / 1024)
            refs.append(self.yardstick())
        ref_wall = statistics.fmean(ref[0] for ref in refs)
        ref_cpu = statistics.fmean(ref[1] for ref in refs)
        return {"wall_s": wall, "cpu_s": cpu, "yardstick_s": ref_wall,
                "wall_rel": wall / ref_wall, "cpu_rel": cpu / ref_cpu,
                "peak_rss_mb": peak}

    def traced_pass(self, jobs: list[Job], hash_seed: str) -> dict | None:
        for job in jobs:
            job.clear()
        spec = [{"argv": job.argv, "stdout": str(job.stdout)} for job in jobs]
        result_path = self.work / "traced.json"
        wall, _, code = _spawn(
            [sys.executable, str(HERE / "tracer.py"), json.dumps(spec)],
            result_path, self.work / "stderr.txt", _env(hash_seed))
        if code != 0:
            for job in jobs:
                self.attempt(f"{job.name} (traced)", self._stderr(code))
            return None
        traced = json.loads(_read(result_path).splitlines()[-1])
        for job, job_code in zip(jobs, traced["exit_codes"]):
            self.judge(job, job_code)
        traced["wall"] = wall
        return traced

    def preflight(self):
        """`gretlite corpus` must pass all of its tasks."""
        out = self.work / "corpus.txt"
        _, _, code = _spawn([sys.executable, "-m", "gretlite.cli", "corpus"],
                            out, self.work / "stderr.txt", self._untraced_env())
        last = _read(out).strip().splitlines()[-1:]
        ok = code == 0 and last and last[0].startswith("14/14 ")
        self.attempt("corpus preflight", [] if ok else [f"exit code {code}, {last}"])

    def setup_probe(self, schemas: list[str]) -> float:
        """Wall time of a fresh interpreter that imports the CLI and loads
        the workload's schemas."""
        spent, _, code = _spawn(
            [sys.executable, "-c", SETUP_CODE, *map(_corpus, schemas)],
            self.work / "stdout.txt", self.work / "stderr.txt",
            self._untraced_env())
        self.attempt("setup probe", self._stderr(code) if code else [])
        return spent


def _repeat(one_pass, seconds: float, at_least: int) -> int:
    """Call `one_pass` at least `at_least` times, and again while the
    previous pass would still fit before `seconds` have passed."""
    deadline = time.monotonic() + seconds
    done = 0
    while True:
        start = time.monotonic()
        if one_pass() is False:
            return done
        done += 1
        now = time.monotonic()
        if done >= at_least and now + (now - start) > deadline:
            return done


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"median {values[0]:.6g} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"median {statistics.median(values):.6g} q1 {q1:.6g} q3 {q3:.6g} "
            f"(n={len(values)})")


def end_to_end(run: Run, jobs, schemas, seconds: float, spec) -> dict:
    samples = {"setup_s": []}

    def one_pass():
        for name, value in run.untraced_pass(jobs).items():
            samples.setdefault(name, []).append(value)
        # set-up probes are spread over the run, like the passes
        for _ in range(SETUP_PROBES_PER_PASS):
            samples["setup_s"].append(run.setup_probe(schemas))

    _repeat(one_pass, seconds, MIN_PASSES)
    while len(samples["setup_s"]) < MIN_SETUP_PROBES:
        samples["setup_s"].append(run.setup_probe(schemas))
    for name, values in samples.items():
        print(f"{name}: {_spread(values)}")
    return {m["name"]: {"value": statistics.median(samples[m["name"]]),
                        "unit": m["unit"]} for m in spec["end_to_end"]}


def _absent(name: str, keys) -> bool:
    return any(name == key or name.startswith(key + ".") for key in keys)


def per_layer(run: Run, jobs, seconds: float, spec) -> dict:
    untraced_wall = run.untraced_pass(jobs)["wall_s"]
    traced = []

    def one_pass():
        result = run.traced_pass(jobs, HASH_SEEDS[len(traced) % len(HASH_SEEDS)])
        if result is None:
            return False
        traced.append(result)

    _repeat(one_pass, seconds, MIN_TRACED_PASSES)
    if len(traced) < MIN_TRACED_PASSES:
        return {}
    counts = traced[0]["counts"]
    for i, other in enumerate(traced[1:], 2):
        for key in sorted(set(counts) | set(other["counts"])):
            if counts.get(key, 0) != other["counts"].get(key, 0):
                run.nondeterministic = True
                print(f"FAIL count {key} differs between traced passes 1 and {i}: "
                      f"{counts.get(key, 0)} != {other['counts'].get(key, 0)}")
    absent = set().union(*(t["absent"] for t in traced))
    times = {key: statistics.median(t["times"].get(key, 0.0) for t in traced)
             for key in set().union(*(t["times"] for t in traced))}
    applied = counts.get("transform.engine.match.applied", 0)
    attempts = applied + counts.get("transform.engine.match.skipped", 0)
    lexer_s = times.get("lexer.s", 0.0)
    derived = {
        "lexer.tokens_per_s": counts.get("lexer.tokens", 0) / lexer_s if lexer_s else 0.0,
        "transform.engine.match.useful_ratio": applied / attempts if attempts else 0.0,
        "trace_overhead": statistics.median(t["wall"] for t in traced) / untraced_wall,
    }
    metrics, missing = {}, []
    for metric in spec["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        if _absent(name, absent):
            missing.append(name)
            continue
        if name in derived:
            value = derived[name]
        elif unit == "count":
            value = counts.get(name, 0)
        else:
            value = times.get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
    print(f"traced passes: {len(traced)}, hash seeds {', '.join(HASH_SEEDS)}")
    if missing:
        print(f"absent (wrapped name no longer exists): {', '.join(missing)}")
    return metrics


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gretlite" / "cli.py").is_file():
        print(f"error: no gretlite sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    spec = json.loads(_read(ROOT / "BENCHMARK.json"))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run = Run(work, args.seed)
        jobs, schemas = WORKLOADS[args.workload](args.seed, work)
        print("record: " + json.dumps({
            "workload": args.workload, "seed": args.seed,
            "sizes": SIZES[args.workload], "jobs": [job.name for job in jobs],
            "python": platform.python_version(), "commit": _commit(),
            "src_sha256": _source_digest(), "trace": args.trace,
        }))
        run.preflight()
        if args.trace:
            metrics = per_layer(run, jobs, args.seconds, spec)
        else:
            metrics = end_to_end(run, jobs, schemas, args.seconds, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"error_rate: {run.failed}/{run.attempted}")
    correct = run.failed == 0 and not run.nondeterministic
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
