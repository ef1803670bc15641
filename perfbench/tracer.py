"""Traced in-process run of a job list: spans and counts per layer.

Usage (with gretlite importable):

    python perfbench/tracer.py JOBS_JSON

JOBS_JSON is a list of {"argv": [...], "stdout": PATH}; each job runs as
`gretlite.cli.main(argv)` with its standard output sent to PATH.  The
last line printed is a JSON object with the exit codes, the counts, the
span times and the probe keys whose wrapped names no longer exist.

Wrappers sit around the layers' public functions.  A module-level
function is replaced at every name a gretlite module bound it to (for
example `gretlite.formats.tokenize` as well as `gretlite.lexer.tokenize`);
a method is replaced on its class.  Nothing under `src/` changes.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

import gretlite.cli as cli

# (probe key, kind, module, qualified name).  A span times its calls;
# the span's self time is its duration minus that of the spans of other
# layers directly inside it.  A nested call to a layer that is already
# active is part of the outer span.  A count only counts calls.
PROBES = (
    ("lexer", "span", "gretlite.lexer", "tokenize"),
    ("formats.load_graph", "span", "gretlite.formats", "load_graph"),
    ("formats.load_schema", "span", "gretlite.formats", "load_schema"),
    ("formats.save_graph", "span", "gretlite.formats", "save_graph"),
    ("model.create", "span", "gretlite.model", "Graph.create_vertex"),
    ("model.create", "span", "gretlite.model", "Graph.create_edge"),
    ("model.delete", "span", "gretlite.model", "Graph.delete_vertex"),
    ("model.delete", "span", "gretlite.model", "Graph.delete_edge"),
    ("model.set_attr.calls", "count", "gretlite.model", "Element.set_attr"),
    ("model.schema_closure.calls", "count", "gretlite.model", "Schema.superclasses"),
    ("model.schema_closure.calls", "count", "gretlite.model", "Schema.subclasses"),
    ("model.schema_closure.calls", "count", "gretlite.model", "Schema.conforms"),
    ("query.parser", "span", "gretlite.query.parser", "parse_query"),
    ("query.parser", "span", "gretlite.query.parser", "parse_embedded"),
    ("query.evaluator", "span", "gretlite.query.evaluator", "evaluate"),
    ("query.evaluator.bindings", "count", "gretlite.query.evaluator", "Bindings.child"),
    ("query.evaluator.paths", "count", "gretlite.query.evaluator", "eval_path"),
    ("transform.parser", "span", "gretlite.transform.parser", "parse_script"),
    ("transform.engine", "span", "gretlite.transform.engine", "execute"),
    ("transform.engine.op_s", "op", "gretlite.transform.engine", "_run_op"),
    ("transform.trace.register.calls", "count", "gretlite.transform.engine",
     "TraceabilityMap.register"),
    ("transform.trace.lookup", "span", "gretlite.transform.engine", "TraceabilityMap.image"),
    ("transform.trace.lookup", "span", "gretlite.transform.engine", "TraceabilityMap.img_value"),
    ("transform.trace.lookup", "span", "gretlite.transform.engine", "TraceabilityMap.arch_value"),
    ("report", "span", "gretlite.report", "render_result"),
    ("report", "span", "gretlite.report", "trace_report"),
)


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.times = defaultdict(float)
        self.absent: set[str] = set()
        self._stack: list[list[float]] = []  # child time of each open span
        self._active = Counter()

    def span(self, key, fn):
        counts, times, stack, active = self.counts, self.times, self._stack, self._active
        clock = time.perf_counter
        post = _POST.get(key)

        def wrapper(*args, **kwargs):
            counts[key + ".calls"] += 1
            if active[key]:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            active[key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                active[key] -= 1
                stack.pop()
                times[key + ".s"] += spent
                times[key + ".self_s"] += spent - frame[0]
                if stack:
                    stack[-1][0] += spent
            if post is not None:
                post(self, result)
            return result
        return wrapper

    def count(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def op(self, key, fn):
        """Inclusive time per op type; not a span, so it leaves the
        engine's self time alone."""
        times, clock = self.times, time.perf_counter

        def wrapper(ctx, op, *args, **kwargs):
            start = clock()
            try:
                return fn(ctx, op, *args, **kwargs)
            finally:
                times[f"{key}.{type(op).__name__}"] += clock() - start
        return wrapper

    def install(self):
        for key, kind, module_name, qualname in PROBES:
            try:
                owner = importlib.import_module(module_name)
                *path, name = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.absent.add(key)
                continue
            wrapper = getattr(self, kind)(key, original)
            if isinstance(owner, type):
                setattr(owner, name, wrapper)
            else:
                _rebind(original, wrapper)


def _rebind(original, wrapper):
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "gretlite":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _tokens(tracer, tokens):
    tracer.counts["lexer.tokens"] += len(tokens)


def _loaded(tracer, graph):
    tracer.counts["formats.elements_loaded"] += len(graph.vertices) + len(graph.edges)


def _executed(tracer, result):
    op_counts = getattr(result, "op_counts", None)
    if op_counts is None:
        tracer.absent.add("transform.engine.rounds")
    else:
        tracer.counts["transform.engine.rounds"] += sum(
            n for op, n in op_counts if op == "Iteratively")
    invocations = getattr(result, "match_invocations", None)
    if invocations is None:
        tracer.absent.add("transform.engine.match")
    else:
        tracer.counts["transform.engine.match.applied"] += sum(s.applied for s in invocations)
        tracer.counts["transform.engine.match.skipped"] += sum(s.skipped for s in invocations)


_POST = {"lexer": _tokens, "formats.load_graph": _loaded, "transform.engine": _executed}


def run(jobs) -> dict:
    tracer = Tracer()
    tracer.install()
    exit_codes = []
    for job in jobs:
        with open(job["stdout"], "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out):
            try:
                exit_codes.append(cli.main(job["argv"]))
            except SystemExit as exc:  # argparse rejects the arguments
                exit_codes.append(exc.code)
    return {
        "exit_codes": exit_codes,
        "counts": dict(tracer.counts),
        "times": dict(tracer.times),
        "absent": sorted(tracer.absent),
    }


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
