"""Command-line driver: query evaluation, script execution, corpus runs.

`cmd_query(args, read)` and `transform.command.cmd_transform(args, read)`
read every input through `read(path) -> text` and return `(path, text)`
outputs, None standing for standard output.  `main` reads from disk,
writes the files (all or none), prints and flushes the rest, and returns
the exit code: 0 success, 1 user error (bad arguments or files, parse or
execution errors, output that cannot be printed, failing corpus tasks),
2 internal error.  The corpus runs the same commands in memory.  `main`
leaves the cyclic garbage collector as it finds it; `run`, the process
entry point, turns it off, except under `-X dev`.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from pathlib import Path

from gretlite.errors import GretliteError, UsageError
from gretlite.formats import load_graph, load_schema
from gretlite.query.evaluator import evaluate
from gretlite.query.parser import parse_query
from gretlite.report import render_result


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(
            f"{path}: not UTF-8 text (byte offset {exc.start})") from None


def cmd_query(args, read) -> list[tuple[str | None, str]]:
    schema = load_schema(read(args.schema))
    graph = load_graph(read(args.graph), schema)
    expr = parse_query(read(args.query))
    return [(None, render_result(evaluate(expr, graph)))]


def _transform(args, read) -> list[tuple[str, str]]:
    # imported on use, as the corpus is, so that a query run compiles neither
    from gretlite.transform.command import cmd_transform
    return cmd_transform(args, read)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gretlite",
        description="Typed attributed graph engine: queries, "
                    "transformation scripts, and a bundled task corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="evaluate a query over a graph")
    query.add_argument("schema", help="schema file (.gls)")
    query.add_argument("graph", help="graph file (.glg)")
    query.add_argument("query", help="query file (.grq)")
    query.set_defaults(fn=cmd_query)

    transform = sub.add_parser("transform", help="run a transformation script")
    transform.add_argument("script", help="script file (.grt)")
    transform.add_argument("target_schema", help="target schema file (.gls)")
    transform.add_argument("--source", help="source graph file (.glg)")
    transform.add_argument(
        "--source-schema",
        help="schema of the source graph (defaults to the target schema)")
    transform.add_argument("--in-place", action="store_true",
                           help="rewrite the source graph itself")
    transform.add_argument("--out", required=True, help="output graph file")
    transform.add_argument("--trace", help="write a traceability report")
    transform.add_argument("--dot", help="write a DOT rendering")
    transform.set_defaults(fn=_transform)

    corpus_cmd = sub.add_parser("corpus", help="run the bundled task corpus")
    corpus_cmd.add_argument("--task", type=int, help="run a single task")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "corpus":
            from gretlite.corpus import cmd_corpus
            code, outputs = cmd_corpus(args)
        else:
            code, outputs = 0, args.fn(args, _read)
        files = [out for out in outputs if out[0] is not None]
        if files:
            from gretlite.transform.command import write_all
            write_all(files)
        if printed := "".join(t for path, t in outputs if path is None):
            if sys.stdout is None:
                raise UsageError("standard output is closed")
            sys.stdout.write(printed)
            sys.stdout.flush()
        return code
    except (GretliteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - report, then fail loudly
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


def run():
    """The process entry point of `python -m gretlite.cli` and `gretlite`:
    `main` with the cyclic garbage collector off, as a run keeps what it
    builds to the end and makes no cyclic garbage that grows with the input
    (`tests/test_memory.py`); then the atexit callbacks, a flush of stdout
    and stderr, and `os._exit`, which skips the interpreter's teardown.  A
    flush that fails after `main` succeeded exits through `sys.exit`, whose
    shutdown reports it.  Under `-X dev` the collector stays on and the
    shutdown is the normal one, so files left open are reported and
    `-m cProfile` prints its profile."""
    if sys.flags.dev_mode:
        sys.exit(main())
    gc.disable()
    code = main()
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        if code == 0:
            sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
