"""Command-line driver: query evaluation, script execution, corpus runs.

`cmd_query(args, read)` and `cmd_transform(args, read)` read every input
through `read(path) -> text` and return their outputs as `(path, text)`
pairs, the path None standing for standard output.  `main` reads from
disk, writes the files (all or none) and prints the rest; the corpus runs
the same commands in memory.

Exit codes: 0 success, 1 user error (bad arguments, missing files, parse
or execution errors, failing corpus tasks), 2 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from gretlite.errors import GretliteError
from gretlite.formats import export_dot, load_graph, load_schema, save_graph
from gretlite.query.evaluator import evaluate
from gretlite.query.parser import parse_query
from gretlite.report import render_result, trace_report


class UsageError(GretliteError):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(
            f"{path}: not UTF-8 text (byte offset {exc.start})") from None


def _write_all(outputs: list[tuple[str, str]]):
    """Write each (path, text): stage every file beside its target, then
    rename them all into place, so a failure while staging leaves no
    output written and no partial file.  An error names the path it was
    writing, not its staging file."""
    staged: list[tuple[str, str]] = []
    path = None
    try:
        for path, text in outputs:
            directory = os.path.dirname(os.path.abspath(path))
            tmp = os.path.join(directory, f".gretlite-{os.urandom(8).hex()}")
            # mode 0o666 lets the umask decide, as for any new file
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
        for tmp, path in staged:
            os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)


def cmd_query(args, read) -> list[tuple[str | None, str]]:
    schema = load_schema(read(args.schema))
    graph = load_graph(read(args.graph), schema)
    expr = parse_query(read(args.query))
    return [(None, render_result(evaluate(expr, graph)))]


# `transform` and `corpus` are imported by the subcommands that use them,
# so that a query run does not pay for importing them.

def cmd_transform(args, read) -> list[tuple[str | None, str]]:
    from gretlite.transform.engine import execute
    from gretlite.transform.parser import parse_script

    # No output may replace another output or an input, but `--out` the
    # source.  `named` maps each real path to the first file naming it.
    named: dict[str, str] = {}
    for what, path in (("the script", args.script),
                       ("the target schema", args.target_schema),
                       ("--source-schema", args.source_schema),
                       ("--source", args.source), ("--out", args.out),
                       ("--trace", args.trace), ("--dot", args.dot)):
        if path is None:
            continue
        first = named.setdefault(os.path.realpath(path), what)
        if first != what and what in ("--out", "--trace", "--dot") and (
                first, what) != ("--source", "--out"):
            raise UsageError(f"{first} and {what} name the same file: {path}")
    target_schema = load_schema(read(args.target_schema))
    transformation = parse_script(read(args.script))
    if args.in_place and args.source is None:
        raise UsageError("--in-place requires --source")
    source = None
    if args.source is not None:
        source_schema = target_schema
        if args.source_schema is not None:
            if args.in_place:
                raise UsageError(
                    "--source-schema conflicts with --in-place; an in-place "
                    "run rewrites the source under the target schema")
            source_schema = load_schema(read(args.source_schema))
        source = load_graph(read(args.source), source_schema)
    result = execute(transformation, source, target_schema=target_schema,
                     in_place=args.in_place)
    outputs = [(args.out, save_graph(result.graph))]
    if args.trace is not None:
        outputs.append((args.trace, trace_report(result.trace)))
    if args.dot is not None:
        outputs.append((args.dot, export_dot(result.graph)))
    return outputs


def cmd_corpus(args) -> int:
    from gretlite import corpus

    results = corpus.run_corpus(only=args.task)
    if not results:
        raise UsageError(f"no such task: {args.task}")
    for r in results:
        status = "PASS" if r.passed else f"FAIL ({r.failure})"
        print(f"Task {r.number:2d} {r.title}: {status}")
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} tasks passed")
    return 0 if passed == len(results) else 1


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
    transform.set_defaults(fn=cmd_transform)

    corpus_cmd = sub.add_parser("corpus", help="run the bundled task corpus")
    corpus_cmd.add_argument("--task", type=int, help="run a single task")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "corpus":
            return cmd_corpus(args)
        outputs = args.fn(args, _read)
        _write_all([out for out in outputs if out[0] is not None])
        sys.stdout.write("".join(text for path, text in outputs
                                 if path is None))
        return 0
    except (GretliteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - report, then fail loudly
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
