"""The `gretlite transform` command, which only transform runs import:
its output files as `(path, text)` pairs, and their writer."""

from __future__ import annotations

import os

from gretlite.errors import UsageError
from gretlite.formats import (assignments, load_graph, load_schema,
                              save_graph, vertex_labels)
from gretlite.report import trace_report
from gretlite.transform import engine
from gretlite.transform.parser import parse_script


def cmd_transform(args, read) -> list[tuple[str, str]]:
    # No output may name a directory, another output, or an input other
    # than `--out` the source.  `named` maps a real path to its first name.
    named: dict[str, str] = {}
    for what, path in (("the script", args.script),
                       ("the target schema", args.target_schema),
                       ("--source-schema", args.source_schema),
                       ("--source", args.source), ("--out", args.out),
                       ("--trace", args.trace), ("--dot", args.dot)):
        if path is None:
            continue
        output = what in ("--out", "--trace", "--dot")
        if output and (path.endswith(os.sep) or os.path.isdir(path)):
            raise UsageError(f"{what} names a directory: {path}")
        first = named.setdefault(os.path.realpath(path), what)
        if output and first != what and (first, what) != ("--source", "--out"):
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
    result = engine.execute(transformation, source,
                            target_schema=target_schema,
                            in_place=args.in_place)
    outputs = [(args.out, save_graph(result.graph))]
    if args.trace is not None:
        outputs.append((args.trace, trace_report(result.trace)))
    if args.dot is not None:
        outputs.append((args.dot, export_dot(result.graph)))
    return outputs


def write_all(outputs: list[tuple[str, str]]):
    """Write each (path, text): stage every file beside its target, then
    rename them all into place, so a failure while staging leaves no
    output written and no partial file.  An error names the path it was
    writing, not its staging file."""
    staged: list[tuple[str, str]] = []
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


def export_dot(graph) -> str:
    """DOT rendering for inspection: one node per vertex, labeled with
    class, positional label, and attribute values; one arrow per edge."""
    lines = ["digraph G {"]
    labels = vertex_labels(graph)
    for v, label in labels.items():
        text = _dot_escape("\\n".join([v.class_name, label, *assignments(v)]))
        lines.append(f'  {label} [label="{text}"];')
    lines += [f'  {labels[e.start]} -> {labels[e.end]} '
              f'[label="{_dot_escape(e.class_name)}"];' for e in graph.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace('"', '\\"')
