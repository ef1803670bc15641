"""Bundled task corpus: fixtures, scripts, queries, and golden outputs.

Each task runs fully in memory and compares its outputs against golden
files stored next to the fixtures, so a corpus run never writes anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from gretlite.formats import load_graph, load_schema, save_graph
from gretlite.query import evaluate, parse_query
from gretlite.report import render_result, trace_report
from gretlite.transform import execute, parse_script


@dataclass(frozen=True)
class TaskSpec:
    number: int
    title: str
    schema: str
    script: str | None = None
    query: str | None = None
    source: str | None = None
    source_schema: str | None = None
    in_place: bool = False
    setup_script: str | None = None  # produces the queried graph (task 3)
    golden_graph: str | None = None
    golden_value: str | None = None
    golden_trace: str | None = None


TASKS: tuple[TaskSpec, ...] = (
    TaskSpec(1, "constant greeting", "hello.gls",
             script="01-create-greeting.grt",
             golden_graph="01-out.glg", golden_trace="01-trace.txt"),
    TaskSpec(2, "greeting subgraph from a template", "hello_ext.gls",
             script="02-create-extended-greeting.grt",
             golden_graph="02-out.glg", golden_trace="02-trace.txt"),
    TaskSpec(3, "greeting rendered to text", "hello_ext.gls",
             query="03-greeting-to-text.grq",
             setup_script="02-create-extended-greeting.grt",
             golden_value="03-out.txt"),
    TaskSpec(4, "count nodes", "graph1.gls",
             query="04-count-nodes.grq", source="sample1.glg",
             golden_value="04-out.txt"),
    TaskSpec(5, "count looping edges", "graph1.gls",
             query="05-count-loops.grq", source="sample1.glg",
             golden_value="05-out.txt"),
    TaskSpec(6, "isolated nodes", "graph1.gls",
             query="06-isolated-nodes.grq", source="sample1.glg",
             golden_value="06-out.txt"),
    TaskSpec(7, "circles of three nodes", "graph1.gls",
             query="07-circle-of-three.grq", source="sample1.glg",
             golden_value="07-out.txt"),
    TaskSpec(8, "dangling edges", "graph1.gls",
             query="08-dangling-edges.grq", source="sample1.glg",
             golden_value="08-out.txt"),
    TaskSpec(9, "reverse edges in place", "graph1.gls",
             script="09-reverse-edges.grt", source="sample1.glg",
             in_place=True, golden_graph="09-out.glg"),
    TaskSpec(10, "migration into the evolved schema", "graph1evo.gls",
             script="10-simple-migration.grt", source="sample1.glg",
             source_schema="graph1.gls",
             golden_graph="10-out.glg", golden_trace="10-trace.txt"),
    TaskSpec(11, "topology change to real edges", "graph2.gls",
             script="11-change-topology.grt", source="sample2.glg",
             source_schema="graph1.gls", golden_graph="11-out.glg"),
    TaskSpec(12, "delete nodes named n1", "graph1.gls",
             script="12-delete-node-n1.grt", source="sample1.glg",
             in_place=True, golden_graph="12-out.glg"),
    TaskSpec(13, "delete nodes named n1 with their edges", "graph1.gls",
             script="13-delete-node-n1-and-edges.grt", source="sample1.glg",
             in_place=True, golden_graph="13-out.glg"),
    TaskSpec(14, "insert transitive edges", "graph2.gls",
             script="14-insert-transitive-edges.grt", source="chain4.glg",
             in_place=True, golden_graph="14-out.glg"),
)


@dataclass
class TaskResult:
    number: int
    title: str
    passed: bool
    failure: str | None = None
    outputs: dict = field(default_factory=dict)


def default_root():
    return resources.files(__name__)


def read_text(name: str, root=None) -> str:
    root = default_root() if root is None else root
    return (root / name).read_text(encoding="utf-8")


def run_task(spec: TaskSpec, root=None) -> TaskResult:
    result = TaskResult(spec.number, spec.title, passed=True)
    schema = load_schema(read_text(spec.schema, root))
    source = None
    if spec.source is not None:
        source_schema = schema
        if spec.source_schema is not None:
            source_schema = load_schema(read_text(spec.source_schema, root))
        source = load_graph(read_text(spec.source, root), source_schema)
    if spec.setup_script is not None:
        setup = parse_script(read_text(spec.setup_script, root))
        source = execute(setup, target_schema=schema).graph
    if spec.script is not None:
        transformation = parse_script(read_text(spec.script, root))
        run = execute(transformation, source, target_schema=schema,
                      in_place=spec.in_place)
        if spec.golden_graph is not None:
            result.outputs[spec.golden_graph] = save_graph(run.graph)
        if spec.golden_trace is not None:
            result.outputs[spec.golden_trace] = trace_report(run.trace)
    if spec.query is not None:
        expr = parse_query(read_text(spec.query, root))
        value = evaluate(expr, source)
        result.outputs[spec.golden_value] = render_result(value)
    for name, actual in result.outputs.items():
        golden = read_text(f"golden/{name}", root)
        diff = _first_diff(golden, actual)
        if diff is not None:
            result.passed = False
            result.failure = f"{name} {diff}"
            break
    return result


def _first_diff(expected: str, actual: str) -> str | None:
    if expected == actual:
        return None
    exp_lines = expected.splitlines()
    act_lines = actual.splitlines()
    for i in range(max(len(exp_lines), len(act_lines))):
        exp = exp_lines[i] if i < len(exp_lines) else "<end of file>"
        act = act_lines[i] if i < len(act_lines) else "<end of file>"
        if exp != act:
            return f"line {i + 1}: expected {exp!r}, got {act!r}"
    return "differs in trailing whitespace"


def run_corpus(root=None, only: int | None = None) -> list[TaskResult]:
    specs = [t for t in TASKS if only is None or t.number == only]
    results = []
    for spec in specs:
        try:
            results.append(run_task(spec, root))
        except Exception as exc:  # a crashing task is a failing task
            results.append(
                TaskResult(spec.number, spec.title, passed=False,
                           failure=f"error: {exc}")
            )
    return results
