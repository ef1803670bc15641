"""Bundled task corpus: fixtures, scripts, queries, and golden outputs.

Each task is the `gretlite` command lines that solve it, with file names
relative to this package.  `run_task` runs them in order through the CLI's
own command functions, in memory: a command reads a file that an earlier
command of the task wrote, or else the packaged file of that name.  Every
file a command writes is compared with `golden/<name>`, and what a query
prints with `golden/NN-out.txt`, NN being the task number.  So a corpus
run writes nothing to disk, and the same command lines run in a copy of
this directory write files equal to the goldens.
"""

from __future__ import annotations

from functools import cache
from importlib import resources

from gretlite import cli
from gretlite.errors import UsageError

# One argument parser per process: each leaves objects in reference
# cycles, which a process without the cyclic collector keeps to its end.
_parser = cache(lambda: cli.build_parser())

# (number, title, *command lines)
TASKS: tuple[tuple, ...] = (
    (1, "constant greeting",
     "transform 01-create-greeting.grt hello.gls --out 01-out.glg "
     "--trace 01-trace.txt"),
    (2, "greeting subgraph from a template",
     "transform 02-create-extended-greeting.grt hello_ext.gls "
     "--out 02-out.glg --trace 02-trace.txt"),
    (3, "greeting rendered to text",
     "transform 02-create-extended-greeting.grt hello_ext.gls "
     "--out 02-out.glg",
     "query hello_ext.gls 02-out.glg 03-greeting-to-text.grq"),
    (4, "count nodes", "query graph1.gls sample1.glg 04-count-nodes.grq"),
    (5, "count looping edges",
     "query graph1.gls sample1.glg 05-count-loops.grq"),
    (6, "isolated nodes",
     "query graph1.gls sample1.glg 06-isolated-nodes.grq"),
    (7, "circles of three nodes",
     "query graph1.gls sample1.glg 07-circle-of-three.grq"),
    (8, "dangling edges",
     "query graph1.gls sample1.glg 08-dangling-edges.grq"),
    (9, "reverse edges in place",
     "transform 09-reverse-edges.grt graph1.gls --source sample1.glg "
     "--in-place --out 09-out.glg"),
    (10, "migration into the evolved schema",
     "transform 10-simple-migration.grt graph1evo.gls --source sample1.glg "
     "--source-schema graph1.gls --out 10-out.glg --trace 10-trace.txt"),
    (11, "topology change to real edges",
     "transform 11-change-topology.grt graph2.gls --source sample2.glg "
     "--source-schema graph1.gls --out 11-out.glg"),
    (12, "delete nodes named n1",
     "transform 12-delete-node-n1.grt graph1.gls --source sample1.glg "
     "--in-place --out 12-out.glg"),
    (13, "delete nodes named n1 with their edges",
     "transform 13-delete-node-n1-and-edges.grt graph1.gls "
     "--source sample1.glg --in-place --out 13-out.glg"),
    (14, "insert transitive edges",
     "transform 14-insert-transitive-edges.grt graph2.gls "
     "--source chain4.glg --in-place --out 14-out.glg"),
)


class TaskResult:
    def __init__(self, number: int, title: str, passed: bool,
                 failure: str | None = None):
        self.number, self.title = number, title
        self.passed, self.failure = passed, failure
        self.outputs: dict[str, str] = {}  # every file written, by name


def default_root():
    return resources.files(__name__)


def read_text(name: str, root=None) -> str:
    root = default_root() if root is None else root
    return (root / name).read_text(encoding="utf-8")


def run_task(task, root=None) -> TaskResult:
    number, title, *commands = task
    result = TaskResult(number, title, passed=True)
    outputs = result.outputs

    def read(name: str) -> str:
        return outputs[name] if name in outputs else read_text(name, root)

    for command in commands:
        args = _parser().parse_args(command.split())
        for path, text in args.fn(args, read):
            outputs[f"{number:02d}-out.txt" if path is None else path] = text
    for name, actual in outputs.items():
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
    results = []
    for task in TASKS:
        if only is not None and task[0] != only:
            continue
        try:
            results.append(run_task(task, root))
        except Exception as exc:  # a crashing task is a failing task
            results.append(TaskResult(*task[:2], passed=False,
                                      failure=f"error: {exc}"))
    return results


def cmd_corpus(args) -> tuple[int, list[tuple[None, str]]]:
    """The exit code of a corpus run and its report, to be printed."""
    results = run_corpus(only=args.task)
    if not results:
        raise UsageError(f"no such task: {args.task}")
    lines = [f"Task {r.number:2d} {r.title}: "
             + ("PASS" if r.passed else f"FAIL ({r.failure})") for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} tasks passed\n")
    return int(passed != len(results)), [(None, "\n".join(lines))]
