import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from gretlite import cli, corpus
from gretlite.cli import main

import oracles


@pytest.fixture
def workdir(tmp_path):
    for name in ("hello.gls", "graph1.gls", "graph2.gls", "sample1.glg",
                 "chain4.glg", "01-create-greeting.grt",
                 "04-count-nodes.grq", "09-reverse-edges.grt"):
        (tmp_path / name).write_text(corpus.read_text(name), encoding="utf-8")
    return tmp_path


def test_query_prints_value(workdir, capsys):
    code = main(["query", str(workdir / "graph1.gls"),
                 str(workdir / "sample1.glg"),
                 str(workdir / "04-count-nodes.grq")])
    assert code == 0
    assert capsys.readouterr().out == "6\n"


def test_query_on_empty_graph(workdir, capsys):
    empty = workdir / "empty.glg"
    empty.write_text("graph empty conforms graph1;\n", encoding="utf-8")
    code = main(["query", str(workdir / "graph1.gls"), str(empty),
                 str(workdir / "04-count-nodes.grq")])
    assert code == 0
    assert capsys.readouterr().out == "0\n"


def test_map_results_print_as_lines(workdir, capsys):
    q = workdir / "names.grq"
    q.write_text("from n : V{Node} reportMap n.name -> n end\n",
                 encoding="utf-8")
    code = main(["query", str(workdir / "graph1.gls"),
                 str(workdir / "sample1.glg"), str(q)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == '"n1" -> v2'
    assert len(out.splitlines()) == 6


def test_missing_file_names_the_path(workdir, capsys):
    code = main(["query", str(workdir / "nope.gls"),
                 str(workdir / "sample1.glg"),
                 str(workdir / "04-count-nodes.grq")])
    assert code == 1
    assert "nope.gls" in capsys.readouterr().err


def test_files_that_are_not_regular_are_read(workdir):
    """A pipe is read like a file; a directory is an error that names the
    path, not a missing file."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    args = [sys.executable, "-m", "gretlite.cli", "query",
            str(workdir / "graph1.gls"), str(workdir / "sample1.glg")]
    run = subprocess.run(args + ["/dev/stdin"], input="count(V{Node})",
                         capture_output=True, text=True, env=env, timeout=60)
    assert (run.returncode, run.stdout) == (0, "6\n"), run.stderr
    run = subprocess.run(args + [str(workdir)], capture_output=True,
                         text=True, env=env, timeout=60)
    assert run.returncode == 1
    assert "no such file" not in run.stderr
    assert str(workdir) in run.stderr


def test_parse_error_is_a_user_error(workdir, capsys):
    bad = workdir / "bad.grq"
    bad.write_text("from x", encoding="utf-8")
    code = main(["query", str(workdir / "graph1.gls"),
                 str(workdir / "sample1.glg"), str(bad)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unexpected_exception_is_an_internal_error(workdir, capsys,
                                                   monkeypatch):
    def broken(args, read):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_query", broken)
    code = main(["query", str(workdir / "graph1.gls"),
                 str(workdir / "sample1.glg"),
                 str(workdir / "04-count-nodes.grq")])
    assert code == 2
    assert capsys.readouterr().err == "internal error: RuntimeError('boom')\n"


def test_transform_writes_output(workdir, capsys):
    out = workdir / "out.glg"
    code = main(["transform", str(workdir / "01-create-greeting.grt"),
                 str(workdir / "hello.gls"), "--out", str(out),
                 "--trace", str(workdir / "trace.txt"),
                 "--dot", str(workdir / "out.dot")])
    assert code == 0
    assert out.read_text(encoding="utf-8") == \
        corpus.read_text("golden/01-out.glg")
    assert (workdir / "trace.txt").read_text(encoding="utf-8") == \
        corpus.read_text("golden/01-trace.txt")
    assert (workdir / "out.dot").read_text(encoding="utf-8").startswith(
        "digraph G {")


SAMPLE1_REVERSED_DOT = """\
digraph G {
  v1 [label="Graph_\\nv1"];
  v2 [label="Node\\nv2\\nname = \\"n1\\""];
  v3 [label="Node\\nv3\\nname = \\"n2\\""];
  v4 [label="Node\\nv4\\nname = \\"n3\\""];
  v5 [label="Node\\nv5\\nname = \\"n4\\""];
  v6 [label="Node\\nv6\\nname = \\"n5\\""];
  v7 [label="Node\\nv7\\nname = \\"n6\\""];
  v8 [label="Edge_\\nv8"];
  v9 [label="Edge_\\nv9"];
  v10 [label="Edge_\\nv10"];
  v11 [label="Edge_\\nv11"];
  v12 [label="Edge_\\nv12"];
  v1 -> v2 [label="Graph_ContainsNodes"];
  v1 -> v3 [label="Graph_ContainsNodes"];
  v1 -> v4 [label="Graph_ContainsNodes"];
  v1 -> v5 [label="Graph_ContainsNodes"];
  v1 -> v6 [label="Graph_ContainsNodes"];
  v1 -> v7 [label="Graph_ContainsNodes"];
  v1 -> v8 [label="Graph_ContainsEdges"];
  v1 -> v9 [label="Graph_ContainsEdges"];
  v1 -> v10 [label="Graph_ContainsEdges"];
  v1 -> v11 [label="Graph_ContainsEdges"];
  v1 -> v12 [label="Graph_ContainsEdges"];
  v12 -> v6 [label="Edge_LinksToSrc"];
  v8 -> v3 [label="Edge_LinksToSrc"];
  v8 -> v2 [label="Edge_LinksToTrg"];
  v9 -> v4 [label="Edge_LinksToSrc"];
  v9 -> v3 [label="Edge_LinksToTrg"];
  v10 -> v2 [label="Edge_LinksToSrc"];
  v10 -> v4 [label="Edge_LinksToTrg"];
  v11 -> v5 [label="Edge_LinksToSrc"];
  v11 -> v5 [label="Edge_LinksToTrg"];
}
"""


def test_dot_output_is_pinned(workdir, capsys):
    """The whole `--dot` text of sample1 after task 09 reversed its
    Edge_ links in place."""
    code = main(["transform", str(workdir / "09-reverse-edges.grt"),
                 str(workdir / "graph1.gls"),
                 "--source", str(workdir / "sample1.glg"), "--in-place",
                 "--out", str(workdir / "out.glg"),
                 "--dot", str(workdir / "out.dot")])
    assert code == 0
    assert (workdir / "out.dot").read_text(encoding="utf-8") == \
        SAMPLE1_REVERSED_DOT


def test_in_place_requires_source(workdir, capsys):
    code = main(["transform", str(workdir / "09-reverse-edges.grt"),
                 str(workdir / "graph1.gls"), "--in-place",
                 "--out", str(workdir / "out.glg")])
    assert code == 1
    assert "--source" in capsys.readouterr().err


def test_source_schema_conflicts_with_in_place(workdir, capsys):
    out = workdir / "out.glg"
    code = main(["transform", str(workdir / "09-reverse-edges.grt"),
                 str(workdir / "graph1.gls"),
                 "--source", str(workdir / "sample1.glg"),
                 "--source-schema", str(workdir / "graph1.gls"), "--in-place",
                 "--out", str(out)])
    assert code == 1
    assert "--source-schema conflicts with --in-place" in \
        capsys.readouterr().err
    assert not out.exists()


def test_in_place_transform(workdir):
    out = workdir / "out.glg"
    code = main(["transform", str(workdir / "09-reverse-edges.grt"),
                 str(workdir / "graph1.gls"),
                 "--source", str(workdir / "sample1.glg"),
                 "--in-place", "--out", str(out)])
    assert code == 0
    assert out.read_text(encoding="utf-8") == \
        corpus.read_text("golden/09-out.glg")


def test_double_application_restores_shape(workdir):
    mid = workdir / "mid.glg"
    final = workdir / "final.glg"
    for src, dst in ((workdir / "sample1.glg", mid), (mid, final)):
        code = main(["transform", str(workdir / "09-reverse-edges.grt"),
                     str(workdir / "graph1.gls"), "--source", str(src),
                     "--in-place", "--out", str(dst)])
        assert code == 0
    from gretlite.formats import load_graph, load_schema
    schema = load_schema(corpus.read_text("graph1.gls"))
    before = load_graph(corpus.read_text("sample1.glg"), schema)
    after = load_graph(final.read_text(encoding="utf-8"), schema)
    assert oracles.canonical_form(before) == oracles.canonical_form(after)


def test_failed_transform_leaves_no_output(workdir, capsys):
    bad = workdir / "bad.grt"
    bad.write_text("transformation T;\nCreateVertices Widget <== set(1);\n",
                   encoding="utf-8")
    out = workdir / "out.glg"
    code = main(["transform", str(bad), str(workdir / "hello.gls"),
                 "--out", str(out)])
    assert code == 1
    assert not out.exists()
    good = str(workdir / "01-create-greeting.grt")
    trace = str(workdir / "missing" / "trace.txt")
    code = main(["transform", good, str(workdir / "hello.gls"),
                 "--out", str(out), "--trace", trace])
    assert code == 1
    assert not out.exists()
    assert not list(workdir.glob(".gretlite-*"))
    err = capsys.readouterr().err
    assert f"No such file or directory: '{trace}'" in err
    assert ".gretlite-" not in err


@pytest.mark.parametrize("first, second", [
    ("--out", "--trace"), ("--out", "--dot"), ("--trace", "--dot")])
def test_output_named_twice_is_a_usage_error(workdir, capsys, monkeypatch,
                                             first, second):
    target = workdir / "a.glg"
    target.write_text("untouched\n", encoding="utf-8")
    monkeypatch.chdir(workdir)
    argv = ["transform", "09-reverse-edges.grt", "graph1.gls",
            "--source", "sample1.glg", "--in-place",
            first, "a.glg", second, "./a.glg"]
    if first != "--out":
        argv += ["--out", "out.glg"]
    before = sorted(os.listdir(workdir))
    assert main(argv) == 1
    assert target.read_text(encoding="utf-8") == "untouched\n"
    assert sorted(os.listdir(workdir)) == before
    err = capsys.readouterr().err
    assert f"{first} and {second} name the same file: ./a.glg" in err


_IN_PLACE = ["transform", "09-reverse-edges.grt", "graph1.gls",
             "--source", "sample1.glg", "--in-place", "--out", "out.glg"]
_MIGRATION = ["transform", "09-reverse-edges.grt", "graph1.gls",
              "--source", "sample1.glg", "--source-schema", "src.gls",
              "--out", "out.glg"]


@pytest.mark.parametrize("argv, option, named, victim", [
    # the run that once left the script holding its trace report
    (_IN_PLACE + ["--trace", "09-reverse-edges.grt"], "--trace",
     "the script", "09-reverse-edges.grt"),
    (_IN_PLACE[:-1] + ["09-reverse-edges.grt"], "--out", "the script",
     "09-reverse-edges.grt"),
    (_IN_PLACE[:-1] + ["graph1.gls"], "--out", "the target schema",
     "graph1.gls"),
    (_IN_PLACE + ["--dot", "./graph1.gls"], "--dot", "the target schema",
     "graph1.gls"),
    (_IN_PLACE + ["--trace", "sample1.glg"], "--trace", "--source",
     "sample1.glg"),
    (_IN_PLACE + ["--dot", "sample1.glg"], "--dot", "--source",
     "sample1.glg"),
    (_MIGRATION[:-1] + ["src.gls"], "--out", "--source-schema", "src.gls"),
    (_MIGRATION + ["--trace", "src.gls"], "--trace", "--source-schema",
     "src.gls"),
], ids=["trace-script", "out-script", "out-schema", "dot-schema",
        "trace-source", "dot-source", "out-source-schema",
        "trace-source-schema"])
def test_output_naming_an_input_is_a_usage_error(workdir, capsys,
                                                 monkeypatch, argv, option,
                                                 named, victim):
    monkeypatch.chdir(workdir)
    (workdir / "src.gls").write_text(corpus.read_text("graph1.gls"),
                                     encoding="utf-8")
    before = {p.name: p.read_bytes() for p in workdir.iterdir()}
    assert main(argv) == 1
    assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before
    err = capsys.readouterr().err
    assert f"{named} and {option} name the same file: " in err
    assert victim in err


def test_out_may_rewrite_the_source(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    assert main(_IN_PLACE[:-1] + ["sample1.glg"]) == 0
    assert (workdir / "sample1.glg").read_text(encoding="utf-8") == \
        corpus.read_text("golden/09-out.glg")


def test_transform_outputs_get_umask_permissions(workdir):
    old_umask = os.umask(0o027)
    try:
        code = main(["transform", str(workdir / "01-create-greeting.grt"),
                     str(workdir / "hello.gls"), "--out",
                     str(workdir / "out.glg"), "--dot",
                     str(workdir / "out.dot")])
    finally:
        os.umask(old_umask)
    assert code == 0
    for name in ("out.glg", "out.dot"):
        assert stat.S_IMODE((workdir / name).stat().st_mode) == 0o640


def test_non_decimal_digit_is_a_user_error(workdir, capsys):
    bad = workdir / "bad.grq"
    bad.write_text("count(V{Node}) + \u00b2", encoding="utf-8")
    code = main(["query", str(workdir / "graph1.gls"),
                 str(workdir / "sample1.glg"), str(bad)])
    assert code == 1
    assert "unexpected character '\u00b2' (line 1, column 18)" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("role", ["schema", "graph", "query"])
def test_non_utf8_input_is_a_user_error(workdir, capsys, role):
    paths = {"schema": workdir / "graph1.gls", "graph": workdir / "sample1.glg",
             "query": workdir / "04-count-nodes.grq"}
    bad = paths[role]
    text = bad.read_bytes()
    # a 0xff byte, which UTF-8 never uses, inside a string literal
    bad.write_bytes(text + b'"\xff"\n')
    offset = len(text) + 1
    code = main(["query", *map(str, paths.values())])
    err = capsys.readouterr().err
    assert code == 1
    assert "internal error" not in err
    assert f"{bad}: not UTF-8 text (byte offset {offset})" in err


_IMPORTS = """
import sys
import gretlite.cli
print(sorted(m for m in sys.modules
             if m in ("gretlite.transform", "gretlite.corpus")))
gretlite.cli.main(sys.argv[1:])
print(sorted(m for m in sys.modules if m == "gretlite.transform"))
"""


def test_query_imports_neither_transform_nor_corpus(workdir):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run(
        [sys.executable, "-c", _IMPORTS, "query", str(workdir / "graph1.gls"),
         str(workdir / "sample1.glg"), str(workdir / "04-count-nodes.grq")],
        capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n6\n[]\n"


_LOADED = """
import sys
from pathlib import Path
import gretlite.cli
gretlite.cli.main(sys.argv[1:])
print(sum(Path(module.__file__).read_text(encoding="utf-8").count("\\n")
          for name, module in list(sys.modules.items())
          if name.split(".")[0] == "gretlite"))
"""
# Each process compiles every line of the gretlite modules it loads.  A
# change that loads fewer lowers this number, as it lowers CI's source
# budget.
QUERY_RUN_LINES = 2687


def test_query_run_loads_at_most_its_line_budget():
    root = Path(corpus.__file__).parent
    files = ("graph1.gls", "sample1.glg", "07-circle-of-three.grq")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run(
        [sys.executable, "-c", _LOADED, "query",
         *(str(root / name) for name in files)],
        capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    *output, lines = run.stdout.splitlines(keepends=True)
    assert "".join(output) == corpus.read_text("golden/07-out.txt")
    assert int(lines) <= QUERY_RUN_LINES


_HEAVY = """
import sys
import gretlite.cli
heavy = ("dataclasses", "inspect")
seen = [sorted(m for m in heavy if m in sys.modules)]
for command in sys.argv[1:]:
    assert gretlite.cli.main(command.split()) == 0
    seen.append(sorted(m for m in heavy if m in sys.modules))
print(seen)
"""


def test_no_run_imports_dataclasses_or_inspect(workdir):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run(
        [sys.executable, "-c", _HEAVY,
         "query graph1.gls sample1.glg 04-count-nodes.grq",
         "transform 09-reverse-edges.grt graph1.gls --source sample1.glg "
         "--in-place --out out.glg --trace trace.txt --dot out.dot",
         "corpus"],
        capture_output=True, text=True, env=env, cwd=workdir, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[[], [], [], []]"


def test_trace_clash_report_ignores_hash_seed(tmp_path):
    parents = ["Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta"]
    (tmp_path / "s.gls").write_text(
        "schema s;\n"
        + "".join(f"vertexclass {p};\n" for p in parents)
        + f"vertexclass Child : {', '.join(parents)};\n", encoding="utf-8")
    (tmp_path / "t.grt").write_text(
        "transformation T;\n"
        + "".join(f"CreateVertices {c} <== set(1);\n"
                  for c in parents + ["Child"]), encoding="utf-8")
    errors = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        run = subprocess.run(
            [sys.executable, "-m", "gretlite.cli", "transform",
             str(tmp_path / "t.grt"), str(tmp_path / "s.gls"),
             "--out", str(tmp_path / "out.glg")],
            capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 1
        errors.append(run.stderr)
    assert errors[0] == errors[1]
    assert "visible via class 'Alpha'" in errors[0]


def test_corpus_all_pass(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "14/14 tasks passed" in out
    assert out.count("PASS") == 14


def test_corpus_single_task(capsys):
    assert main(["corpus", "--task", "1"]) == 0
    out = capsys.readouterr().out
    assert "Task  1" in out and "1/1 tasks passed" in out


def test_corpus_unknown_task(capsys):
    assert main(["corpus", "--task", "99"]) == 1
    assert "no such task" in capsys.readouterr().err


@pytest.mark.parametrize("task", corpus.TASKS, ids=lambda t: f"task{t[0]:02d}")
def test_corpus_command_lines_write_the_goldens(task, tmp_path, monkeypatch,
                                               capsys):
    """Each task's command lines, run unchanged in a copy of the corpus,
    write and print what the in-memory corpus run compares: the goldens."""
    for entry in corpus.default_root().iterdir():
        if entry.is_file():
            shutil.copy(str(entry), tmp_path / entry.name)
    monkeypatch.chdir(tmp_path)
    before = set(os.listdir(tmp_path))
    number, _, *commands = task
    for command in commands:
        assert main(command.split()) == 0, capsys.readouterr().err
    outputs = {name: (tmp_path / name).read_text(encoding="utf-8")
               for name in set(os.listdir(tmp_path)) - before}
    printed = capsys.readouterr().out
    if printed:
        outputs[f"{number:02d}-out.txt"] = printed
    assert outputs
    assert outputs == {name: corpus.read_text(f"golden/{name}")
                       for name in outputs}
    assert outputs == corpus.run_task(task).outputs


def test_corpus_compares_exactly_the_golden_files():
    compared = {name for r in corpus.run_corpus() for name in r.outputs}
    golden = corpus.default_root() / "golden"
    assert compared == {entry.name for entry in golden.iterdir()}


def _copied_corpus(tmp_path):
    """A copy of the packaged corpus, goldens included, under `tmp_path`."""
    root = tmp_path / "corpus"
    root.mkdir()
    source = corpus.default_root()
    for entry in source.iterdir():
        if entry.is_file():
            shutil.copy(str(entry), root / entry.name)
    (root / "golden").mkdir()
    for entry in (source / "golden").iterdir():
        shutil.copy(str(entry), root / "golden" / entry.name)
    return root


def test_corrupted_golden_fails_with_diff(tmp_path):
    root = _copied_corpus(tmp_path)
    golden = root / "golden" / "04-out.txt"
    golden.write_text("7\n", encoding="utf-8")
    results = corpus.run_corpus(root=root)
    by_number = {r.number: r for r in results}
    assert not by_number[4].passed
    assert "line 1" in by_number[4].failure
    assert all(r.passed for n, r in by_number.items() if n != 4)


@pytest.mark.parametrize("corrupt, number, failure", [
    # the golden without its last newline: every line still matches
    (lambda root: (root / "golden" / "04-out.txt").write_text(
        "6", encoding="utf-8"), 4, "04-out.txt differs in trailing whitespace"),
    # a task whose command raises is a failed task, the others still run
    (lambda root: (root / "chain4.glg").unlink(), 14, "error: "),
], ids=["trailing-whitespace", "missing-fixture"])
def test_corrupted_copy_fails_with_its_report(tmp_path, corrupt, number,
                                              failure):
    root = _copied_corpus(tmp_path)
    corrupt(root)
    by_number = {r.number: r for r in corpus.run_corpus(root=root)}
    assert not by_number[number].passed
    assert by_number[number].failure.startswith(failure)
    assert all(r.passed for n, r in by_number.items() if n != number)


def _query(workdir, text):
    q = workdir / "q.grq"
    q.write_text(text, encoding="utf-8")
    return main(["query", str(workdir / "graph1.gls"),
                 str(workdir / "sample1.glg"), str(q)])


def test_deeply_nested_query_is_a_parse_error(workdir, capsys):
    assert _query(workdir, "(" * 3000 + "1" + ")" * 3000) == 1
    err = capsys.readouterr().err
    assert "nested more than 50 levels deep" in err
    assert "(line 1, column 51)" in err


def test_unbound_variable_is_a_user_error_with_its_position(workdir, capsys):
    assert _query(workdir, "from x : V with y = 1 report x end") == 1
    assert capsys.readouterr().err == (
        "error: unbound variable 'y' (line 1, column 17)\n")


def test_deeply_nested_iteratively_is_a_parse_error(workdir, capsys):
    script = workdir / "deep.grt"
    script.write_text("transformation deep;\n" + "Iteratively {\n" * 600
                      + "Delete V{Node};\n" + "}\n" * 600, encoding="utf-8")
    code = main(["transform", str(script), str(workdir / "graph1.gls"),
                 "--source", str(workdir / "sample1.glg"), "--in-place",
                 "--out", str(workdir / "out.glg")])
    err = capsys.readouterr().err
    assert code == 1
    assert "internal error" not in err
    assert "nested more than 50 levels deep (line 52, column 1)" in err


def test_runaway_iteratively_fails_after_round_limit(workdir, capsys):
    # each round adds a node, so the body never becomes inapplicable
    script = workdir / "runaway.grt"
    script.write_text(
        "transformation runaway;\nIteratively { MatchReplace (x : Node | "
        "arch = count(V{Node})) <== set(tup(1)); }\n", encoding="utf-8")
    out, trace = workdir / "out.glg", workdir / "trace.txt"
    code = main(["transform", str(script), str(workdir / "graph1.gls"),
                 "--source", str(workdir / "sample1.glg"), "--in-place",
                 "--out", str(out), "--trace", str(trace)])
    err = capsys.readouterr().err
    assert code == 1
    assert "Iteratively exceeded 1000 rounds" in err
    assert not out.exists() and not trace.exists()
    assert not list(workdir.glob(".gretlite-*"))


def test_long_operator_chain_evaluates(workdir, capsys):
    assert _query(workdir, " + ".join(["1"] * 5000)) == 0
    assert capsys.readouterr().out == "5000\n"


def test_long_with_clause_evaluates(workdir, capsys):
    conjuncts = " and ".join(["n = n"] * 3000)
    assert _query(workdir, f"from n : V{{Node}} with {conjuncts} "
                           "report n end") == 0
    assert capsys.readouterr().out == "[v2, v3, v4, v5, v6, v7]\n"


HUGE = "1" + "0" * 400


@pytest.mark.parametrize("text", [f"{HUGE} / 1", f"{HUGE} + 0.5",
                                  " * ".join([HUGE] * 12)],
                         ids=["quotient", "float-sum", "long-product"])
def test_huge_number_arithmetic_is_a_user_error(workdir, capsys, text):
    assert _query(workdir, text) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: '")
    assert "internal error" not in err


def test_huge_double_in_a_graph_is_a_user_error(workdir, capsys):
    (workdir / "d.gls").write_text("schema d;\nvertexclass A { d: Double };\n",
                                   encoding="utf-8")
    (workdir / "d.glg").write_text(
        f"graph d conforms d;\nv1 : A {{ d = {HUGE} }};\n", encoding="utf-8")
    code = main(["query", str(workdir / "d.gls"), str(workdir / "d.glg"),
                 str(workdir / "04-count-nodes.grq")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: attribute 'd' rejects non-finite value (line 2, column 10)\n")


def test_huge_double_set_by_a_script_is_a_user_error(workdir, capsys):
    (workdir / "d.gls").write_text("schema d;\nvertexclass A { d: Double };\n",
                                   encoding="utf-8")
    (workdir / "d.grt").write_text(
        "transformation T;\nCreateVertices A <== set(1);\n"
        f"SetAttributes A.d <== map(1 -> {HUGE});\n", encoding="utf-8")
    code = main(["transform", str(workdir / "d.grt"), str(workdir / "d.gls"),
                 "--out", str(workdir / "out.glg")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: op 2: attribute 'd' rejects non-finite value (line 3)\n")


_DUMP = """
import sys
from pathlib import Path

from gretlite import corpus
from gretlite.cli import main
from gretlite.formats import load_graph, load_schema
from gretlite.query.evaluator import evaluate
from gretlite.query.parser import parse_query
from gretlite.values import OrderedSet, ValueMap, render_value


def in_order(v):
    if isinstance(v, ValueMap):
        return "{" + ", ".join(f"{in_order(k)} -> {in_order(x)}"
                               for k, x in v.items()) + "}"
    if isinstance(v, (OrderedSet, list, tuple)):
        return "[" + ", ".join(in_order(x) for x in v) + "]"
    return render_value(v)


out = Path(sys.argv[1])
for result in corpus.run_corpus():
    for name, text in result.outputs.items():
        (out / name).write_text(text, encoding="utf-8")
for number, _, *commands in corpus.TASKS:
    if len(commands) == 1 and commands[0].startswith("query "):
        _, *names = commands[0].split()
        schema, graph, query = map(corpus.read_text, names)
        graph = load_graph(graph, load_schema(schema))
        value = evaluate(parse_query(query), graph)
        (out / f"{number:02d}-rows.txt").write_text(in_order(value))
sys.exit(main(["corpus"]))
"""


def test_corpus_outputs_ignore_hash_seed(tmp_path):
    """Every corpus output, and every query result in iteration order,
    is the same byte for byte under two hash seeds."""
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        run = subprocess.run([sys.executable, "-c", _DUMP, str(out)],
                             capture_output=True, text=True, env=env,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        assert "14/14 tasks passed" in run.stdout
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs.append((run.stdout, files))
    assert len(outputs[0][1]) == 22
    assert outputs[0] == outputs[1]
