import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from gretlite import corpus
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


def test_parse_error_is_a_user_error(workdir, capsys):
    bad = workdir / "bad.grq"
    bad.write_text("from x", encoding="utf-8")
    code = main(["query", str(workdir / "graph1.gls"),
                 str(workdir / "sample1.glg"), str(bad)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


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


def test_in_place_requires_source(workdir, capsys):
    code = main(["transform", str(workdir / "09-reverse-edges.grt"),
                 str(workdir / "graph1.gls"), "--in-place",
                 "--out", str(workdir / "out.glg")])
    assert code == 1
    assert "--source" in capsys.readouterr().err


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


def test_corrupted_golden_fails_with_diff(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    source = corpus.default_root()
    for entry in source.iterdir():
        if entry.is_file():
            shutil.copy(str(entry), root / entry.name)
    (root / "golden").mkdir()
    for entry in (source / "golden").iterdir():
        shutil.copy(str(entry), root / "golden" / entry.name)
    golden = root / "golden" / "04-out.txt"
    golden.write_text("7\n", encoding="utf-8")
    results = corpus.run_corpus(root=root)
    by_number = {r.number: r for r in results}
    assert not by_number[4].passed
    assert "line 1" in by_number[4].failure
    assert all(r.passed for n, r in by_number.items() if n != 4)


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


def test_long_operator_chain_evaluates(workdir, capsys):
    assert _query(workdir, " + ".join(["1"] * 5000)) == 0
    assert capsys.readouterr().out == "5000\n"


def test_long_with_clause_evaluates(workdir, capsys):
    conjuncts = " and ".join(["n = n"] * 3000)
    assert _query(workdir, f"from n : V{{Node}} with {conjuncts} "
                           "report n end") == 0
    assert capsys.readouterr().out == "[v2, v3, v4, v5, v6, v7]\n"


_DUMP = """
import sys
from pathlib import Path

from gretlite import corpus
from gretlite.cli import main
from gretlite.formats import load_graph, load_schema
from gretlite.query import evaluate, parse_query
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
for spec in corpus.TASKS:
    if spec.query is not None and spec.source is not None:
        schema = load_schema(corpus.read_text(spec.schema))
        graph = load_graph(corpus.read_text(spec.source), schema)
        value = evaluate(parse_query(corpus.read_text(spec.query)), graph)
        (out / f"{spec.number:02d}-rows.txt").write_text(in_order(value))
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
