import pytest

from gretlite.errors import ParseError
from gretlite.query import nodes as qn
from gretlite.query.parser import MAX_DEPTH
from gretlite.transform import ops
from gretlite.transform.parser import parse_script


def test_two_statement_script():
    t = parse_script(
        "transformation CreateGreeting;\n"
        "CreateVertices Greeting <== set(1);\n"
        'SetAttributes Greeting.text <== map(1 -> "Hello World");\n'
    )
    assert t.name == "CreateGreeting"
    assert [type(op) for op in t.ops] == [ops.CreateVertices, ops.SetAttributes]
    assert t.ops[0].class_name == "Greeting"
    assert t.ops[1].attr_name == "text"
    assert t.lines == (2, 3)


def test_header_is_required():
    with pytest.raises(ParseError, match="transformation NAME"):
        parse_script("CreateVertices Greeting <== set(1);")


def test_unknown_operation_keyword():
    with pytest.raises(ParseError, match="operation keyword"):
        parse_script("transformation T;\nFrobnicate X <== set(1);")


def test_empty_iteratively_block():
    with pytest.raises(ParseError, match="at least one"):
        parse_script("transformation T;\nIteratively { }")


def test_unterminated_iteratively_block():
    with pytest.raises(ParseError, match="unterminated Iteratively block"):
        parse_script("transformation T;\nIteratively { Delete set();")


def test_nested_iteratively():
    t = parse_script(
        "transformation T;\n"
        "Iteratively { Iteratively { Delete set(); } }"
    )
    outer = t.ops[0]
    assert isinstance(outer.body[0], ops.Iteratively)
    assert isinstance(outer.body[0].body[0], ops.Delete)
    assert t.lines == (2,)  # top-level ops only


def test_iteratively_nesting_limit():
    def nested(depth):
        return ("transformation T;\n" + "Iteratively {\n" * depth
                + "Delete set();\n" + "}\n" * depth)

    op = parse_script(nested(MAX_DEPTH)).ops[0]
    for _ in range(MAX_DEPTH - 1):
        op = op.body[0]
    assert isinstance(op.body[0], ops.Delete)
    with pytest.raises(ParseError) as err:
        parse_script(nested(MAX_DEPTH + 1))
    assert (err.value.line, err.value.column) == (MAX_DEPTH + 2, 1)


def test_delete_takes_a_bare_query():
    t = parse_script('transformation T;\nDelete from n : V{Node} reportSet n end;')
    assert isinstance(t.ops[0].query, qn.Comprehension)


def test_missing_semicolon():
    with pytest.raises(ParseError):
        parse_script("transformation T;\nCreateVertices X <== set(1)")


class TestTemplates:
    def test_chained_subgraph_template(self):
        t = parse_script(
            "transformation T;\n"
            "CreateSubgraph (g : Greeting | arch = $)"
            " -->{GreetingContainsGreetingMessage}"
            ' (gm : GreetingMessage | arch = $, text = "Hello"),'
            ' (g) -->{GreetingContainsPerson}'
            ' (p : Person | arch = $, name = "TTC Participants")'
            " <== set(1);"
        )
        template = t.ops[0].template
        assert [v.alias for v in template.vertices] == ["g", "gm", "p"]
        assert all(not v.is_ref for v in template.vertices)
        assert [(e.class_name, e.start_alias, e.end_alias)
                for e in template.edges] == [
            ("GreetingContainsGreetingMessage", "g", "gm"),
            ("GreetingContainsPerson", "g", "p"),
        ]
        assert template.vertices[1].assigns[0][0] == "text"

    def test_reference_template(self):
        t = parse_script(
            "transformation T;\n"
            "MatchReplace (a := $[0]) -->{E} (b := endVertex($[1]))"
            " <== set();"
        )
        template = t.ops[0].template
        assert all(v.is_ref for v in template.vertices)
        assert isinstance(template.vertices[1].ref, qn.Call)

    def test_new_vertex_requires_archetype(self):
        with pytest.raises(ParseError, match="'\\|'"):
            parse_script("transformation T;\nCreateSubgraph (a : X) <== set();")

    def test_edge_archetype_and_attributes(self):
        t = parse_script(
            "transformation T;\n"
            "MatchReplace (a := $[0]) "
            '-->{E | arch = tup($[0], $[1]), text = "x"} (b := $[1])'
            " <== set();"
        )
        edge = t.ops[0].template.edges[0]
        assert edge.arch is not None
        assert edge.assigns == (("text", edge.assigns[0][1]),)

    def test_unknown_alias(self):
        with pytest.raises(ParseError, match="unknown template alias"):
            parse_script(
                "transformation T;\n"
                "CreateSubgraph (a : X | arch = $) -->{E} b <== set();"
            )

    def test_duplicate_alias(self):
        with pytest.raises(ParseError, match="duplicate template alias"):
            parse_script(
                "transformation T;\n"
                "CreateSubgraph (a : X | arch = $), (a := $[0]) <== set();"
            )

    @pytest.mark.parametrize("template, message", [
        ("(a := $[0]) -->{E} (a := $[1])",
         "duplicate template alias 'a' (line 2, column 34)"),
        ("(a := $[0]) -->{E} b",
         "unknown template alias 'b' (line 2, column 33)"),
    ], ids=["duplicate", "unknown"])
    def test_alias_errors_point_at_the_alias(self, template, message):
        with pytest.raises(ParseError) as info:
            parse_script(
                f"transformation T;\nMatchReplace {template} <== set(1);")
        assert str(info.value) == message

    def test_bare_alias_endpoints(self):
        t = parse_script(
            "transformation T;\n"
            "MatchReplace (a := $[0]), (b := $[1]), a -->{E} b <== set();"
        )
        edge = t.ops[0].template.edges[0]
        assert (edge.start_alias, edge.end_alias) == ("a", "b")

    def test_ref_attribute_assignments(self):
        t = parse_script(
            "transformation T;\n"
            'MatchReplace (a := $, text = "x") <== set();'
        )
        assert t.ops[0].template.vertices[0].assigns[0][0] == "text"


def test_embedded_queries_may_use_trace_maps():
    t = parse_script(
        "transformation T;\n"
        "CreateVertices X <== keySet(img_X);"
    )
    assert isinstance(t.ops[0].query, qn.Call)


def test_embedded_queries_reject_unbound_names():
    with pytest.raises(ParseError, match="unbound"):
        parse_script("transformation T;\nCreateVertices X <== mystery;")


def test_unbound_names_in_scripts_name_their_position():
    with pytest.raises(ParseError) as info:
        parse_script("transformation T;\n"
                     "CreateVertices N <== from x : V with y = 1 report x end;")
    assert str(info.value) == "unbound variable 'y' (line 2, column 38)"


def test_comments_allowed():
    t = parse_script(
        "// a script\ntransformation T;\n"
        "CreateVertices X <== set(1); // make one\n"
    )
    assert len(t.ops) == 1
