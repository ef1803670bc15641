import pytest

from gretlite.errors import ParseError
from gretlite.lexer import TokenStream, tokenize
from gretlite.query import nodes as n
from gretlite.query.parser import parse_embedded, parse_query
from gretlite.transform import ops
from gretlite.values import UNDEFINED


def test_set_constructor():
    ast = parse_query("set(1)")
    assert ast == n.Call("set", None, (n.Literal(1),))


def test_minimal_comprehension():
    ast = parse_query("from x : V{Node} report x end")
    assert isinstance(ast, n.Comprehension)
    assert ast.decls == (
        n.DeclGroup(("x",), n.ElementSet("V", (n.ClassSpec("Node"),))),
    )
    assert ast.condition is None
    assert ast.kind == "list"


def test_missing_with_expression_is_a_syntax_error():
    with pytest.raises(ParseError):
        parse_query("from x : V{Node} with report x end")


def test_shared_domain_declarations():
    ast = parse_query("from a, b : V{Node}, c : V{Edge_} reportSet a end")
    assert [g.names for g in ast.decls] == [("a", "b"), ("c",)]


def test_report_map():
    ast = parse_query("from x : V{Node} reportMap x -> x.name end")
    assert ast.kind == "map"
    assert ast.exprs[1] == n.AttrAccess(n.VarRef("x"), "name")


def test_multi_expression_report_rows():
    ast = parse_query("from x : V{Node} report x, x.name end")
    assert len(ast.exprs) == 2


def test_unbound_variable_is_static_error():
    with pytest.raises(ParseError, match="unbound variable 'y'"):
        parse_query("from x : V{Node} report y end")


@pytest.mark.parametrize("query, column", [
    ("from x : x report 1 end", 10),  # a group does not see its own names
    ("tup(from x : V report x end, x)", 30),  # names end at `end`
    ("x + (", 1),  # errors come in source order
])
def test_unbound_variables_name_their_position(query, column):
    with pytest.raises(ParseError) as info:
        parse_query(query)
    assert str(info.value) == f"unbound variable 'x' (line 1, column {column})"
    assert (info.value.line, info.value.column) == (1, column)


def test_later_declarations_see_earlier_names():
    parse_query("from x : V{Node}, y : x -->{Edge_LinksToSrc} report y end")
    with pytest.raises(ParseError, match="unbound"):
        parse_query("from x : y, y : V{Node} report x end")


def test_trace_variables_need_opt_in():
    with pytest.raises(ParseError, match="unbound"):
        parse_query("img_Node")
    stream = TokenStream(tokenize("img_Node"))
    assert parse_embedded(stream, ops.trace_view) == n.VarRef("img_Node")


def test_trace_view_names():
    assert ops.trace_view("img_Node") == ("img", "Node")
    assert ops.trace_view("arch_") == ("arch", "")
    for name in ("img", "arch", "imgs_Node", "Node_img", "x"):
        assert ops.trace_view(name) is None


def test_extra_names():
    assert parse_query("matches", extra_names=["matches"]) == n.VarRef("matches")


def test_dollar_is_always_statically_fine():
    assert parse_query("$") == n.DollarRef()
    assert parse_query("$[0]") == n.Index(n.DollarRef(), n.Literal(0))


def test_path_steps_bind_tighter_than_comparison():
    ast = parse_query("x -->{A} = x <--{B}", extra_names=["x"])
    assert isinstance(ast, n.Binary) and ast.op == "="
    assert isinstance(ast.left, n.PathApply)
    assert ast.left.steps == (n.PathStep("out", (n.ClassSpec("A"),)),)
    assert ast.right.steps == (n.PathStep("in", (n.ClassSpec("B"),)),)


def test_consecutive_steps_form_one_path():
    ast = parse_query("x <--{A} -->{B}", extra_names=["x"])
    assert isinstance(ast, n.PathApply)
    assert [s.direction for s in ast.steps] == ["in", "out"]


def test_aggregation_and_either_steps():
    ast = parse_query("x <>--{C} <->", extra_names=["x"])
    assert [s.direction for s in ast.steps] == ["agg", "both"]


def test_exact_class_marker():
    ast = parse_query("V{Node!}")
    assert ast.classes == (n.ClassSpec("Node", exact=True),)


def test_bare_v_and_e():
    assert parse_query("V") == n.ElementSet("V", ())
    assert parse_query("E") == n.ElementSet("E", ())


def test_map_literal():
    ast = parse_query('map(1 -> "x", 2 -> "y")')
    assert isinstance(ast, n.MapLit) and len(ast.entries) == 2
    assert parse_query("map()") == n.MapLit(())


def test_degree_with_class_arguments():
    ast = parse_query("degree{A, B}(x)", extra_names=["x"])
    assert ast.classes == (n.ClassSpec("A"), n.ClassSpec("B"))


def test_conditional_chains_right():
    ast = parse_query("true ? 1 : false ? 2 : 3")
    assert isinstance(ast.else_expr, n.Conditional)


def test_undefined_literal():
    assert parse_query("undefined") == n.Literal(UNDEFINED)


def test_concat_and_arithmetic_precedence():
    ast = parse_query('1 + 2 * 3 ++ "x"')
    assert ast.op == "++"
    assert ast.left == n.Binary("+", n.Literal(1),
                                n.Binary("*", n.Literal(2), n.Literal(3)))


def test_comments_and_whitespace():
    ast = parse_query("// leading\ncount(V{Node}) // trailing\n")
    assert isinstance(ast, n.Call)


def test_error_position_reported():
    with pytest.raises(ParseError) as err:
        parse_query("from x :\n   report x end")
    assert err.value.line == 2


def test_trailing_input_rejected():
    with pytest.raises(ParseError, match="trailing"):
        parse_query("1 2")


def test_reserved_words_cannot_be_declared():
    with pytest.raises(ParseError, match="reserved"):
        parse_query("from end : V{Node} report end end")
