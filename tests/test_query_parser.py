import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# The operator grammar, pinned level by level: each pair of adjacent
# precedence levels, associativity, and the prefix operators.

def _a(name):
    return n.VarRef(name)


@pytest.mark.parametrize("text, ast", [
    ("a or b ? c : d",
     n.Conditional(n.Binary("or", _a("a"), _a("b")), _a("c"), _a("d"))),
    ("a or b and c",
     n.Binary("or", _a("a"), n.Binary("and", _a("b"), _a("c")))),
    ("a or b or c",
     n.Binary("or", n.Binary("or", _a("a"), _a("b")), _a("c"))),
    ("not a and b",
     n.Binary("and", n.Unary("not", _a("a")), _a("b"))),
    ("not a = b",
     n.Unary("not", n.Binary("=", _a("a"), _a("b")))),
    ("a + b = c",
     n.Binary("=", n.Binary("+", _a("a"), _a("b")), _a("c"))),
    ("a + b * c",
     n.Binary("+", _a("a"), n.Binary("*", _a("b"), _a("c")))),
    ("a - b - c",
     n.Binary("-", n.Binary("-", _a("a"), _a("b")), _a("c"))),
    ("a / b % c",
     n.Binary("%", n.Binary("/", _a("a"), _a("b")), _a("c"))),
    ("- a * b",
     n.Binary("*", n.Unary("neg", _a("a")), _a("b"))),
    ("- a.b",
     n.Unary("neg", n.AttrAccess(_a("a"), "b"))),
    ("- - a", n.Unary("neg", n.Unary("neg", _a("a")))),
    ("not not a", n.Unary("not", n.Unary("not", _a("a")))),
    ("a ? b : c ? d : e",
     n.Conditional(_a("a"), _a("b"), n.Conditional(_a("c"), _a("d"),
                                                   _a("e")))),
])
def test_operator_levels(text, ast):
    assert parse_query(text, extra_names="abcde") == ast


def test_comparisons_do_not_chain():
    with pytest.raises(ParseError) as info:
        parse_query("a = b = c", extra_names="abc")
    assert str(info.value) == \
        "unexpected trailing input, found '=' (line 1, column 7)"


# The precedence of each operator, loosest 0: binary operators associate
# to the left except comparisons, which do not chain, and a prefix
# operator's operand is read at its own level.
_PREFIX = {"not": 2, "neg": 6}
_COMPARISON = 3
_BINARY = {"or": 0, "and": 1,
           **dict.fromkeys(("=", "<>", "<", "<=", ">", ">="), _COMPARISON),
           "+": 4, "-": 4, "++": 4, "*": 5, "/": 5, "%": 5}


def _literal(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _spelled(node, full, loosest=0):
    """`node` as query text: every operator parenthesised if `full`, else
    parenthesised only where the table above needs it."""
    if isinstance(node, n.Literal):
        return _literal(node.value)
    if isinstance(node, n.Unary):
        level = _PREFIX[node.op]
        sign = "-" if node.op == "neg" else node.op
        text = f"{sign} {_spelled(node.operand, full, level)}"
    else:
        level = _BINARY[node.op]
        left = level + (level == _COMPARISON)
        text = (f"{_spelled(node.left, full, left)} {node.op} "
                f"{_spelled(node.right, full, level + 1)}")
    return f"({text})" if full or level < loosest else text


def _height(node):
    if isinstance(node, n.Literal):
        return 0
    if isinstance(node, n.Unary):
        return 1 + _height(node.operand)
    return 1 + max(_height(node.left), _height(node.right))


# a level first, then one of its operators, so that every pair of levels
# meets as often as any other
_BINARY_OPS = st.sampled_from(sorted(set(_BINARY.values()))).flatmap(
    lambda level: st.sampled_from(
        [op for op, op_level in _BINARY.items() if op_level == level]))
_OPERATOR_ASTS = st.recursive(
    st.builds(n.Literal, st.integers(0, 9) | st.booleans()),
    lambda sub: st.builds(n.Unary, st.sampled_from(sorted(_PREFIX)), sub)
    | st.builds(n.Binary, _BINARY_OPS, sub, sub),
    max_leaves=12,
).filter(lambda node: _height(node) <= 12)


@settings(max_examples=300, deadline=None)
@given(_OPERATOR_ASTS)
def test_operator_asts_round_trip(ast):
    assert parse_query(_spelled(ast, full=True)) == ast
    assert parse_query(_spelled(ast, full=False)) == ast


def _frames(text, names=()):
    """The deepest Python call stack that parsing `text` builds, counted
    from `parse_query`'s own frame."""
    depth = peak = 0

    def profile(frame, event, arg):
        nonlocal depth, peak
        if event == "call":
            depth += 1
            peak = max(peak, depth)
        elif event == "return":
            depth -= 1

    sys.setprofile(profile)
    try:
        parse_query(text, extra_names=names)
    finally:
        sys.setprofile(None)
    return peak


# (nesting form, deepest accepted count, frames): parsing the deepest
# query takes at most `frames` Python frames, the count of the parser that
# had one method per precedence level (about 11 frames a parenthesis, 2 a
# `?:`; the table-driven parser takes 1 a `?:`); a call's arguments and a
# comprehension's declarations are read through `TokenStream.separated`,
# one frame more a level
@pytest.mark.parametrize("form, deepest, frames", [
    (lambda k: "(" * k + "1" + ")" * k, 49, 553),
    (lambda k: "not " * k + "true", 49, 63),
    (lambda k: "- " * k + "1", 49, 63),
    (lambda k: "true ? " * k + "1" + " : 2" * k, 49, 112),
    (lambda k: "true ? 1 : " * k + "2", 49, 112),
    (lambda k: "x" + ".a" * k, 49, 14),
    (lambda k: "x(" * k + "1" + ")" * k, 49, 651),
    (lambda k: "from y : " * k + "x" + " report y end" * k, 49, 700),
], ids=["parentheses", "not", "neg", "then", "else", "postfix", "calls",
        "comprehensions"])
def test_deepest_nesting_stays_within_its_stack(form, deepest, frames):
    parse_query(form(deepest), extra_names="x")
    with pytest.raises(ParseError, match="nested more than"):
        parse_query(form(deepest + 1), extra_names="x")
    assert _frames(form(deepest), "x") <= frames
