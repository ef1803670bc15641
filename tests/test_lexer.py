import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gretlite import corpus
from gretlite.errors import ParseError
from gretlite.formats import load_schema
from gretlite.lexer import _SYMBOLS, TokenStream, string_value, tokenize
from gretlite.query.parser import parse_query
from gretlite.transform.parser import parse_script

import oracles

_PIECES = (
    *_SYMBOLS, "ab", "_x", "V", "é", "x1", "0", "7", "12", ".", "e", "E",
    "+", "-", '"', '\\"', "\\n", "\\\\", "\\q", "//", "\n", " ", "\t",
    " ", "²", "½", "٣",
)
_TEXT = st.lists(
    st.sampled_from(_PIECES) | st.text(max_size=2), max_size=30,
).map("".join)


def _fields(tokens):
    # the value's type matters too: 1 and 1.0 compare equal
    return [(*t, type(t.value)) for t in tokens]


def _error(fn, text):
    with pytest.raises(ParseError) as info:
        fn(text)
    return str(info.value), info.value.line, info.value.column


def assert_matches_oracle(text):
    """`tokenize` agrees with the character-by-character reference.

    Two differences are expected.  The reference crashes with ValueError
    when `str.isdigit` lets a non-decimal digit such as '²' into int();
    `tokenize` never reads one as a number digit.  The reference also
    leaves the column on the start of a trailing `//` comment, so its
    EOF column is wrong there; `tokenize` counts the comment.
    """
    try:
        expected = oracles.naive_tokenize(text)
    except ParseError:
        assert _error(tokenize, text) == _error(oracles.naive_tokenize, text)
        return
    except ValueError:
        assert any(c.isdigit() and not c.isdecimal() for c in text)
        try:
            tokenize(text)
        except ParseError:
            pass
        return
    actual = tokenize(text)
    assert _fields(actual[:-1]) == _fields(expected[:-1])
    eof, old_eof = actual[-1], expected[-1]
    last_line = text.rsplit("\n", 1)[-1]
    assert (eof.kind, eof.line) == ("EOF", old_eof.line)
    assert eof.column == len(last_line) + 1
    if "//" not in last_line:
        assert eof.column == old_eof.column


@settings(max_examples=400, deadline=None)
@given(_TEXT)
@example('x // trailing')
@example('"a\\tb" 1.5e+3 2e 3.x <>-->  ٣')
def test_tokenize_matches_oracle(text):
    assert_matches_oracle(text)


@pytest.mark.parametrize("name", [
    p.name for p in sorted(corpus.default_root().iterdir())
    if p.suffix in (".gls", ".glg", ".grq", ".grt")
])
def test_corpus_files_match_oracle(name):
    assert_matches_oracle(corpus.read_text(name))


def test_eof_column_counts_a_trailing_comment():
    assert tokenize("a // note")[-1][3:] == (1, 10)


@pytest.mark.parametrize("text, column", [
    ("count(V{Node}) + ²", 18), ("1²", 2), ("1.²", 3), ("x ½", 3),
])
def test_non_decimal_digit_is_a_parse_error(text, column):
    with pytest.raises(ParseError, match="unexpected character") as info:
        tokenize(text)
    assert (info.value.line, info.value.column) == (1, column)


def test_overlong_integer_is_a_parse_error():
    with pytest.raises(ParseError, match="too long") as info:
        tokenize("x = " + "9" * 5000)
    assert (info.value.line, info.value.column) == (1, 5)


def test_peek_past_the_end_returns_eof():
    ts = TokenStream(tokenize("a"))
    assert ts.peek(5).kind == "EOF"
    ts.next()
    assert ts.next().kind == ts.peek(1).kind == "EOF"


@pytest.mark.parametrize("literal, value", [
    ('"plain"', "plain"), ('""', ""), ('"a\\\\b"', "a\\b"),
    ('"say \\"hi\\""', 'say "hi"'), ('"1\\n2"', "1\n2"),
    ('"\\t"', "\t"), ('"a\\rb"', "a\rb"),
])
def test_string_literal_values(literal, value):
    # one literal per escape, and literals without a backslash
    assert string_value(literal) == value
    assert tokenize(literal)[0].value == value


@pytest.mark.parametrize("text, items", [
    ("a ;", ("a",)), ("a, b ;", ("a", "b")), ("a, b, c ;", ("a", "b", "c")),
    ("a, b c", ("a", "b")),
])
def test_separated_stops_at_the_token_after_the_last_item(text, items):
    ts = TokenStream(tokenize(text))
    assert ts.separated(lambda: ts.expect_ident().text) == items
    assert ts.next().text == text[-1]


# A trailing ',' fails in the item reader, at the token after it: one row
# per comma list of the parsers.
@pytest.mark.parametrize("parse, text, message", [
    (parse_query, "f(1,)",
     "expected an expression, found ')' (line 1, column 5)"),
    (parse_query, "V{A,}",
     "expected identifier, found '}' (line 1, column 5)"),
    (parse_query, "from x : V, report x end",
     "'report' is reserved and cannot be declared (line 1, column 13)"),
    (parse_query, "from x : V report x, end",
     "unexpected 'end', found 'end' (line 1, column 22)"),
    (load_schema, "schema s;\nvertexclass A;\nvertexclass B : A, {",
     "expected identifier, found '{' (line 3, column 20)"),
    (parse_script,
     "transformation t;\nCreateSubgraph (a : T | arch = 1), <== 1;",
     "expected identifier, found '<==' (line 2, column 36)"),
    (parse_script,
     "transformation t;\nCreateSubgraph (a : T | arch = 1, ) <== 1;",
     "expected identifier, found ')' (line 2, column 35)"),
], ids=["arguments", "classes", "declarations", "projections", "supertypes",
        "template", "assignments"])
def test_trailing_comma_fails_in_the_item_reader(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


def test_fail_without_a_token_points_at_the_next_token():
    ts = TokenStream(tokenize("a\n  b"))
    first = ts.next()
    with pytest.raises(ParseError) as info:
        ts.fail("bad")
    assert (str(info.value), info.value.line, info.value.column) == (
        "bad (line 2, column 3)", 2, 3)
    with pytest.raises(ParseError, match=r"^bad \(line 1, column 1\)$"):
        ts.fail("bad", first)


def test_fail_in_an_except_block_hides_the_exception_it_handles():
    ts = TokenStream(tokenize("a"))
    with pytest.raises(ParseError) as info:
        try:
            {}["a"]
        except KeyError:
            ts.fail("bad")
    assert info.value.__suppress_context__
    assert info.value.__cause__ is None


@pytest.mark.parametrize("text, message", [
    ("x", "expected a number, found 'x' (line 1, column 1)"),
    ("", "expected a number, found 'end of input' (line 1, column 1)"),
])
def test_expect_names_what_it_expected(text, message):
    ts = TokenStream(tokenize(text))
    with pytest.raises(ParseError) as info:
        ts.expect("a number", ("*",), kinds=("NUMBER",))
    assert str(info.value) == message


def test_expect_takes_a_listed_text_or_kind():
    ts = TokenStream(tokenize("* 7 ;"))
    assert ts.expect("a bound", ("*",), kinds=("NUMBER",)).text == "*"
    assert ts.expect("a bound", ("*",), kinds=("NUMBER",)).value == 7
    assert ts.peek().text == ";"
