import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gretlite import corpus
from gretlite.errors import ParseError
from gretlite.lexer import _SYMBOLS, TokenStream, string_value, tokenize

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
