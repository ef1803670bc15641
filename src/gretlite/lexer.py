"""Tokenizer shared by the query, script, schema, and graph-file parsers."""

from __future__ import annotations

import re
from typing import Iterable, Iterator, NamedTuple

from gretlite.errors import ParseError

# Longest first: regex alternation takes the first alternative that
# matches, so maximal munch falls out of the order.
_SYMBOLS = (
    "<>--", "<==", "-->", "<->", "<--", ":=", "<=", ">=", "<>", "++", "->",
    "(", ")", "{", "}", "[", "]", ",", ";", ":", ".", "|", "?", "$", "!",
    "+", "-", "*", "/", "%", "=", "<", ">",
)

_STRING_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}

# Token rules, shared with the statement-level `.glg` reader in `formats`.
# Numbers use decimal digits only (`\d`); other digits such as '²' are
# word characters, so they may continue an identifier but never start a
# token (an identifier must also start with a letter or '_', which
# `scan` checks).  IDENT never ends inside a word, even where a pattern
# that embeds it backtracks.
NUMBER = r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
IDENT = r"[^\W\d]\w*(?!\w)"
_UNCLOSED_STRING = r'"(?:[^"\\\n]|\\["\\ntr])*'
STRING = _UNCLOSED_STRING + '"'

# One alternative per token kind, tried in order.  BADSTRING matches the
# longest well-formed prefix of a string that has no closing quote, so the
# character after it tells which error to report.
_TOKEN = re.compile(
    r"(?P<NEWLINE>\n)"
    r"|(?P<SKIP>[^\S\n]+|//[^\n]*)"
    rf"|(?P<NUMBER>{NUMBER})"
    rf"|(?P<IDENT>{IDENT})"
    rf"|(?P<STRING>{STRING})"
    rf"|(?P<BADSTRING>{_UNCLOSED_STRING})"
    r"|(?P<SYMBOL>" + "|".join(map(re.escape, _SYMBOLS)) + ")"
    r"|(?P<MISMATCH>.)"
)
_ESCAPE = re.compile(r"\\(.)")


class Token(NamedTuple):
    kind: str  # IDENT, NUMBER, STRING, SYMBOL, EOF
    text: str
    value: object
    line: int
    column: int


def string_value(literal: str) -> str:
    """The value of a well-formed string literal, quotes included."""
    body = literal[1:-1]
    return body if "\\" not in body else _ESCAPE.sub(
        lambda e: _STRING_ESCAPES[e[1]], body)


def scan(text: str, pos: int = 0) -> Iterator[Token]:
    """Tokens of `text` from offset `pos` on, ending with EOF, made one
    at a time: a lexical fault raises only once the scan reaches it."""
    line = text.count("\n", 0, pos) + 1
    line_start = text.rfind("\n", 0, pos) + 1
    for m in _TOKEN.finditer(text, pos):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        if kind == "NEWLINE":
            line += 1
            line_start = m.end()
            continue
        word = m.group()
        column = m.start() - line_start + 1
        if kind == "SYMBOL" or (
                kind == "IDENT" and (word[0].isalpha() or word[0] == "_")):
            yield Token(kind, word, word, line, column)
        elif kind == "NUMBER":
            try:
                value = int(word) if word.isdecimal() else float(word)
            except ValueError:  # beyond int()'s digit limit
                raise ParseError(
                    f"number literal too long ({len(word)} digits)",
                    line, column) from None
            yield Token(kind, word, value, line, column)
        elif kind == "STRING":
            yield Token(kind, word, string_value(word), line, column)
        elif kind == "BADSTRING":
            bad_escape = text.startswith("\\", m.end())
            raise ParseError(
                "invalid string escape" if bad_escape
                else "unterminated string literal", line, column)
        else:
            raise ParseError(f"unexpected character {word[0]!r}", line, column)
    yield Token("EOF", "", None, line, len(text) - line_start + 1)


def tokenize(text: str) -> list[Token]:
    return list(scan(text))


class TokenStream:
    """Cursor over tokens with the usual expect/peek helpers."""

    def __init__(self, tokens: Iterable[Token]):
        # `tokens` is read only as far as the parser looks, so from a lazy
        # scan a lexical fault after the first syntax fault is never reached
        self._tokens: list[Token] = []
        self._rest = iter(tokens)
        self._pos = 0

    def peek(self, ahead: int = 0) -> Token:
        i, tokens = self._pos + ahead, self._tokens
        while i >= len(tokens):
            tok = next(self._rest, None)
            if tok is None:  # past EOF, which next() never passes: EOF again
                return tokens[-1]
            tokens.append(tok)
        return tokens[i]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def at_symbol(self, *symbols: str) -> bool:
        tok = self.peek()
        return tok.kind == "SYMBOL" and tok.text in symbols

    def at_ident(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and (not words or tok.text in words)

    def at_eof(self) -> bool:
        return self.peek().kind == "EOF"

    def expect_symbol(self, symbol: str) -> Token:
        if not self.at_symbol(symbol):
            self.error(f"expected '{symbol}'")
        return self.next()

    def expect_ident(self, word: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT" or (word is not None and tok.text != word):
            self.error(f"expected {word or 'identifier'}")
        return self.next()

    def expect_eof(self):
        if not self.at_eof():
            self.error("unexpected trailing input")

    def error(self, message: str):
        tok = self.peek()
        found = tok.text if tok.kind != "EOF" else "end of input"
        raise ParseError(f"{message}, found '{found}'", tok.line, tok.column)
