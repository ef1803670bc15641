"""Tokenizer shared by the query, script, schema, and graph-file parsers."""

from __future__ import annotations

import re
from typing import NamedTuple

from gretlite.errors import ParseError

# Longest first: regex alternation takes the first alternative that
# matches, so maximal munch falls out of the order.
_SYMBOLS = (
    "<>--", "<==", "-->", "<->", "<--", ":=", "<=", ">=", "<>", "++", "->",
    "(", ")", "{", "}", "[", "]", ",", ";", ":", ".", "|", "?", "$", "!",
    "+", "-", "*", "/", "%", "=", "<", ">",
)

_STRING_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}

# One alternative per token kind, tried in order.  Numbers use decimal
# digits only (`\d`); other digits such as '²' are word characters, so
# they may continue an identifier but never start a token.  BADSTRING
# matches the longest well-formed prefix of a string that has no closing
# quote, so the character after it tells which error to report.
_TOKEN = re.compile(
    r"(?P<NEWLINE>\n)"
    r"|(?P<SKIP>[^\S\n]+|//[^\n]*)"
    r"|(?P<NUMBER>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<IDENT>\w+)"
    r'|(?P<STRING>"(?:[^"\\\n]|\\["\\ntr])*")'
    r'|(?P<BADSTRING>"(?:[^"\\\n]|\\["\\ntr])*)'
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


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
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
            append(Token(kind, word, word, line, column))
        elif kind == "NUMBER":
            try:
                value = int(word) if word.isdecimal() else float(word)
            except ValueError:  # beyond int()'s digit limit
                raise ParseError(
                    f"number literal too long ({len(word)} digits)",
                    line, column) from None
            append(Token(kind, word, value, line, column))
        elif kind == "STRING":
            value = _ESCAPE.sub(lambda e: _STRING_ESCAPES[e[1]], word[1:-1])
            append(Token(kind, word, value, line, column))
        elif kind == "BADSTRING":
            bad_escape = text.startswith("\\", m.end())
            raise ParseError(
                "invalid string escape" if bad_escape
                else "unterminated string literal", line, column)
        else:
            raise ParseError(f"unexpected character {word[0]!r}", line, column)
    append(Token("EOF", "", None, line, len(text) - line_start + 1))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual expect/peek helpers."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self, ahead: int = 0) -> Token:
        # next() never moves past EOF, so only a look-ahead can overrun
        try:
            return self._tokens[self._pos + ahead]
        except IndexError:
            return self._tokens[-1]

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
