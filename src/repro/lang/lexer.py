"""A master-pattern lexer for MiniLang."""

from __future__ import annotations

import re
from typing import List

from repro.lang.errors import LexerError
from repro.lang.tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    SINGLE_CHAR_TOKENS,
    Token,
    TokenType,
)

#: Operator and punctuation text -> token type.
_OPERATORS = {**dict(MULTI_CHAR_OPERATORS), **SINGLE_CHAR_TOKENS}

#: One alternative per lexical class, tried in order at each position.  The
#: multi-character operators come before the single characters so ``<=`` is
#: not read as ``<`` ``=``; ``//`` and ``/*`` come before ``/``.  A ``/*``
#: with no closing ``*/`` is ``unterminated``; any other character no
#: alternative takes is ``unexpected``.
_TOKEN = re.compile(
    r"(?P<space>[ \t\r\n]+)"
    r"|(?P<comment>//[^\n]*|/\*.*?\*/)"
    r"|(?P<unterminated>/\*)"
    r"|(?P<number>\d+)"
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<operator>"
    + "|".join(re.escape(text) for text, _ in MULTI_CHAR_OPERATORS)
    + "|["
    + re.escape("".join(SINGLE_CHAR_TOKENS))
    + "])"
    r"|(?P<unexpected>.)",
    re.DOTALL,
)


class Lexer:
    """Converts MiniLang source text into a stream of :class:`Token` objects.

    Supports ``//`` line comments and ``/* ... */`` block comments.  Lines
    and columns are 1-based; only ``\\n`` ends a line.  A number is a run of
    decimal digits; a word starts with a letter or an underscore and goes on
    with word characters (``re``'s Unicode ``\\w``).
    """

    def __init__(self, source: str):
        self.source = source

    def tokenize(self) -> List[Token]:
        """Return the full list of tokens, terminated by an EOF token."""
        tokens: List[Token] = []
        line = 1
        line_start = 0  # index of the current line's first character
        for match in _TOKEN.finditer(self.source):
            kind = match.lastgroup
            text = match.group()
            start = match.start()
            if kind == "space" or kind == "comment":
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = start + text.rindex("\n") + 1
                continue
            column = start - line_start + 1
            if kind == "word":
                tokens.append(Token(KEYWORDS.get(text, TokenType.IDENT), text, line, column))
            elif kind == "number":
                tokens.append(Token(TokenType.INT_LITERAL, text, line, column))
            elif kind == "operator":
                tokens.append(Token(_OPERATORS[text], text, line, column))
            elif kind == "unterminated":
                raise LexerError("Unterminated block comment", line, column)
            else:
                raise LexerError(f"Unexpected character {text!r}", line, column)
        tokens.append(Token(TokenType.EOF, "", line, len(self.source) - line_start + 1))
        return tokens


def tokenize(source: str) -> List[Token]:
    """Convenience wrapper: tokenize ``source`` and return the token list."""
    return Lexer(source).tokenize()
