"""Token definitions for the MiniLang lexer."""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple


class TokenType(Enum):
    """All token categories produced by :class:`repro.lang.lexer.Lexer`."""

    # Literals and identifiers
    INT_LITERAL = auto()
    BOOL_LITERAL = auto()
    IDENT = auto()

    # Keywords
    GLOBAL = auto()
    PROC = auto()
    INT = auto()
    BOOL = auto()
    IF = auto()
    ELSE = auto()
    WHILE = auto()
    ASSERT = auto()
    RETURN = auto()
    SKIP = auto()

    # Operators
    ASSIGN = auto()          # =
    PLUS = auto()            # +
    MINUS = auto()           # -
    STAR = auto()            # *
    SLASH = auto()           # /
    PERCENT = auto()         # %
    EQ = auto()              # ==
    NEQ = auto()             # !=
    LT = auto()              # <
    LE = auto()              # <=
    GT = auto()              # >
    GE = auto()              # >=
    AND = auto()             # &&
    OR = auto()              # ||
    NOT = auto()             # !

    # Punctuation
    LPAREN = auto()          # (
    RPAREN = auto()          # )
    LBRACE = auto()          # {
    RBRACE = auto()          # }
    COMMA = auto()           # ,
    SEMICOLON = auto()       # ;

    EOF = auto()


#: Reserved words mapped to their token types.
KEYWORDS = {
    "global": TokenType.GLOBAL,
    "proc": TokenType.PROC,
    "int": TokenType.INT,
    "bool": TokenType.BOOL,
    "if": TokenType.IF,
    "else": TokenType.ELSE,
    "while": TokenType.WHILE,
    "assert": TokenType.ASSERT,
    "return": TokenType.RETURN,
    "skip": TokenType.SKIP,
    "true": TokenType.BOOL_LITERAL,
    "false": TokenType.BOOL_LITERAL,
}

#: Multi-character operators, longest first so the lexer matches greedily.
MULTI_CHAR_OPERATORS = [
    ("==", TokenType.EQ),
    ("!=", TokenType.NEQ),
    ("<=", TokenType.LE),
    (">=", TokenType.GE),
    ("&&", TokenType.AND),
    ("||", TokenType.OR),
]

#: Single-character operators and punctuation.
SINGLE_CHAR_TOKENS = {
    "=": TokenType.ASSIGN,
    "+": TokenType.PLUS,
    "-": TokenType.MINUS,
    "*": TokenType.STAR,
    "/": TokenType.SLASH,
    "%": TokenType.PERCENT,
    "<": TokenType.LT,
    ">": TokenType.GT,
    "!": TokenType.NOT,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    ",": TokenType.COMMA,
    ";": TokenType.SEMICOLON,
}


class Token(NamedTuple):
    """A single lexical token (a named tuple: the lexer makes one per token,
    and a tuple is the cheapest immutable record to construct).

    Attributes:
        type: the token category.
        value: the literal text of the token as it appeared in the source.
        line: 1-based source line number.
        column: 1-based source column number.
    """

    type: TokenType
    value: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.type.name}({self.value!r})@{self.line}:{self.column}"
