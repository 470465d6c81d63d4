"""Unit tests for the MiniLang lexer."""

import pytest

from repro.lang.errors import LexerError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenType


def types(source):
    return [token.type for token in tokenize(source)]


def values(source):
    return [token.value for token in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_source_yields_eof_only(self):
        assert types("") == [TokenType.EOF]

    def test_whitespace_only_yields_eof(self):
        assert types("   \n\t  \r\n") == [TokenType.EOF]

    def test_integer_literal(self):
        tokens = tokenize("42")
        assert tokens[0].type is TokenType.INT_LITERAL
        assert tokens[0].value == "42"

    def test_identifier(self):
        tokens = tokenize("PedalPos")
        assert tokens[0].type is TokenType.IDENT
        assert tokens[0].value == "PedalPos"

    def test_identifier_with_underscore_and_digits(self):
        tokens = tokenize("_x_1")
        assert tokens[0].type is TokenType.IDENT
        assert tokens[0].value == "_x_1"

    def test_boolean_literals(self):
        tokens = tokenize("true false")
        assert tokens[0].type is TokenType.BOOL_LITERAL
        assert tokens[1].type is TokenType.BOOL_LITERAL

    @pytest.mark.parametrize(
        "keyword,expected",
        [
            ("global", TokenType.GLOBAL),
            ("proc", TokenType.PROC),
            ("int", TokenType.INT),
            ("bool", TokenType.BOOL),
            ("if", TokenType.IF),
            ("else", TokenType.ELSE),
            ("while", TokenType.WHILE),
            ("assert", TokenType.ASSERT),
            ("return", TokenType.RETURN),
            ("skip", TokenType.SKIP),
        ],
    )
    def test_keywords(self, keyword, expected):
        assert types(keyword)[0] is expected

    def test_keyword_prefix_is_identifier(self):
        assert types("iffy")[0] is TokenType.IDENT
        assert types("procedure")[0] is TokenType.IDENT


class TestOperators:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("==", TokenType.EQ),
            ("!=", TokenType.NEQ),
            ("<=", TokenType.LE),
            (">=", TokenType.GE),
            ("&&", TokenType.AND),
            ("||", TokenType.OR),
            ("=", TokenType.ASSIGN),
            ("+", TokenType.PLUS),
            ("-", TokenType.MINUS),
            ("*", TokenType.STAR),
            ("/", TokenType.SLASH),
            ("%", TokenType.PERCENT),
            ("<", TokenType.LT),
            (">", TokenType.GT),
            ("!", TokenType.NOT),
        ],
    )
    def test_single_operator(self, text, expected):
        assert types(text)[0] is expected

    def test_multi_char_operator_is_preferred(self):
        # "<=" must not lex as "<" followed by "="
        assert types("a<=b")[1] is TokenType.LE

    def test_expression_token_sequence(self):
        assert values("x = y + 1;") == ["x", "=", "y", "+", "1", ";"]

    def test_comparison_chain(self):
        assert values("a == b != c") == ["a", "==", "b", "!=", "c"]


class TestCommentsAndPositions:
    def test_line_comment_is_skipped(self):
        assert values("x // comment here\n= 1;") == ["x", "=", "1", ";"]

    def test_block_comment_is_skipped(self):
        assert values("x /* a block\ncomment */ = 1;") == ["x", "=", "1", ";"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexerError):
            tokenize("x /* never closed")

    def test_line_numbers(self):
        tokens = tokenize("x\ny\nz")
        assert [t.line for t in tokens[:-1]] == [1, 2, 3]

    def test_column_numbers(self):
        tokens = tokenize("ab cd")
        assert tokens[0].column == 1
        assert tokens[1].column == 4

    def test_unexpected_character_raises_with_position(self):
        with pytest.raises(LexerError) as excinfo:
            tokenize("x = @;")
        assert excinfo.value.line == 1
        assert excinfo.value.column == 5

    @pytest.mark.parametrize(
        "source, message, line, column",
        [
            ("a\n  b & c", "Unexpected character '&'", 2, 5),
            ("x |", "Unexpected character '|'", 1, 3),
            ("int x;\n\tx = 1 # 2;", "Unexpected character '#'", 2, 8),
            ("x = 1;\r\ny\x0b", "Unexpected character '\\x0b'", 2, 2),
            ("// note\n  y /* a\n b */ z /* c", "Unterminated block comment", 3, 9),
        ],
    )
    def test_errors_keep_their_messages_and_positions(self, source, message, line, column):
        with pytest.raises(LexerError) as raised:
            tokenize(source)
        error = raised.value
        assert (error.message, error.line, error.column) == (message, line, column)
        assert str(error) == f"{message} (line {line}, column {column})"

    def test_positions_after_comments_and_carriage_returns(self):
        tokens = tokenize("a /* x\n y */ b\r\n// c\n\tcd12 3x !=")
        assert [(token.type.name, token.value, token.line, token.column) for token in tokens] == [
            ("IDENT", "a", 1, 1),
            ("IDENT", "b", 2, 7),
            ("IDENT", "cd12", 4, 2),
            ("INT_LITERAL", "3", 4, 7),
            ("IDENT", "x", 4, 8),
            ("NEQ", "!=", 4, 10),
            ("EOF", "", 4, 12),
        ]


class TestRealisticSources:
    def test_testx_source_tokenizes(self, testx_source):
        token_list = tokenize(testx_source)
        assert token_list[-1].type is TokenType.EOF
        assert any(t.type is TokenType.PROC for t in token_list)

    def test_update_source_tokenizes(self, update_base_source):
        token_list = tokenize(update_base_source)
        identifiers = {t.value for t in token_list if t.type is TokenType.IDENT}
        assert {"update", "PedalPos", "BSwitch", "PedalCmd"} <= identifiers
