"""Lexer for the surface small language.

One compiled master pattern, applied line by line: each match skips
blanks and takes one token or comment.  Identifiers start with a letter
(``str.isalpha``) or ``_`` and continue with ``\\w``; integers are runs
of Unicode decimal digits (``\\d``, exactly what ``int()`` accepts).
Lines end only at ``\\n``; ``\\r``, spaces and tabs are one column each.
A ``#``/``//`` comment does not advance the column, so end of input
after a trailing comment sits at the comment's column.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.lang.ast_nodes import SourceLoc


class LexError(Exception):
    def __init__(self, message: str, loc: SourceLoc) -> None:
        super().__init__(f"{loc}: {message}")
        self.loc = loc


class TokenKind(enum.Enum):
    IDENT = "ident"
    INT = "int"
    KEYWORD = "keyword"
    OP = "op"
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    COMMA = ","
    SEMI = ";"
    EOF = "eof"


KEYWORDS = frozenset({"fun", "extern", "if", "else", "while", "return",
                      "null", "true", "false"})

#: Multi-character operators, longest first so maximal munch works.
OPERATORS = ("<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
             "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^")

#: A ``#`` or ``//`` line comment, up to (not including) the newline.
COMMENT = re.compile(r"(?:#|//)[^\n]*")


class Token(NamedTuple):
    kind: TokenKind
    text: str
    loc: SourceLoc

    def __repr__(self) -> str:
        return f"{self.kind.name}({self.text!r})@{self.loc}"


_PUNCT = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
}

#: Kind of every fixed spelling: keywords, punctuation and operators.
_FIXED = {**dict.fromkeys(KEYWORDS, TokenKind.KEYWORD), **_PUNCT,
          **dict.fromkeys(OPERATORS, TokenKind.OP)}

_WORD, _INT, _COMMENT = 1, 2, 3
_MASTER = re.compile(
    r"[ \t\r]*(?:"
    # A word may also start with a non-decimal numeric that ``\w``
    # admits (``²``, ``½``); ``tokenize`` rejects those.
    r"([^\W\d]\w*)"
    r"|(\d+)"
    rf"|({COMMENT.pattern})"
    r"|([(){},;]|" + "|".join(map(re.escape, OPERATORS)) + ")"
    r"|([^ \t\r]))")

# Tokens are built with ``tuple.__new__``, skipping the named tuple's
# Python-level constructor: the lexer makes two tuples per token.
_new = tuple.__new__


def tokenize(source: str, first_line: int = 1) -> list[Token]:
    """The tokens of ``source``, ending with one ``EOF`` token.

    ``first_line`` numbers the first line of ``source`` (a slice of a
    larger file lexes at its real lines).  Raises :class:`LexError` at
    the first illegal character.  The whole source is lexed before a
    parser reads a token, so a lex error wins over any parse error.
    """
    tokens: list[Token] = []
    append = tokens.append
    # Locals: a ``TokenKind.X`` lookup is slow on Python 3.11.
    ident, integer = TokenKind.IDENT, TokenKind.INT
    # ``split`` gives at least one line, so ``line`` and ``end_col``
    # are bound when the loop ends.
    for line, text in enumerate(source.split("\n"), first_line):
        end_col = len(text) + 1
        for match in _MASTER.finditer(text):
            group = match.lastindex
            token = match[group]
            col = match.start(group) + 1
            kind = _FIXED.get(token)
            if kind is None:
                if group == _INT:
                    kind = integer
                elif group == _WORD and (token[0] == "_"
                                         or token[0].isalpha()):
                    kind = ident
                elif group == _COMMENT:
                    end_col = col
                    continue
                else:
                    raise LexError(f"unexpected character {token[0]!r}",
                                   SourceLoc(line, col))
            append(_new(Token, (kind, token, _new(SourceLoc, (line, col)))))
    append(Token(TokenKind.EOF, "", SourceLoc(line, end_col)))
    return tokens
