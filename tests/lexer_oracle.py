"""Reference frontend walks for the differential lexer and site tests.

``oracle_tokens`` is the character-at-a-time lexer that
``repro.lang.lexer`` replaced with one master pattern; ``oracle_profile``
is the whole-token-list walk that the per-version line index of
``repro.query.sites`` replaced.  Both stay simple on purpose: they are
what the fast paths are checked against.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.lang.ast_nodes import SourceLoc
from repro.lang.lexer import (KEYWORDS, OPERATORS, LexError, Token,
                              TokenKind)
from repro.query.sites import LineProfile

_PUNCT = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
}


def oracle_tokens(source: str) -> list[Token]:
    """Tokenize ``source`` one character at a time."""
    return list(_tokens(source))


def _tokens(source: str) -> Iterator[Token]:
    line = 1
    col = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        loc = SourceLoc(line, col)

        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#" or source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue

        if ch.isdecimal():
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            yield Token(TokenKind.INT, source[i:j], loc)
            col += j - i
            i = j
            continue

        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            yield Token(kind, text, loc)
            col += j - i
            i = j
            continue

        if ch in _PUNCT:
            yield Token(_PUNCT[ch], ch, loc)
            i += 1
            col += 1
            continue

        for op in OPERATORS:
            if source.startswith(op, i):
                yield Token(TokenKind.OP, op, loc)
                i += len(op)
                col += len(op)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", loc)

    yield Token(TokenKind.EOF, "", SourceLoc(line, col))


def oracle_profile(tokens: list[Token], line: int) -> LineProfile:
    """Describe what ``line`` mentions by walking every token."""
    profile = LineProfile(line)
    current: Optional[str] = None
    pending: Optional[str] = None
    after_fun = False
    depth = 0
    for position, token in enumerate(tokens):
        if token.kind is TokenKind.KEYWORD and token.text == "fun":
            after_fun = True
        elif after_fun and token.kind is TokenKind.IDENT:
            pending, after_fun = token.text, False
        elif token.kind is TokenKind.LBRACE:
            if depth == 0 and pending is not None:
                current, pending = pending, None
            depth += 1
        elif token.kind is TokenKind.RBRACE:
            depth -= 1
            if depth <= 0:
                current, depth = None, 0
        if token.loc.line != line:
            continue
        if profile.function is None and current is not None:
            profile.function = current
        if token.kind is TokenKind.IDENT and not after_fun:
            following = tokens[position + 1] \
                if position + 1 < len(tokens) else None
            if following is not None:
                if following.kind is TokenKind.LPAREN:
                    profile.called.append(token.text)
                    profile.called_cols.append(token.loc.column)
                elif following.kind is TokenKind.OP \
                        and following.text == "=":
                    profile.defined.append(token.text)
    return profile
