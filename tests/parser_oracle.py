"""Reference expression parser for the differential parser tests.

``repro.lang.parser.Parser`` parses binary expressions by precedence
climbing: one loop per operand chain.  :class:`OracleParser` keeps the
grammar-level recursion it replaced, one method call per precedence
level per operand, with comparisons accepted at most once per level.
It stays simple on purpose: it is what the fast path is checked
against (``tests/test_parser_oracle.py``).
"""

from __future__ import annotations

from repro.lang.ast_nodes import BinExpr, Expr, Module
from repro.lang.lexer import TokenKind, tokenize
from repro.lang.parser import _BINOPS, Parser


class OracleParser(Parser):
    """:class:`~repro.lang.parser.Parser` with nested-level expressions."""

    _LEVELS = (
        ("||",),
        ("&&",),
        ("<", "<=", ">", ">=", "==", "!="),
        ("&", "|", "^"),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    )

    def _parse_expr(self) -> Expr:
        return self._parse_level(0)

    def _parse_level(self, level: int) -> Expr:
        if level >= len(self._LEVELS):
            return self._parse_unary()
        ops = self._LEVELS[level]
        expr = self._parse_level(level + 1)
        is_comparison = level == 2
        while self._current.kind is TokenKind.OP and \
                self._current.text in ops:
            token = self._advance()
            rhs = self._parse_level(level + 1)
            expr = BinExpr(_BINOPS[token.text], expr, rhs, token.loc)
            if is_comparison:
                break  # comparisons do not chain (a < b < c is rejected)
        return expr


def oracle_parse(source: str, first_line: int = 1) -> Module:
    """Parse ``source`` with :class:`OracleParser`."""
    return OracleParser(tokenize(source, first_line)).parse_module()
