"""Recursive-descent parser for the surface small language.

Grammar (EBNF)::

    module    := (fundecl | externdecl)*
    externdecl:= "extern" IDENT ("," IDENT)* ";"
    fundecl   := "fun" IDENT "(" params? ")" block
    params    := IDENT ("," IDENT)*
    block     := "{" statement* "}"
    statement := IDENT "=" expr ";"
               | "if" "(" expr ")" block ("else" (block | ifstmt))?
               | "while" "(" expr ")" block
               | "return" expr? ";"
               | expr ";"
    expr      := or_expr
    or_expr   := and_expr ("||" and_expr)*
    and_expr  := cmp_expr ("&&" cmp_expr)*
    cmp_expr  := bit_expr (("<"|"<="|">"|">="|"=="|"!=") bit_expr)?
    bit_expr  := shift_expr (("&"|"|"|"^") shift_expr)*
    shift_expr:= add_expr (("<<"|">>") add_expr)*
    add_expr  := mul_expr (("+"|"-") mul_expr)*
    mul_expr  := unary (("*"|"/"|"%") unary)*
    unary     := ("-"|"!") unary | primary
    primary   := INT | "null" | "true" | "false"
               | IDENT "(" args? ")" | IDENT | "(" expr ")"
"""

from __future__ import annotations

from typing import Optional

from repro.lang.ast_nodes import (AssignStmt, BinExpr, BoolLit, CallExpr,
                                  Expr, ExprStmt, ExternDecl, FunctionDecl,
                                  IfStmt, IntLit, Module, Name, NullLit,
                                  ReturnStmt, SourceLoc, Statement,
                                  UnaryExpr, WhileStmt)
from repro.lang.ir import BinOp
from repro.lang.lexer import Token, TokenKind, tokenize


class ParseError(Exception):
    def __init__(self, message: str, loc: SourceLoc) -> None:
        super().__init__(f"{loc}: {message}")
        self.loc = loc


_BINOPS = {op.value: op for op in BinOp}
#: Binding strength of each binary operator (all are left-associative).
_PRECEDENCE = {"||": 1, "&&": 2, "<": 3, "<=": 3, ">": 3, ">=": 3, "==": 3,
               "!=": 3, "&": 4, "|": 4, "^": 4, "<<": 5, ">>": 5, "+": 6,
               "-": 6, "*": 7, "/": 7, "%": 7}
_COMPARISON, _TIGHTEST = 3, 7

# Token kinds as module globals.  On Python 3.11 a ``TokenKind.X``
# lookup takes the metaclass's slow attribute path (``EnumType`` defines
# ``__getattr__``), and the parser tests kinds several times per token.
(_IDENT, _INT, _KEYWORD, _OP, _LPAREN, _RPAREN, _LBRACE, _RBRACE, _COMMA,
 _SEMI, _EOF) = (TokenKind.IDENT, TokenKind.INT, TokenKind.KEYWORD,
                 TokenKind.OP, TokenKind.LPAREN, TokenKind.RPAREN,
                 TokenKind.LBRACE, TokenKind.RBRACE, TokenKind.COMMA,
                 TokenKind.SEMI, TokenKind.EOF)


class Parser:
    """Walks a token list ending in ``EOF`` by index."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._current = tokens[0]

    # ------------------------------------------------------------------ #
    # Token helpers
    # ------------------------------------------------------------------ #

    def _advance(self) -> Token:
        token = self._current
        if token.kind is not _EOF:
            self._pos += 1
            self._current = self._tokens[self._pos]
        return token

    def _check(self, kind: TokenKind, text: Optional[str] = None) -> bool:
        token = self._current
        return token.kind is kind and (text is None or token.text == text)

    def _match(self, kind: TokenKind, text: Optional[str] = None) -> bool:
        if self._check(kind, text):
            self._advance()
            return True
        return False

    def _expect(self, kind: TokenKind, text: Optional[str] = None) -> Token:
        if not self._check(kind, text):
            want = text if text is not None else kind.value
            raise ParseError(
                f"expected {want!r}, found {self._current.text!r}",
                self._current.loc)
        return self._advance()

    # ------------------------------------------------------------------ #
    # Declarations
    # ------------------------------------------------------------------ #

    def parse_module(self) -> Module:
        """Parse the whole token list."""
        module = Module()
        while not self._check(_EOF):
            if self._check(_KEYWORD, "extern"):
                module.externs.extend(self._parse_extern())
            elif self._check(_KEYWORD, "fun"):
                module.functions.append(self._parse_function())
            else:
                raise ParseError(
                    f"expected 'fun' or 'extern', found "
                    f"{self._current.text!r}", self._current.loc)
        return module

    def _parse_extern(self) -> list[ExternDecl]:
        loc = self._expect(_KEYWORD, "extern").loc
        decls = [ExternDecl(self._expect(_IDENT).text, loc)]
        while self._match(_COMMA):
            decls.append(ExternDecl(self._expect(_IDENT).text, loc))
        self._expect(_SEMI)
        return decls

    def _parse_function(self) -> FunctionDecl:
        loc = self._expect(_KEYWORD, "fun").loc
        name = self._expect(_IDENT).text
        self._expect(_LPAREN)
        params: list[str] = []
        if not self._check(_RPAREN):
            params.append(self._expect(_IDENT).text)
            while self._match(_COMMA):
                params.append(self._expect(_IDENT).text)
        self._expect(_RPAREN)
        body = self._parse_block()
        if len(set(params)) != len(params):
            raise ParseError(f"duplicate parameter in {name}", loc)
        return FunctionDecl(name, params, body, loc)

    # ------------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------------ #

    def _parse_block(self) -> list[Statement]:
        self._expect(_LBRACE)
        body: list[Statement] = []
        while not self._check(_RBRACE):
            body.append(self._parse_statement())
        self._expect(_RBRACE)
        return body

    def _parse_statement(self) -> Statement:
        token = self._current

        if token.kind is _KEYWORD and token.text == "if":
            return self._parse_if()
        if token.kind is _KEYWORD and token.text == "while":
            loc = self._advance().loc
            self._expect(_LPAREN)
            cond = self._parse_expr()
            self._expect(_RPAREN)
            return WhileStmt(cond, self._parse_block(), loc)
        if token.kind is _KEYWORD and token.text == "return":
            loc = self._advance().loc
            value = None if self._check(_SEMI) else self._parse_expr()
            self._expect(_SEMI)
            return ReturnStmt(value, loc)

        # Assignment (IDENT "=" ...) vs expression statement.  An IDENT
        # is never the last token, so the one after it exists.
        if token.kind is _IDENT and \
                self._tokens[self._pos + 1].text == "=":
            target = self._advance().text
            self._advance()  # '='
            value = self._parse_expr()
            self._expect(_SEMI)
            return AssignStmt(target, value, token.loc)

        expr = self._parse_expr()
        self._expect(_SEMI)
        return ExprStmt(expr, token.loc)

    def _parse_if(self) -> IfStmt:
        loc = self._expect(_KEYWORD, "if").loc
        self._expect(_LPAREN)
        cond = self._parse_expr()
        self._expect(_RPAREN)
        then_body = self._parse_block()
        else_body: list[Statement] = []
        if self._match(_KEYWORD, "else"):
            if self._check(_KEYWORD, "if"):
                else_body = [self._parse_if()]
            else:
                else_body = self._parse_block()
        return IfStmt(cond, then_body, else_body, loc)

    # ------------------------------------------------------------------ #
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------ #

    def _parse_expr(self, min_prec: int = 1) -> Expr:
        """An expression whose operators bind at least ``min_prec``.  An
        operator is taken only if it binds no tighter than the previous
        one (tighter ones went to its right operand), and never a
        comparison right after one: ``a < b < c`` does not parse."""
        expr = self._parse_unary()
        prev = _TIGHTEST
        while True:
            token = self._current
            prec = _PRECEDENCE.get(token.text)  # only OP tokens match
            if prec is None or not min_prec <= prec <= prev \
                    or prec == prev == _COMPARISON:
                return expr
            self._advance()
            expr = BinExpr(_BINOPS[token.text], expr,
                           self._parse_expr(prec + 1), token.loc)
            prev = prec

    def _parse_unary(self) -> Expr:
        token = self._current
        if token.kind is _OP and token.text in ("-", "!"):
            self._advance()
            return UnaryExpr(token.text, self._parse_unary(), token.loc)
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._current

        if token.kind is _INT:
            self._advance()
            return IntLit(int(token.text), token.loc)
        if token.kind is _KEYWORD and token.text == "null":
            self._advance()
            return NullLit(token.loc)
        if token.kind is _KEYWORD and token.text in ("true", "false"):
            self._advance()
            return BoolLit(token.text == "true", token.loc)
        if token.kind is _LPAREN:
            self._advance()
            expr = self._parse_expr()
            self._expect(_RPAREN)
            return expr
        if token.kind is _IDENT:
            self._advance()
            if self._match(_LPAREN):
                args: list[Expr] = []
                if not self._check(_RPAREN):
                    args.append(self._parse_expr())
                    while self._match(_COMMA):
                        args.append(self._parse_expr())
                self._expect(_RPAREN)
                return CallExpr(token.text, args, token.loc)
            return Name(token.text, token.loc)

        raise ParseError(f"unexpected token {token.text!r}", token.loc)


def parse(source: str, first_line: int = 1) -> Module:
    """Parse surface source text into a :class:`Module`; ``first_line``
    numbers the first line of ``source``."""
    return Parser(tokenize(source, first_line)).parse_module()
