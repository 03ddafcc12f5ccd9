"""Tests for the lexer, parser, and surface AST."""

import pytest

from repro.lang import LexError, ParseError, parse, tokenize
from repro.lang.ast_nodes import (AssignStmt, BinExpr, CallExpr, ExprStmt,
                                  IfStmt, IntLit, Name, NullLit, ReturnStmt,
                                  SourceLoc, UnaryExpr, WhileStmt)
from repro.lang.ir import BinOp
from repro.lang.lexer import TokenKind


class TestLexer:
    def test_keywords_vs_identifiers(self):
        tokens = tokenize("fun iffy if")
        assert [t.kind for t in tokens[:3]] == [
            TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.KEYWORD]

    def test_maximal_munch_operators(self):
        tokens = tokenize("a <= b << c == d")
        ops = [t.text for t in tokens if t.kind is TokenKind.OP]
        assert ops == ["<=", "<<", "=="]

    def test_comments_ignored(self):
        tokens = tokenize("a # comment\nb // other\nc")
        idents = [t.text for t in tokens if t.kind is TokenKind.IDENT]
        assert idents == ["a", "b", "c"]

    def test_line_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].loc.line == 1
        assert tokens[1].loc.line == 2
        assert tokens[1].loc.column == 3

    def test_illegal_character(self):
        with pytest.raises(LexError):
            tokenize("a $ b")

    def test_tokens_are_hashable_named_tuples(self):
        [token, eof] = tokenize("x")
        assert token == (TokenKind.IDENT, "x", (1, 1))
        assert repr(token) == "IDENT('x')@1:1"
        assert str(token.loc) == repr(token.loc) == "1:1"
        assert str(eof.loc) == "1:2"
        assert len({token, tokenize("x")[0], eof}) == 2

    def test_eof_after_trailing_comment_sits_at_the_comment(self):
        assert tokenize("a # note")[-1].loc == SourceLoc(1, 3)
        assert tokenize("a # note\n")[-1].loc == SourceLoc(2, 1)

    def test_unicode_decimal_digits_are_integers(self):
        [f] = parse("fun f() { x = ٣; return x; }").functions
        assert f.body[0].value == IntLit(3, SourceLoc(1, 15))

    @pytest.mark.parametrize("digit", ["²", "①"])
    def test_non_decimal_digits_are_rejected_at_their_column(self, digit):
        with pytest.raises(LexError) as excinfo:
            tokenize(f"x = {digit};")
        assert excinfo.value.loc == SourceLoc(1, 5)
        assert str(excinfo.value) == f"1:5: unexpected character {digit!r}"


class TestErrorOrder:
    def test_later_lex_error_wins_over_earlier_parse_error(self):
        source = ("fun f(a) {\n"
                  "  x = = 1;\n"
                  + "  y = a;\n" * 6
                  + "  z = $;\n"
                  "}\n")
        with pytest.raises(ParseError):
            parse(source.replace("$", "1"))
        with pytest.raises(LexError) as excinfo:
            parse(source)
        assert excinfo.value.loc == SourceLoc(9, 7)


class TestParserDeclarations:
    def test_function_with_params(self):
        module = parse("fun f(a, b, c) { return a; }")
        [f] = module.functions
        assert f.name == "f" and f.params == ["a", "b", "c"]

    def test_extern_list(self):
        module = parse("extern gets, fopen;")
        assert [e.name for e in module.externs] == ["gets", "fopen"]

    def test_duplicate_params_rejected(self):
        with pytest.raises(ParseError):
            parse("fun f(a, a) { return 0; }")

    def test_junk_at_top_level_rejected(self):
        with pytest.raises(ParseError):
            parse("x = 1;")


class TestParserStatements:
    def test_assignment(self):
        [f] = parse("fun f() { x = 1 + 2; return x; }").functions
        assign = f.body[0]
        assert isinstance(assign, AssignStmt) and assign.target == "x"
        assert isinstance(assign.value, BinExpr)
        assert assign.value.op is BinOp.ADD

    def test_if_else_chain(self):
        src = """
        fun f(a) {
          if (a < 1) { x = 1; } else if (a < 2) { x = 2; } else { x = 3; }
          return x;
        }
        """
        [f] = parse(src).functions
        outer = f.body[0]
        assert isinstance(outer, IfStmt)
        [inner] = outer.else_body
        assert isinstance(inner, IfStmt)
        assert len(inner.else_body) == 1

    def test_while(self):
        [f] = parse("fun f(n) { while (n < 3) { n = n + 1; } return n; }"
                    ).functions
        loop = f.body[0]
        assert isinstance(loop, WhileStmt)
        assert isinstance(loop.body[0], AssignStmt)

    def test_bare_call_statement(self):
        [f] = parse("fun f(c) { send(c); return 0; }").functions
        stmt = f.body[0]
        assert isinstance(stmt, ExprStmt)
        assert isinstance(stmt.expr, CallExpr)

    def test_return_without_value(self):
        [f] = parse("fun f() { return; }").functions
        assert isinstance(f.body[0], ReturnStmt)
        assert f.body[0].value is None


class TestParserExpressions:
    @staticmethod
    def expr_of(src_expr):
        [f] = parse(f"fun f(a, b, c) {{ x = {src_expr}; return x; }}"
                    ).functions
        return f.body[0].value

    def test_precedence_mul_over_add(self):
        expr = self.expr_of("a + b * c")
        assert expr.op is BinOp.ADD
        assert isinstance(expr.rhs, BinExpr) and expr.rhs.op is BinOp.MUL

    def test_precedence_cmp_over_logic(self):
        expr = self.expr_of("a < b && b < c")
        assert expr.op is BinOp.AND
        assert expr.lhs.op is BinOp.LT and expr.rhs.op is BinOp.LT

    def test_parentheses_override(self):
        expr = self.expr_of("(a + b) * c")
        assert expr.op is BinOp.MUL
        assert isinstance(expr.lhs, BinExpr) and expr.lhs.op is BinOp.ADD

    def test_comparison_does_not_chain(self):
        with pytest.raises(ParseError):
            self.expr_of("a < b < c;")

    def test_unary_ops(self):
        expr = self.expr_of("-a + !b")
        assert isinstance(expr.lhs, UnaryExpr) and expr.lhs.op == "-"
        assert isinstance(expr.rhs, UnaryExpr) and expr.rhs.op == "!"

    def test_null_literal(self):
        assert isinstance(self.expr_of("null"), NullLit)

    def test_call_with_nested_args(self):
        expr = self.expr_of("g(a + 1, h(b))")
        assert isinstance(expr, CallExpr) and expr.callee == "g"
        assert len(expr.args) == 2
        assert isinstance(expr.args[1], CallExpr)

    def test_associativity_left(self):
        expr = self.expr_of("a - b - c")
        assert expr.op is BinOp.SUB
        assert isinstance(expr.lhs, BinExpr)
        assert isinstance(expr.lhs.lhs, Name) and expr.lhs.lhs.ident == "a"

    def test_shift_precedence(self):
        expr = self.expr_of("a << 1 + 2")
        # '+' binds tighter than '<<'.
        assert expr.op is BinOp.SHL
        assert isinstance(expr.rhs, BinExpr) and expr.rhs.op is BinOp.ADD

    def test_int_literal(self):
        expr = self.expr_of("42")
        assert isinstance(expr, IntLit) and expr.value == 42
