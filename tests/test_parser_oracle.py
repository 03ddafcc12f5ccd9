"""Precedence climbing against the nested-level parser it replaced.

``tests/parser_oracle.py`` keeps the one-call-per-grammar-level
expression parser.  On generated expressions (well-formed ones, and
arbitrary token soups with chained comparisons, unary operators and
stray parentheses) and on the fuzz corpus, ``repro.lang.parse`` must
give an AST with the oracle's ``repr`` (locations included) or raise
the oracle's ``ParseError`` message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parser_oracle import oracle_parse
from repro.lang import parse
from repro.lang.parser import ParseError
from test_lexer_oracle import fuzz_source

BINARY = ["||", "&&", "<", "<=", ">", ">=", "==", "!=", "&", "|", "^",
          "<<", ">>", "+", "-", "*", "/", "%"]
UNARY = ["-", "!"]
ATOMS = ["a", "b", "7", "true", "null", "g(a)", "g(a, b < c)", "g()"]


def outcome(parser, source):
    try:
        return repr(parser(source))
    except ParseError as error:
        return ("ParseError", str(error))


def assert_same_parse(expr):
    source = f"fun f(a, b, c) {{\n  x = {expr};\n  g({expr}, 1);\n}}\n"
    assert outcome(parse, source) == outcome(oracle_parse, source)


def expressions():
    """Well-formed expressions: any operator mix, unary chains, parens."""
    return st.recursive(
        st.sampled_from(ATOMS),
        lambda inner: st.one_of(
            st.builds(lambda lhs, op, rhs: f"{lhs} {op} {rhs}",
                      inner, st.sampled_from(BINARY), inner),
            st.builds(lambda op, operand: f"{op}{operand}",
                      st.sampled_from(UNARY), inner),
            inner.map(lambda operand: f"({operand})")),
        max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(expressions())
def test_generated_expressions_parse_like_the_oracle(expr):
    assert_same_parse(expr)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(ATOMS + BINARY + UNARY + ["(", ")"]),
                min_size=1, max_size=15))
def test_token_soup_parses_like_the_oracle(tokens):
    assert_same_parse(" ".join(tokens))


@pytest.mark.parametrize("expr, column", [
    ("a < b < c", 13), ("a && b < c < d", 18), ("a == b != c", 14),
    ("!a < b >= c", 14),
])
def test_comparisons_do_not_chain(expr, column):
    source = f"fun f(a, b, c, d) {{\n  x = {expr};\n}}\n"
    found = expr.split()[-2]
    with pytest.raises(ParseError) as error:
        parse(source)
    assert str(error.value) == f"2:{column}: expected ';', found '{found}'"
    assert_same_parse(expr)


@pytest.mark.parametrize("expr", [
    "a < b && c", "a + b * c - d", "-a * -b", "!!(a < b) || c == d && e",
    "a << 1 + 2 & b", "(a < b) < c", "a | b ^ c & d", "a - b - c",
])
def test_precedence_and_associativity(expr):
    assert_same_parse(expr)


@pytest.mark.parametrize("seed", range(10))
def test_fuzz_corpus_parses_like_the_oracle(seed):
    source = fuzz_source(seed)
    assert repr(parse(source)) == repr(oracle_parse(source))
