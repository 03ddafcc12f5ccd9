"""The master-pattern lexer and the line index against their oracles.

``tests/lexer_oracle.py`` keeps the character-at-a-time lexer and the
whole-token-list line walk.  Over arbitrary Unicode text and over
grammar-shaped text, the fast lexer must yield the same tokens (kind,
text, location, the ``EOF`` location included) or raise the same
``LexError``; over the 25-seed fuzz corpus, the line index must give
the oracle's ``LineProfile`` for every line, and a session's per-item
lookup (``AnalysisSession.lines``) must give the whole-source index's.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexer_oracle import oracle_profile, oracle_tokens
import repro.lang.frontend as frontend
from repro.bench import SubjectSpec, generate_subject
from repro.engine import AnalysisSession
from repro.lang import LexError, tokenize
from repro.lang.lexer import KEYWORDS, OPERATORS
from repro.lang.scan import top_level_items
from repro.query.sites import LineMap, LineProfile, line_index


def outcome(lex, source):
    try:
        return lex(source)
    except LexError as error:
        return ("LexError", str(error))


def assert_same_tokens(source):
    assert outcome(tokenize, source) == outcome(oracle_tokens, source)


#: Fragments that sit on the lexer's boundaries: keywords and near
#: keywords, ``/`` vs ``//``, ``<`` vs ``<<``, comments with and without
#: a newline, ``\r\n``, tabs, and digits/letters outside ASCII.
FRAGMENTS = sorted(KEYWORDS) + list(OPERATORS) + [
    "iffy", "_x", "x1", "a²", "x_y", "0", "42", "٣", "²", "①", "½", "é",
    "(", ")", "{", "}", ",", ";", "/", "//", "<", "<<", "<<=", "#",
    "# note", "// note", "# {", "\n", "\r\n", "\r", "\t", " ", "  ",
    "$", "@", "\x0b", "\xa0",
]


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_any_text_lexes_like_the_oracle(source):
    assert_same_tokens(source)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=40))
def test_grammar_shaped_text_lexes_like_the_oracle(fragments):
    assert_same_tokens("".join(fragments))


@pytest.mark.parametrize("source", [
    "", "a  ", "a # c", "a // c\n", "x = ²;", "3²", "x3²", "²ab",
    "a\r\nb\t c", "a//b", "a/b", "a <<= b", "fun f() { return 0; } # end",
])
def test_boundary_cases_lex_like_the_oracle(source):
    assert_same_tokens(source)


def fuzz_source(seed):
    spec = SubjectSpec("line-index", seed=seed, num_functions=5,
                       layers=2, avg_stmts=5, call_fanout=2,
                       null_bugs=(1, 1, 1))
    return generate_subject(spec).source


def annotated(source):
    """``source`` with comment-only lines, comments after headers and
    closing braces, and two whole functions on one line, so the index
    meets every kind of line."""
    out = ["# leading comment", ""]
    for text in source.splitlines():
        if text.startswith("fun "):
            out.append("// header comment")
            text += "  # header"
        elif text.strip() == "}":
            text += " // closed"
        out.append(text)
    out.append("fun one(a) { b = two(a); return b; } "
               "fun two(c) { return c; }")
    out.append("# trailing comment")
    return "\n".join(out)


def profiles_match(source):
    tokens = oracle_tokens(source)
    index = line_index(source)
    kinds = {"outside": 0, "header": 0, "comment": 0, "after_close": 0}
    lines = source.split("\n")
    for line in range(1, len(lines) + 2):
        expected = oracle_profile(tokens, line)
        got = index.get(line, LineProfile(line))
        assert got == expected, f"line {line}: {got} != {expected}"
        text = lines[line - 1].strip() if line <= len(lines) else ""
        if expected.function is None:
            kinds["outside"] += 1
        if text.startswith("fun "):
            kinds["header"] += 1
        if text.startswith(("#", "//")):
            kinds["comment"] += 1
        if line > 1 and lines[line - 2].strip().startswith("}"):
            kinds["after_close"] += 1
    return kinds


@pytest.mark.parametrize("seed", range(25))
def test_line_index_matches_the_token_walk(seed):
    source = fuzz_source(seed)
    profiles_match(source)
    kinds = profiles_match(annotated(source))
    assert all(kinds.values()), kinds


#: An ``extern`` before and after a ``fun`` on one line.
SHARED_LINE = ("extern ext_a; fun three(d) { e = ext_a(d); return e; } "
               "extern ext_b;")


def lookups_match(lines, source):
    """``lines.get`` equals the whole-source index on every line."""
    index = line_index(source)
    for line in range(source.count("\n") + 3):
        expected = index.get(line, LineProfile(line))
        got = lines.get(line, LineProfile(line))
        assert got == expected, f"line {line}: {got} != {expected}"


@pytest.mark.parametrize("seed", range(25))
def test_per_item_lookup_matches_the_whole_source_index(seed):
    raw = fuzz_source(seed)
    shared = annotated(raw) + "\n" + SHARED_LINE
    for source in (raw, annotated(raw), shared):
        session = AnalysisSession(source)
        assert session.frontend.items is not None
        lookups_match(session.lines, source)


def test_a_source_the_scan_cannot_cut_is_indexed_whole(monkeypatch):
    stray = "x = 1;\n" + annotated(fuzz_source(0))
    with pytest.raises(ValueError):
        top_level_items(stray)
    lookups_match(LineMap(stray, None), stray)

    # A compiling source reaches the fallback only when the scan fails;
    # the frontend cache then compiles whole and keeps no items.
    def refuse(source):
        raise ValueError("refused")

    monkeypatch.setattr(frontend, "top_level_items", refuse)
    source = annotated(fuzz_source(1)) + "\n" + SHARED_LINE
    session = AnalysisSession(source)
    assert session.frontend.items is None
    lookups_match(session.lines, source)
