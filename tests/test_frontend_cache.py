"""The per-function frontend cache against a from-scratch compile.

``AnalysisSession.update_source`` parses and lowers only the functions
an edit changed (``repro.lang.frontend``) and keeps the PDG and engine
when the program is unchanged.  Ground truth is a fresh
``AnalysisSession(source)``: after every accepted edit the hot session's
program text and PDG (vertex indices, edge lists in order, control
parents, call sites) must equal the fresh one's, and a rejected edit
must raise the fresh compile's error and leave the session as it was.
What a changed program carries from the old version must equal what a
cold build derives: each function's PDG fragment, and the store keys
of :class:`~repro.exec.store.ProgramIndex`.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.query.sites as sites
from repro.engine import AnalysisSession, findings_payload
from repro.exec import ArtifactStore
from repro.exec.store import ProgramIndex
from repro.lang import LoweringError, compile_source, tokenize
from repro.lang.frontend import FrontendCache
from repro.lang.scan import block_end, mask_comments, top_level_items
from repro.pdg.builder import walk_function
from repro.query.sites import LineProfile, line_index
from repro.smt.solver import DecidedBy
from ir_pretty import format_program
from test_serve_differential import SEEDS, fuzz_source

#: Appended to every corpus program: ``zq_user`` calls ``zq_flag`` only
#: to bind its result, so flipping ``zq_flag`` between an int and a bool
#: return is accepted and changes the caller's IR.
FLAG_PAIR = """
fun zq_flag(a) {
  return a + 1;
}

fun zq_user(a) {
  t = zq_flag(a);
  return 0;
}
"""

EDIT_KINDS = ("comment", "comment_line", "bump", "flip", "add_function",
              "remove_function", "add_extern", "remove_extern",
              "malformed")


def corpus_source(seed: int) -> str:
    return fuzz_source(seed) + FLAG_PAIR


def pdg_shape(pdg) -> tuple:
    """Everything a from-scratch build fixes about a PDG, in order."""
    vertices = [(v.index, v.function, repr(v.stmt), v.var.type,
                 getattr(pdg.control_parent(v), "index", None))
                for v in pdg.vertices]
    edges = [[(e.src.index, e.dst.index, e.kind.value, e.callsite)
              for e in pdg.data_succs(v)] for v in pdg.vertices]
    callsites = [(site.callsite_id, site.caller, site.callee,
                  site.call_vertex.index)
                 for site in pdg.callsites.values()]
    return vertices, edges, callsites


def function_spans(source: str) -> dict[str, tuple[int, int]]:
    spans = {}
    for item in top_level_items(source):
        if item.kind == "fun":
            name = re.match(r"fun\s+(\w+)", item.key).group(1)
            spans[name] = (item.start, item.end)
    return spans


def apply_edit(source: str, kind: str, n: int) -> str:
    """One edit of ``kind``; ``n`` picks where."""
    lines = source.split("\n")
    masked = mask_comments(source)
    if kind == "comment":
        at = n % len(lines)
        lines[at] += f"  # rev {n} }} fun x( {{"
        return "\n".join(lines)
    if kind == "comment_line":
        at = n % len(lines)
        return "\n".join(lines[:at] + [f"// added {n} {{", ""]
                         + lines[at:])
    if kind == "bump":
        literals = list(re.finditer(r"\b\d+\b", masked))
        hit = literals[n % len(literals)]
        return (source[:hit.start()] + str(int(hit.group()) + 1)
                + source[hit.end():])
    if kind == "flip":
        if "return a + 1;" in source:
            return source.replace("return a + 1;", "return a > 1;", 1)
        return source.replace("return a > 1;", "return a + 1;", 1)
    if kind == "add_function":
        return source + f"\nfun zq_new_{n}(a) {{\n  return a * {n};\n}}\n"
    if kind == "remove_function":
        spans = function_spans(source)
        start, end = spans[sorted(spans)[n % len(spans)]]
        return source[:start] + source[end:]
    if kind == "add_extern":
        return f"extern lib_{n % 4};\n" + source
    if kind == "remove_extern":
        externs = [item for item in top_level_items(source)
                   if item.kind == "extern"]
        if not externs:
            return source
        item = externs[n % len(externs)]
        return source[:item.start] + source[item.end:]
    assert kind == "malformed"
    spans = function_spans(source)
    start, end = spans[sorted(spans)[n % len(spans)]]
    body = source.index("{", start) + 1
    broken = (
        source[:body] + " x = @;" + source[body:],          # lex error
        source[:body] + " x = ;" + source[body:],           # parse error
        source[:body] + " x = true + 1;" + source[body:],   # type error
        source + "\n" + source[start:end] + "\n",           # duplicate
        source[:end - 1] + source[end:],                    # unbalanced
    )
    return broken[n % len(broken)]


def index_fields(index: ProgramIndex) -> tuple:
    return (index.content, index.callees, index.interface, index.position,
            index.site)


def check_edit(session: AnalysisSession, source: str) -> None:
    """Apply ``source`` to ``session`` and compare with a cold one."""
    ProgramIndex.of(session.pdg)  # so that the edit carries store keys
    try:
        fresh = AnalysisSession(source)
    except Exception as error:  # noqa: BLE001 — compared below
        before = (session.generation, session.source, session.pdg,
                  session.engine, session.frontend)
        with pytest.raises(type(error)) as raised:
            session.update_source(source)
        assert str(raised.value) == str(error)
        assert (session.generation, session.source, session.pdg,
                session.engine, session.frontend) == before
        return
    session.update_source(source)
    assert format_program(session.program) == format_program(fresh.program)
    assert session.program.externs == fresh.program.externs
    assert list(session.program.functions) \
        == list(fresh.program.functions)
    assert pdg_shape(session.pdg) == pdg_shape(fresh.pdg)
    pdg = session.pdg
    functions = pdg.program.functions
    for name, function in functions.items():
        assert pdg._fragments[name] == walk_function(function, functions)
    assert pdg.store_index is not None
    assert index_fields(pdg.store_index) == index_fields(ProgramIndex(pdg))


@settings(max_examples=40, deadline=None)
@given(seed=st.sampled_from(SEEDS),
       edits=st.lists(st.tuples(st.sampled_from(EDIT_KINDS),
                                st.integers(0, 10_000)),
                      min_size=1, max_size=6))
def test_edit_sequences_match_from_scratch(seed, edits):
    source = corpus_source(seed)
    session = AnalysisSession(source)
    for kind, n in edits:
        edited = apply_edit(session.source, kind, n)
        check_edit(session, edited)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_edit_kind_on_every_corpus_program(seed):
    session = AnalysisSession(corpus_source(seed))
    for n, kind in enumerate(EDIT_KINDS * 2, seed):
        check_edit(session, apply_edit(session.source, kind, n))


class TestReuse:
    def test_comment_only_edit_keeps_pdg_and_engine(self):
        session = AnalysisSession(corpus_source(0))
        pdg, engine = session.pdg, session.engine
        generation = session.generation
        session.update_source(apply_edit(session.source, "comment", 7))
        assert session.pdg is pdg and session.engine is engine
        assert session.generation == generation + 1
        assert session.frontend.parsed == session.frontend.lowered == ()

    def test_literal_bump_misses_only_the_bumped_function(self):
        source = corpus_source(1)
        session = AnalysisSession(source)
        spans = function_spans(source)
        start, end = spans["fn_l1_1"]
        text = source[start:end]
        bumped = re.sub(r"\b(\d+)\b", lambda m: str(int(m.group()) + 1),
                        text, count=1)
        session.update_source(source[:start] + bumped + source[end:])
        assert session.frontend.parsed == ("fn_l1_1",)
        assert session.frontend.lowered == ("fn_l1_1",)

    def test_changed_return_type_relowers_the_callers(self):
        session = AnalysisSession(corpus_source(2))
        user = session.program.functions["zq_user"]
        session.update_source(apply_edit(session.source, "flip", 0))
        assert session.frontend.parsed == ("zq_flag", "zq_user")
        assert session.frontend.lowered == ("zq_flag", "zq_user")
        relowered = session.program.functions["zq_user"]
        assert relowered is not user
        assert [s.result.type for s in relowered.statements()] \
            != [s.result.type for s in user.statements()]

    def test_changed_callee_arity_relowers_its_callers(self):
        session = AnalysisSession(corpus_source(6))
        source, pdg = session.source, session.pdg
        widened = source.replace("fun zq_flag(a) {", "fun zq_flag(a, b) {")
        call = widened.index("zq_flag(a);")
        line = widened.count("\n", 0, call) + 1
        column = call - widened.rindex("\n", 0, call)
        with pytest.raises(LoweringError) as error:
            session.update_source(widened)
        assert str(error.value) == \
            f"{line}:{column}: call to zq_flag with 1 args, expected 2"
        assert session.source == source and session.pdg is pdg

        session.update_source(widened.replace("zq_flag(a);",
                                              "zq_flag(a, a);"))
        assert session.frontend.lowered == ("zq_flag", "zq_user")
        fresh = AnalysisSession(session.source)
        assert pdg_shape(session.pdg) == pdg_shape(fresh.pdg)

    def test_removed_callee_relowers_its_callers_as_extern_calls(self):
        session = AnalysisSession(corpus_source(3))
        source = session.source
        start, end = function_spans(source)["zq_flag"]
        session.update_source(source[:start] + source[end:])
        assert session.frontend.lowered == ("zq_user",)
        assert "zq_flag" in session.program.externs

    def test_cache_holds_only_the_current_version(self):
        session = AnalysisSession(corpus_source(4))
        for n in range(5):
            session.update_source(apply_edit(session.source, "bump", n))
        session.update_source(apply_edit(session.source,
                                         "remove_function", 0))
        assert len(session.frontend) == len(session.program.functions)

    def test_failed_edit_touches_nothing(self):
        session = AnalysisSession(corpus_source(5))
        frontend, generation = session.frontend, session.generation
        for n in range(5):
            with pytest.raises(Exception):
                session.update_source(apply_edit(session.source,
                                                 "malformed", n))
        assert session.frontend is frontend
        assert session.generation == generation

    def test_line_shifting_comment_rebuilds_the_line_index(self, tmp_path):
        source = corpus_source(6)
        store = str(tmp_path / "store")
        hot = AnalysisSession(source, store=ArtifactStore(store))
        sinks = [n for n, line in enumerate(source.split("\n"), 1)
                 if "deref(" in line]
        for line in sinks:
            hot.query("null-deref", sink=line)
        hot.analyze("null-deref")
        pdg = hot.pdg
        shifted = "# one\n# two\n\n" + source
        hot.update_source(shifted)
        assert hot.pdg is pdg
        cold = AnalysisSession(shifted, store=ArtifactStore(store))

        def findings(session):
            result = session.analyze("null-deref")
            full = findings_payload(result)
            delta = [finding for finding, report
                     in zip(full, result.reports)
                     if report.decided_by is not DecidedBy.STORE]
            return json.dumps([full, delta, result.smt_queries])

        assert findings(hot) == findings(cold)
        for line in sinks:
            hot_verdict = hot.query("null-deref", sink=line + 3)
            cold_verdict = cold.query("null-deref", sink=line + 3)
            assert json.dumps(hot_verdict.to_payload()) \
                == json.dumps(cold_verdict.to_payload())


class TestLineMap:
    """``AnalysisSession.lines`` lexes one item at a time and carries an
    item's profiles while its key, line and column stay."""

    @pytest.fixture
    def lexed(self, monkeypatch):
        """Tokens site resolution lexes, counted by a spy on
        ``repro.query.sites.tokenize``."""
        count = [0]
        real = sites.tokenize

        def counting(source, first_line=1):
            tokens = real(source, first_line)
            count[0] += len(tokens)
            return tokens

        monkeypatch.setattr(sites, "tokenize", counting)
        return count

    @staticmethod
    def check_every_line(session, lexed) -> int:
        """Every line's lookup equals a fresh whole-source index; returns
        the tokens the lookups lexed."""
        expected = line_index(session.source)
        lexed[0] = 0
        got = {line: session.lines.get(line, LineProfile(line))
               for line in range(session.source.count("\n") + 3)}
        assert got == {line: expected.get(line, LineProfile(line))
                       for line in got}
        return lexed[0]

    def test_edits_rebuild_only_what_they_moved_or_changed(self, lexed):
        session = AnalysisSession(corpus_source(7))
        whole = len(sites.tokenize(session.source))
        # Each item is lexed once, with an EOF token of its own.
        assert self.check_every_line(session, lexed) \
            == whole + len(top_level_items(session.source)) - 1
        counts = {}
        for kind, n in (("bump", 3), ("comment", 5), ("comment_line", 2),
                        ("remove_function", 1)):
            session.update_source(apply_edit(session.source, kind, n))
            counts[kind] = self.check_every_line(session, lexed)
        assert counts["comment"] == 0
        assert 0 < counts["bump"] < whole
        assert counts["remove_function"] < whole

    def test_the_first_query_lexes_only_its_item(self, lexed):
        source = corpus_source(8)
        session = AnalysisSession(source)
        sink = next(n for n, line in enumerate(source.split("\n"), 1)
                    if "deref(" in line)
        lexed[0] = 0
        session.query("null-deref", sink=sink)
        (item,) = [item for item in top_level_items(source)
                   if item.line <= sink <= item.line
                   + source.count("\n", item.start, item.end)]
        text = " " * (item.column - 1) + source[item.start:item.end]
        assert lexed[0] == len(sites.tokenize(text))
        lexed[0] = 0
        session.update_source(apply_edit(source, "comment", 3))
        session.query("null-deref", sink=sink)
        assert lexed[0] == 0


class TestScan:
    def test_items_skip_braces_and_headers_in_comments(self):
        source = ("# fun ghost() {\n"
                  "extern a, b; // }\n"
                  "fun f(x) { # }\n"
                  "  return x; }  fun g() { return 1; }\n")
        items = top_level_items(source)
        assert [(i.kind, i.line, i.column) for i in items] == [
            ("extern", 2, 1), ("fun", 3, 1), ("fun", 4, 16)]
        # Each item starts where the lexer puts its first token.
        starts = [(t.text, t.loc.line, t.loc.column)
                  for t in tokenize(source) if t.text in ("extern", "fun")]
        assert starts == [(i.kind, i.line, i.column) for i in items]
        assert items[1].key == "fun f(x) {\n  return x; }"

    @pytest.mark.parametrize("source", [
        "x = 1;", "fun f() { return 1; ", "extern a", "funny f() {}",
        "fun f() {} }"])
    def test_anything_else_at_top_level_is_refused(self, source):
        with pytest.raises(ValueError):
            top_level_items(source)

    def test_block_end_matches_nested_braces(self):
        masked = mask_comments("{ a { b } # }\n c }")
        assert block_end(masked, 0) == len(masked)
        assert block_end("{ {", 0) == -1

    @pytest.mark.parametrize("source", [
        "fun f() { return 1; }\nfun f() { return 2; }",
        "fun f() { x = @; return 1; }",
        "fun f() { return 1 }\n fun g() { ]",
        "fun f() {\n  return true + 1;\n}",
        "fun g(a) { return a; }\nfun f(x) {\n  y = g(x, x);\n"
        "  return y;\n}",
    ])
    def test_errors_are_those_of_a_cold_compile(self, source):
        with pytest.raises(Exception) as cold:
            compile_source(source)
        with pytest.raises(type(cold.value)) as cached:
            FrontendCache().compile(source)
        assert str(cached.value) == str(cold.value)
