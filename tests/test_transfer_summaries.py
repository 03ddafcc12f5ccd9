"""Tests for the S_t transfer-summary table (Algorithm 2's cache),
kept as the test-only oracle ``tests/transfer_summaries_oracle.py``.

The key property: summary-based discovery finds exactly the
(source, sink) pairs the path-enumerating sparse collector finds —
differentially fuzzed over generated subjects.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import SubjectSpec, generate_subject
from repro.checkers import NullDereferenceChecker, cwe23_checker
from repro.fusion import prepare_pdg
from repro.lang import compile_source
from repro.sparse import collect_candidates
from transfer_summaries_oracle import TransferSummaryTable, discover_pairs

FIGURE1 = """
fun bar(x) {
  y = x * 2;
  z = y;
  return z;
}
fun foo(a, b) {
  p = null;
  c = bar(a);
  d = bar(b);
  if (c < d) { deref(p); }
  return 0;
}
"""


def collector_pairs(pdg, checker):
    return {(c.source.index, c.sink.index)
            for c in collect_candidates(pdg, checker)}


class TestSummaryContents:
    def test_passthrough_param_reaches_return(self):
        pdg = prepare_pdg(compile_source("fun id(v) { return v; }"))
        table = TransferSummaryTable(pdg, NullDereferenceChecker())
        assert table.summary("id").param_to_return == {0}

    def test_arithmetic_kills_null_param(self):
        pdg = prepare_pdg(compile_source(FIGURE1))
        table = TransferSummaryTable(pdg, NullDereferenceChecker())
        assert table.summary("bar").param_to_return == set()

    def test_taint_param_survives_arithmetic(self):
        pdg = prepare_pdg(compile_source(FIGURE1))
        table = TransferSummaryTable(pdg, cwe23_checker())
        assert 0 in table.summary("bar").param_to_return

    def test_param_to_sink_through_callee(self):
        pdg = prepare_pdg(compile_source("""
        fun consume(p) {
          deref(p);
          return 0;
        }
        fun wrap(q) {
          r = consume(q);
          return r;
        }
        """))
        table = TransferSummaryTable(pdg, NullDereferenceChecker())
        # wrap's parameter reaches the deref inside consume.
        assert any(p == 0 for p, _ in table.summary("wrap").param_to_sink)

    def test_source_inside_function_recorded(self):
        pdg = prepare_pdg(compile_source(FIGURE1))
        table = TransferSummaryTable(pdg, NullDereferenceChecker())
        summary = table.summary("foo")
        assert len(summary.source_to_sink) == 1

    def test_entries_counted(self):
        pdg = prepare_pdg(compile_source(FIGURE1))
        table = TransferSummaryTable(pdg, NullDereferenceChecker())
        assert table.total_entries() >= 1


class TestDiscovery:
    def test_figure1_pair_found(self):
        pdg = prepare_pdg(compile_source(FIGURE1))
        checker = NullDereferenceChecker()
        assert discover_pairs(pdg, checker) == collector_pairs(pdg, checker)

    def test_upward_flow_through_two_levels(self):
        pdg = prepare_pdg(compile_source("""
        fun make() { p = null; return p; }
        fun mid() { q = make(); return q; }
        fun top() { r = mid(); deref(r); return 0; }
        """))
        checker = NullDereferenceChecker()
        pairs = discover_pairs(pdg, checker)
        assert pairs == collector_pairs(pdg, checker)
        assert len(pairs) == 1

    def test_no_sources_no_pairs(self):
        pdg = prepare_pdg(compile_source("fun f(a) { return a + 1; }"))
        assert discover_pairs(pdg, NullDereferenceChecker()) == set()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_agrees_with_path_collector_on_random_subjects(self, seed):
        spec = SubjectSpec("st", seed=seed, num_functions=12, layers=3,
                           avg_stmts=7, call_fanout=2, null_bugs=(2, 1, 1),
                           taint23_bugs=(1, 0, 1))
        subject = generate_subject(spec)
        pdg = prepare_pdg(subject.program)
        for checker in (NullDereferenceChecker(), cwe23_checker()):
            assert discover_pairs(pdg, checker) == \
                collector_pairs(pdg, checker), (seed, checker.name)
