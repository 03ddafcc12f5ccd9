"""Focused tests for the baseline engines' internals."""

import pytest

from repro.baselines import InferEngine, PinpointEngine
from repro.baselines.infer import MAX_HOPS
from repro.baselines.pinpoint import make_pinpoint
from repro.checkers import NullDereferenceChecker, cwe23_checker
from repro.fusion import prepare_pdg
from repro.lang import compile_source
from repro.limits import Budget

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


class TestSummaryCaching:
    def test_expansions_cached_across_queries(self):
        pdg = prepare_pdg(compile_source(FIGURE1 + """
        fun foo2(a, b) {
          q = null;
          c = bar(a);
          d = bar(b);
          if (c < d) { deref(q); }
          return 0;
        }
        """))
        engine = PinpointEngine(pdg)
        engine.analyze(NullDereferenceChecker())
        # bar's summary is cached once and reused by both foo and foo2.
        cached_functions = {key[0] for key in engine._expanded_summaries}
        assert "bar" in cached_functions

    def test_cached_nodes_accounted(self):
        pdg = prepare_pdg(compile_source(FIGURE1))
        engine = PinpointEngine(pdg)
        engine.analyze(NullDereferenceChecker())
        assert engine.cached_condition_nodes > 0
        total, conditions = engine._memory_snapshot()
        assert conditions >= engine.cached_condition_nodes
        assert total > conditions  # graph units included

    def test_cloning_multiplies_condition_size(self):
        # bar called twice: the expanded condition contains two renamed
        # copies of bar's return-value condition.
        pdg = prepare_pdg(compile_source(FIGURE1))
        engine = PinpointEngine(pdg)
        engine.analyze(NullDereferenceChecker())
        manager = engine.transformer.manager
        names = {v.payload for key, constraints in
                 engine._expanded_summaries.items()
                 for c in constraints for v in c.free_vars()}
        clones = {n for n in names if isinstance(n, str) and "@" in n}
        assert clones, "expected @site-renamed callee variables"


class TestAbstractionRefinement:
    def test_ar_reaches_same_verdicts(self):
        pdg = prepare_pdg(compile_source(FIGURE1))
        plain = PinpointEngine(pdg).analyze(NullDereferenceChecker())
        ar = make_pinpoint(pdg, "ar").analyze(NullDereferenceChecker())
        assert len(plain.bugs) == len(ar.bugs) == 1

    def test_ar_issues_more_queries_than_plain(self):
        pdg = prepare_pdg(compile_source(FIGURE1))
        plain_engine = PinpointEngine(pdg)
        plain_engine.analyze(NullDereferenceChecker())
        ar_engine = make_pinpoint(pdg, "ar")
        ar_engine.analyze(NullDereferenceChecker())
        assert ar_engine.smt.queries > plain_engine.smt.queries

    def test_ar_unsat_at_shallow_level_is_final(self):
        # The guard is locally contradictory: AR settles it at depth 0.
        pdg = prepare_pdg(compile_source("""
        fun f(a) {
          p = null;
          if (a != a) { deref(p); }
          return 0;
        }
        """))
        engine = make_pinpoint(pdg, "ar")
        result = engine.analyze(NullDereferenceChecker())
        assert result.bugs == []
        assert engine.smt.queries == 1


class TestQeVariant:
    def test_qe_fails_on_memory_with_tight_budget(self):
        pdg = prepare_pdg(compile_source(FIGURE1))
        engine = make_pinpoint(pdg, "qe",
                               budget=Budget(max_memory_units=2_000))
        result = engine.analyze(NullDereferenceChecker())
        assert result.failure == "memory"

    def test_qe_succeeds_with_generous_budget(self):
        pdg = prepare_pdg(compile_source(FIGURE1))
        engine = make_pinpoint(pdg, "qe",
                               budget=Budget(max_memory_units=10**9))
        result = engine.analyze(NullDereferenceChecker())
        assert result.failure is None
        assert len(result.bugs) == 1


class TestInferInternals:
    def test_summaries_computed_bottom_up(self):
        pdg = prepare_pdg(compile_source(FIGURE1))
        engine = InferEngine(pdg)
        engine.analyze(NullDereferenceChecker())
        assert "bar" in engine.summaries and "foo" in engine.summaries
        # Nullness dies through bar's arithmetic: no facts reach its
        # return under the null checker.
        assert engine.summaries["bar"].returns == set()

    def test_passthrough_summary_carries_param(self):
        pdg = prepare_pdg(compile_source(
            "fun id(v) { return v; }\n"
            "fun f() { p = null; q = id(p); deref(q); return 0; }"))
        engine = InferEngine(pdg)
        result = engine.analyze(NullDereferenceChecker())
        assert any(fact[0] == "param"
                   for fact in engine.summaries["id"].returns)
        assert len(result.bugs) == 1

    def test_dense_state_units_grow_with_program(self):
        small = prepare_pdg(compile_source(FIGURE1))
        engine_small = InferEngine(small)
        engine_small.analyze(NullDereferenceChecker())
        big = prepare_pdg(compile_source(FIGURE1 * 1))
        # Same program: deterministic accounting.
        engine_big = InferEngine(big)
        engine_big.analyze(NullDereferenceChecker())
        assert engine_small.state_units == engine_big.state_units > 0

    @pytest.mark.parametrize("levels,bugs", [(MAX_HOPS - 1, 1),
                                             (MAX_HOPS + 1, 0)])
    def test_hop_bound(self, levels, bugs):
        """A null returned through ``levels`` call levels is reported
        only within the :data:`MAX_HOPS` depth bound."""
        src = ["fun l0() { p = null; return p; }"]
        for i in range(1, levels):
            src.append(f"fun l{i}() {{ q = l{i-1}(); return q; }}")
        src.append(f"fun top() {{ r = l{levels - 1}(); deref(r); "
                   "return 0; }")
        pdg = prepare_pdg(compile_source("\n".join(src)))
        engine = InferEngine(pdg)
        assert len(engine.analyze(NullDereferenceChecker()).bugs) == bugs

    def test_taint_propagates_through_binary_for_cwe(self):
        pdg = prepare_pdg(compile_source("""
        fun f() {
          t = gets();
          u = t * 3 + 1;
          fopen(u);
          return 0;
        }
        """))
        result = InferEngine(pdg).analyze(cwe23_checker())
        assert len(result.bugs) == 1

    def test_sanitizer_respected(self):
        pdg = prepare_pdg(compile_source("""
        fun f() {
          t = gets();
          u = sanitize_path(t);
          fopen(u);
          return 0;
        }
        """))
        result = InferEngine(pdg).analyze(cwe23_checker())
        assert result.bugs == []
