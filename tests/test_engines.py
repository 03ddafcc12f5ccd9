"""End-to-end engine tests: Fusion, Pinpoint (+variants), Infer.

The paper's key functional claim (Section 5.1): "Since they work with the
same precision and the only difference is whether they employ the fused
design, the bugs they report are the same."  These tests check that
agreement on a battery of programs, plus the qualitative differences
(Infer's false positives, the variants' overhead).
"""

import pytest

from repro.baselines import InferEngine, PinpointEngine, make_pinpoint
from repro.checkers import (NullDereferenceChecker, cwe23_checker,
                            cwe402_checker)
from repro.fusion import (FusionConfig, FusionEngine, GraphSolverConfig,
                          prepare_pdg)
from repro.lang import compile_source

PROGRAMS = {
    "straight": """
        fun f() {
          p = null;
          deref(p);
          return 0;
        }
    """,
    "feasible_guard": """
        fun f(a) {
          p = null;
          if (a > 20) { deref(p); }
          return 0;
        }
    """,
    "infeasible_guard": """
        fun f(a) {
          p = null;
          b = a < a;
          if (b) { deref(p); }
          return 0;
        }
    """,
    "figure1": """
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
    """,
    "interproc_null_return": """
        fun make() {
          p = null;
          return p;
        }
        fun f() {
          q = make();
          deref(q);
          return 0;
        }
    """,
    "contradictory_guards": """
        fun f(a) {
          p = null;
          if (a > 10) {
            if (a < 5) { deref(p); }
          }
          return 0;
        }
    """,
    "const_propagation_kills": """
        fun f() {
          p = null;
          a = 1;
          b = a > 5;
          if (b) { deref(p); }
          return 0;
        }
    """,
}

#: Expected number of *feasible* null-deref bugs per program.
EXPECTED_BUGS = {
    "straight": 1,
    "feasible_guard": 1,
    "infeasible_guard": 0,
    "figure1": 1,
    "interproc_null_return": 1,
    "contradictory_guards": 0,
    "const_propagation_kills": 0,
}


def bug_keys(result):
    return {(r.source.index, r.sink.index) for r in result.bugs}


@pytest.fixture(params=sorted(PROGRAMS))
def program_case(request):
    pdg = prepare_pdg(compile_source(PROGRAMS[request.param]))
    return request.param, pdg


class TestFusionVerdicts:
    def test_expected_bug_counts(self, program_case):
        name, pdg = program_case
        result = FusionEngine(pdg).analyze(NullDereferenceChecker())
        assert result.failure is None
        assert len(result.bugs) == EXPECTED_BUGS[name], name


class TestEngineAgreement:
    def test_fusion_matches_pinpoint(self, program_case):
        name, pdg = program_case
        fusion = FusionEngine(pdg).analyze(NullDereferenceChecker())
        pinpoint = PinpointEngine(pdg).analyze(NullDereferenceChecker())
        assert bug_keys(fusion) == bug_keys(pinpoint), name

    def test_unoptimized_fusion_matches_optimized(self, program_case):
        name, pdg = program_case
        optimized = FusionEngine(pdg).analyze(NullDereferenceChecker())
        config = FusionConfig(solver=GraphSolverConfig(optimized=False))
        unoptimized = FusionEngine(pdg, config).analyze(
            NullDereferenceChecker())
        assert bug_keys(optimized) == bug_keys(unoptimized), name

    def test_quickpaths_do_not_change_verdicts(self, program_case):
        name, pdg = program_case
        with_qp = FusionEngine(pdg).analyze(NullDereferenceChecker())
        config = FusionConfig(
            solver=GraphSolverConfig(use_quickpaths=False))
        without = FusionEngine(pdg, config).analyze(NullDereferenceChecker())
        assert bug_keys(with_qp) == bug_keys(without), name

    @pytest.mark.parametrize("variant", ["lfs", "hfs", "ar"])
    def test_variants_match_plain_pinpoint(self, variant):
        pdg = prepare_pdg(compile_source(PROGRAMS["figure1"]))
        plain = PinpointEngine(pdg).analyze(NullDereferenceChecker())
        varied = make_pinpoint(pdg, variant).analyze(NullDereferenceChecker())
        assert bug_keys(plain) == bug_keys(varied)


class TestInferProfile:
    def test_infer_reports_infeasible_paths(self):
        pdg = prepare_pdg(compile_source(PROGRAMS["infeasible_guard"]))
        infer = InferEngine(pdg).analyze(NullDereferenceChecker())
        fusion = FusionEngine(pdg).analyze(NullDereferenceChecker())
        assert len(infer.bugs) == 1      # false positive
        assert len(fusion.bugs) == 0     # filtered by path sensitivity

    def test_infer_misses_deep_flows(self):
        # A null that travels five call levels: beyond Infer's hop bound.
        src = ["fun l0() { p = null; return p; }"]
        for i in range(1, 6):
            src.append(f"fun l{i}() {{ q = l{i-1}(); return q; }}")
        src.append("fun top() { r = l5(); deref(r); return 0; }")
        pdg = prepare_pdg(compile_source("\n".join(src)))
        infer = InferEngine(pdg).analyze(NullDereferenceChecker())
        fusion = FusionEngine(pdg).analyze(NullDereferenceChecker())
        assert len(fusion.bugs) == 1
        assert len(infer.bugs) == 0

    def test_infer_runs_no_smt_queries(self):
        pdg = prepare_pdg(compile_source(PROGRAMS["figure1"]))
        result = InferEngine(pdg).analyze(NullDereferenceChecker())
        assert result.smt_queries == 0


class TestTaintAnalyses:
    def test_cwe23_feasible(self):
        pdg = prepare_pdg(compile_source("""
        fun f(a) {
          t = gets();
          if (a > 3) { fopen(t); }
          return 0;
        }
        """))
        result = FusionEngine(pdg).analyze(cwe23_checker())
        assert len(result.bugs) == 1

    def test_cwe23_infeasible_guard(self):
        pdg = prepare_pdg(compile_source("""
        fun f(a) {
          t = gets();
          b = a != a;
          if (b) { fopen(t); }
          return 0;
        }
        """))
        result = FusionEngine(pdg).analyze(cwe23_checker())
        assert len(result.bugs) == 0

    def test_cwe402_interprocedural(self):
        pdg = prepare_pdg(compile_source("""
        fun fetch() {
          s = getpass();
          return s;
        }
        fun f() {
          k = fetch();
          send(k);
          return 0;
        }
        """))
        result = FusionEngine(pdg).analyze(cwe402_checker())
        assert len(result.bugs) == 1

    def test_checkers_are_independent(self):
        pdg = prepare_pdg(compile_source("""
        fun f() {
          t = gets();
          fopen(t);
          s = getpass();
          send(s);
          return 0;
        }
        """))
        cwe23 = FusionEngine(pdg).analyze(cwe23_checker())
        cwe402 = FusionEngine(pdg).analyze(cwe402_checker())
        assert len(cwe23.bugs) == 1
        assert len(cwe402.bugs) == 1


class TestResourceAccounting:
    def test_pinpoint_caches_conditions_fusion_does_not(self):
        pdg = prepare_pdg(compile_source(PROGRAMS["figure1"]))
        fusion = FusionEngine(pdg).analyze(NullDereferenceChecker())
        pinpoint = PinpointEngine(pdg).analyze(NullDereferenceChecker())
        assert fusion.condition_memory_units == 0
        assert pinpoint.condition_memory_units > 0

    def test_memory_budget_failure_reported(self):
        from repro.limits import Budget
        from repro.baselines import PinpointConfig

        pdg = prepare_pdg(compile_source(PROGRAMS["figure1"]))
        config = PinpointConfig(budget=Budget(max_memory_units=10))
        result = PinpointEngine(pdg, config).analyze(NullDereferenceChecker())
        assert result.failure == "memory"

    # Budget parity: a run that exhausts its budget mid-way stops at the
    # same query, with the same partial reports, as the original
    # one-engine sequential loop did.  The pinned (failure, queries,
    # reports) triples were measured on that loop.

    @staticmethod
    def budget_subject_pdg():
        from repro.bench import SubjectSpec, generate_subject

        spec = SubjectSpec("budget-parity", seed=5, num_functions=10,
                           layers=3, avg_stmts=7, call_fanout=2,
                           null_bugs=(2, 2, 2))
        return prepare_pdg(generate_subject(spec).program)

    def test_memory_out_mid_run_keeps_partial_reports(self):
        from repro.limits import Budget
        from repro.baselines import PinpointConfig

        pdg = self.budget_subject_pdg()
        unbounded = PinpointEngine(pdg).analyze(NullDereferenceChecker())
        assert unbounded.smt_queries == 6
        config = PinpointConfig(budget=Budget(max_memory_units=2000))
        result = PinpointEngine(pdg, config).analyze(NullDereferenceChecker())
        assert (result.failure, result.smt_queries, len(result.reports)) \
            == ("memory", 3, 3)

    def test_time_out_mid_run_keeps_partial_reports(self, monkeypatch):
        import time

        from repro.limits import Budget

        solve_one = FusionEngine.solve_one

        def slow(self, *args, **kwargs):
            time.sleep(0.2)
            return solve_one(self, *args, **kwargs)

        monkeypatch.setattr(FusionEngine, "solve_one", slow)
        pdg = self.budget_subject_pdg()
        config = FusionConfig(budget=Budget(max_seconds=0.5))
        result = FusionEngine(pdg, config).analyze(NullDereferenceChecker())
        assert result.candidates == 6
        assert (result.failure, result.smt_queries, len(result.reports)) \
            == ("time", 3, 3)
