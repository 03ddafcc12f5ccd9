"""Tests for incremental assumption-based solver sessions.

`SolverSession` (repro.smt.incremental) must be a drop-in for the
one-shot `SmtSolver.check` on every query of a group: same verdicts,
same `decided_in_preprocess` split, models that satisfy the constraints
— while actually reusing the persistent CNF (encoder hits, retained
clauses) across the group's queries.  See docs/solver.md.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import (SessionStats, SmtSolver, SmtStatus, SolverConfig,
                       SolverSession, TermManager)
from repro.smt.semantics import evaluate
from strategies import bool_terms, make_manager


class TestSessionStats:
    def test_merge_is_additive(self):
        a = SessionStats(1, 2, 3, 4, 5)
        b = SessionStats(10, 20, 30, 40, 50)
        a.merge(b)
        assert a.as_tuple() == (11, 22, 33, 44, 55)

    def test_tuple_roundtrip(self):
        stats = SessionStats(1, 2, 3, 4, 5)
        assert SessionStats.from_tuple(stats.as_tuple()) == stats

    def test_snapshot_is_independent(self):
        stats = SessionStats(sessions=1)
        copy = stats.snapshot()
        stats.sessions += 1
        assert copy.sessions == 1


class TestSessionLifecycle:
    def test_open_counts_a_session(self):
        stats = SessionStats()
        SolverSession(TermManager(), stats=stats)
        SolverSession(TermManager(), stats=stats)
        assert stats.sessions == 2


class TestSessionReuse:
    def test_shared_structure_hits_the_encoder_cache(self):
        # use_preprocess=False forces both queries through the CNF stage
        # (the equisatisfiable pipeline would decide these outright).
        manager = TermManager()
        stats = SessionStats()
        session = SolverSession(manager,
                                config=SolverConfig(use_preprocess=False),
                                stats=stats)
        x = manager.bv_var("x", 8)
        y = manager.bv_var("y", 8)
        shared = manager.bvadd(manager.bvmul(x, y), y)
        q1 = manager.ult(shared, manager.bv_const(200, 8))
        q2 = manager.ult(manager.bv_const(10, 8), shared)
        first = session.check([q1])
        second = session.check([q2])
        assert first.status is SmtStatus.SAT
        assert second.status is SmtStatus.SAT
        assert stats.encoder_hits > 0, stats
        assert stats.assumption_solves == 2
        assert stats.reused_clauses > 0

    def test_unsat_query_does_not_poison_the_session(self):
        manager = TermManager()
        session = SolverSession(manager,
                                config=SolverConfig(use_preprocess=False))
        x = manager.bv_var("x", 8)
        zero = manager.bv_const(0, 8)
        contradiction = manager.and_(manager.eq(x, zero),
                                     manager.not_(manager.eq(x, zero)))
        assert session.check([contradiction]).status is SmtStatus.UNSAT
        assert session.check(
            [manager.eq(x, zero)]).status is SmtStatus.SAT


class TestSessionVsOneShot:
    """Property: per query, `SolverSession.check` returns the same
    verdict and preprocess decision as a fresh `SmtSolver.check`, with
    a model that satisfies the constraints — across several queries in
    one session (interleaved SAT/UNSAT exercises learned-clause
    retention end to end)."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_check_agrees_with_fresh_solver(self, data):
        manager, bv_vars, bool_vars = make_manager()
        terms = bool_terms(manager, bv_vars, bool_vars)
        session = SolverSession(manager)
        queries = data.draw(st.lists(
            st.lists(terms, min_size=1, max_size=3),
            min_size=2, max_size=5))
        for constraints in queries:
            fresh = SmtSolver(manager).check(constraints)
            inc = session.check(constraints, want_model=True)
            assert inc.status is fresh.status
            assert inc.decided_in_preprocess == fresh.decided_in_preprocess
            if inc.status is SmtStatus.SAT and not inc.decided_in_preprocess:
                # Variables rewritten away (no completion step needed —
                # any value satisfies) default to 0, the idiom of
                # tests/test_smt_solver.py.
                model = dict(inc.model)
                for var in bv_vars + bool_vars:
                    model.setdefault(var, 0)
                for constraint in constraints:
                    assert evaluate(constraint, model) == 1


class TestEngineIntegration:
    def test_incremental_fusion_matches_and_reuses(self):
        from repro.bench import SubjectSpec, generate_subject
        from repro.checkers import NullDereferenceChecker
        from repro.fusion import (FusionConfig, FusionEngine,
                                  GraphSolverConfig, prepare_pdg)

        spec = SubjectSpec("inc-int", seed=13, num_functions=8, layers=3,
                           avg_stmts=6, call_fanout=2, null_bugs=(2, 1, 1))
        pdg = prepare_pdg(generate_subject(spec).program)
        checker = NullDereferenceChecker()
        base = FusionEngine(pdg).analyze(checker)
        engine = FusionEngine(pdg, FusionConfig(
            solver=GraphSolverConfig(
                solver=SolverConfig(incremental=True))))
        result = engine.analyze(checker)
        assert [(r.feasible, r.decided_in_preprocess)
                for r in result.reports] == \
            [(r.feasible, r.decided_in_preprocess) for r in base.reports]
        stats = engine.session_stats
        assert stats.sessions > 0
        assert stats.assumption_solves > 0
