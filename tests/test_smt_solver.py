"""Unit and property tests for the end-to-end SMT solver (Algorithm 3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import (SatSolver, SmtSolver, SmtStatus, SolverConfig,
                       TermManager, evaluate)
from repro.smt.solver import DecidedBy
from strategies import all_assignments, bool_terms, make_manager


@pytest.fixture
def mgr():
    return TermManager()


class TestBasics:
    def test_trivially_sat(self, mgr):
        assert SmtSolver(mgr).check([mgr.true]).is_sat

    def test_trivially_unsat(self, mgr):
        assert SmtSolver(mgr).check([mgr.false]).is_unsat

    def test_empty_is_sat(self, mgr):
        assert SmtSolver(mgr).check([]).is_sat

    def test_preprocess_decides_paper_example(self, mgr):
        """Figure 1(b): the whole path condition of foo falls to the
        preprocessing phase (the 21% the paper reports)."""
        v = {n: mgr.bv_var(n, 8)
             for n in ("x1", "y1", "z1", "a", "c",
                       "x2", "y2", "z2", "b", "d")}
        e = mgr.bool_var("e")
        two = mgr.bv_const(2, 8)
        constraints = [
            mgr.eq(v["y1"], mgr.bvmul(v["x1"], two)),
            mgr.eq(v["z1"], v["y1"]),
            mgr.eq(v["a"], v["x1"]),
            mgr.eq(v["c"], v["z1"]),
            mgr.eq(v["y2"], mgr.bvmul(v["x2"], two)),
            mgr.eq(v["z2"], v["y2"]),
            mgr.eq(v["b"], v["x2"]),
            mgr.eq(v["d"], v["z2"]),
            e,
            mgr.eq(e, mgr.slt(v["c"], v["d"])),
        ]
        result = SmtSolver(mgr).check(constraints, want_model=True)
        assert result.is_sat
        assert result.decided_in_preprocess
        for c in constraints:
            assert evaluate(c, result.model) == 1

    def test_needs_sat_search(self, mgr):
        x = mgr.bv_var("x", 8)
        # x*x == 49 needs bit-level reasoning after preprocessing.
        result = SmtSolver(mgr).check([mgr.eq(mgr.bvmul(x, x),
                                        mgr.bv_const(49, 8))],
                           want_model=True)
        assert result.is_sat
        assert (result.model[x] ** 2) % 256 == 49

    def test_unsat_after_search(self, mgr):
        x = mgr.bv_var("x", 4)
        # x & 1 == 0 and x odd: contradiction that survives to the SAT
        # solver because of the non-linear bit operations.
        constraints = [
            mgr.eq(mgr.bvand(x, mgr.bv_const(1, 4)), mgr.bv_const(0, 4)),
            mgr.eq(mgr.bvand(x, mgr.bv_const(1, 4)), mgr.bv_const(1, 4)),
        ]
        assert SmtSolver(mgr).check(constraints).is_unsat

    def test_model_covers_original_variables(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        constraints = [mgr.eq(y, mgr.bvadd(x, mgr.bv_const(1, 8))),
                       mgr.eq(mgr.bvand(x, x), mgr.bv_const(5, 8))]
        result = SmtSolver(mgr).check(constraints, want_model=True)
        assert result.is_sat
        assert result.model[x] == 5 and result.model[y] == 6

    def test_sat_clauses_counts_learned_clauses(self, mgr, monkeypatch):
        """``sat_clauses`` is read after the search: the bit-blasted
        problem clauses plus every clause the search learned."""
        seen = {}
        solve = SatSolver.solve

        def recording_solve(solver, *args, **kwargs):
            seen["problem"] = solver.num_clauses
            result = solve(solver, *args, **kwargs)
            seen["learned"] = solver.learned_clauses
            return result

        monkeypatch.setattr(SatSolver, "solve", recording_solve)
        a, d = mgr.bv_var("a", 4), mgr.bv_var("d", 4)
        rebuilt = mgr.bvadd(mgr.bvmul(mgr.bvudiv(a, d), d),
                            mgr.bvurem(a, d))
        result = SmtSolver(mgr).check([
            mgr.not_(mgr.eq(d, mgr.bv_const(0, 4))),
            mgr.not_(mgr.eq(a, rebuilt))])
        assert result.is_unsat and not result.decided_in_preprocess
        assert seen["learned"] > 0
        assert result.sat_clauses == seen["problem"] + seen["learned"]


class TestConfig:
    def test_solver_counts_preprocess_decisions(self, mgr):
        solver = SmtSolver(mgr)
        results = [solver.check([mgr.true]),
                   solver.check([mgr.eq(mgr.bv_var("x", 4),
                                        mgr.bv_var("x", 4))])]
        assert solver.queries == 2
        assert [r.decided_by for r in results] == [DecidedBy.PREPROCESS] * 2

    def test_selected_passes_forwarded(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        config = SolverConfig(enabled_passes=("constants",))
        result = SmtSolver(mgr, config).check([mgr.eq(y, x)])
        assert result.is_sat  # still solved, just via the SAT back end

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="gausian"):
            SolverConfig(enabled_passes=("gausian",))


class TestAgainstBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_full_solver_agrees_with_enumeration(self, data):
        mgr, bv_vars, bool_vars = make_manager()
        term = data.draw(bool_terms(mgr, bv_vars, bool_vars))
        expected_sat = any(evaluate(term, env) == 1
                           for env in all_assignments(bv_vars, bool_vars))
        result = SmtSolver(mgr).check([term], want_model=True)
        assert result.status is not SmtStatus.UNKNOWN
        assert result.is_sat == expected_sat
        if result.is_sat:
            model = dict(result.model)
            for var in bv_vars + bool_vars:
                model.setdefault(var, 0)
            assert evaluate(term, model) == 1
