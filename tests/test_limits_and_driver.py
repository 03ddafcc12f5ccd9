"""Tests for resource budgets and the analysis loop every
path-sensitive engine shares."""

import time
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.limits import Budget, MemoryBudgetExceeded, TimeBudgetExceeded
from repro.checkers import NullDereferenceChecker
from repro.engine.base import PathSensitiveEngine
from repro.fusion import prepare_pdg
from repro.lang import compile_source
from repro.smt.solver import DecidedBy, SmtResult, SmtStatus, SolverConfig


class TestBudget:
    def test_unlimited_budget_never_trips(self):
        budget = Budget()
        budget.check_time()
        budget.check_memory(10**12)

    def test_memory_budget_raises(self):
        budget = Budget(max_memory_units=100)
        budget.check_memory(100)
        with pytest.raises(MemoryBudgetExceeded):
            budget.check_memory(101)

    def test_time_budget_raises(self):
        budget = Budget(max_seconds=0.01)
        time.sleep(0.02)
        with pytest.raises(TimeBudgetExceeded):
            budget.check_time()

    def test_restart_clock(self):
        budget = Budget(max_seconds=10)
        time.sleep(0.01)
        before = budget.elapsed
        budget.restart_clock()
        assert budget.elapsed < before


SRC = """
fun f(a) {
  p = null;
  if (a > 20) { deref(p); }
  q = null;
  if (a < 10) { deref(q); }
  return 0;
}
"""


@dataclass
class StubConfig:
    budget: Optional[Budget] = None


class StubEngine(PathSensitiveEngine):
    """The shared loop around a bare per-candidate solve function."""

    name = "test-engine"

    def __init__(self, pdg, config, solve_fn):
        super().__init__(pdg, config)
        self.solve_fn = solve_fn

    @property
    def solver_config(self):
        return SolverConfig()

    def solve_one(self, candidate, the_slice, deadline):
        return self.solve_fn(candidate)

    def _memory_snapshot(self):
        return 123, 45


def make_engine(solve_fn, budget=None):
    return StubEngine(prepare_pdg(compile_source(SRC)),
                      StubConfig(budget=budget), solve_fn)


def make_driver_run(solve_fn, budget=None):
    """One ``analyze`` run of the stub engine."""
    return make_engine(solve_fn, budget).analyze(NullDereferenceChecker())


class TestDriver:
    def test_counts_candidates_and_queries(self):
        result = make_driver_run(lambda c: SmtResult(SmtStatus.SAT))
        assert result.candidates == 2
        assert result.smt_queries == 2
        assert len(result.bugs) == 2

    def test_unsat_filters_reports(self):
        result = make_driver_run(lambda c: SmtResult(SmtStatus.UNSAT))
        assert result.bugs == []
        assert len(result.reports) == 2

    def test_unknown_is_reported_soundy(self):
        # A query that exhausts its budget is reported as a potential bug
        # (the bug-finding convention: timeouts do not suppress reports).
        result = make_driver_run(lambda c: SmtResult(SmtStatus.UNKNOWN))
        assert len(result.bugs) == 2

    def test_memory_snapshot_recorded(self):
        result = make_driver_run(lambda c: SmtResult(SmtStatus.SAT))
        assert result.memory_units == 123
        assert result.condition_memory_units == 45

    def test_solver_exception_becomes_failure(self):
        def explode(candidate):
            raise MemoryBudgetExceeded("boom")

        result = make_driver_run(explode)
        assert result.failure == "memory"

    def test_time_budget_enforced_between_queries(self):
        def slow(candidate):
            time.sleep(0.05)
            return SmtResult(SmtStatus.SAT)

        result = make_driver_run(slow, budget=Budget(max_seconds=0.01))
        assert result.failure == "time"
        # Partial results are preserved.
        assert result.smt_queries >= 1

    def test_preprocess_decisions_counted(self):
        result = make_driver_run(
            lambda c: SmtResult(SmtStatus.SAT,
                                decided_by=DecidedBy.PREPROCESS))
        assert result.decided_in_preprocess == 2

    def test_query_records_collected(self):
        engine = make_engine(lambda c: SmtResult(SmtStatus.SAT))
        engine.analyze(NullDereferenceChecker())
        records = engine.query_records
        assert [r.index for r in records] == [0, 1]
        assert all(r.status is SmtStatus.SAT for r in records)

    def test_unknown_queries_counted(self):
        result = make_driver_run(lambda c: SmtResult(SmtStatus.UNKNOWN))
        assert result.unknown_queries == 2
        assert ", 2 unknown" in result.summary()
        sat = make_driver_run(lambda c: SmtResult(SmtStatus.SAT))
        assert sat.unknown_queries == 0
        assert "unknown" not in sat.summary()


#: A query the preprocessor cannot settle and the SAT back end cannot
#: decide within a one-conflict budget: a multiplicative xor-factoring
#: gate guarding the dereference.
HARD_SRC = """
fun f(x, y, z, w) {
  p = null;
  a = x * y;
  b = z * w;
  c = a ^ b;
  d = (x | 1) * (z | 1);
  if (c == 171) { if (d == 77) { deref(p); } }
  return 0;
}
"""


class TestQueryMetrics:
    """Regressions for per-query record fields (Figure 11 inputs)."""

    def _run(self, conflict_limit):
        from repro.fusion import FusionConfig, FusionEngine, GraphSolverConfig
        from repro.smt.solver import SolverConfig

        pdg = prepare_pdg(compile_source(HARD_SRC))
        engine = FusionEngine(pdg, FusionConfig(solver=GraphSolverConfig(
            solver=SolverConfig(conflict_limit=conflict_limit))))
        return engine.analyze(NullDereferenceChecker()), engine.query_records

    def test_condition_nodes_populated(self):
        # Regression: a record's condition_nodes used to stay 0 because
        # SmtResult never carried the queried constraint-set size.
        result, records = self._run(conflict_limit=200_000)
        assert records, "no queries issued"
        assert all(record.condition_nodes > 0 for record in records)
        assert result.unknown_queries == 0

    def test_resource_limited_query_counts_as_unknown(self):
        # A one-conflict budget cannot decide the factoring gate: the
        # query lands UNKNOWN, is still reported (soundy), and the run
        # tracks it separately from proven-SAT bugs.
        result, records = self._run(conflict_limit=1)
        assert result.unknown_queries == 1
        assert [r.status for r in records] == [SmtStatus.UNKNOWN]
        assert len(result.bugs) == 1  # reported despite the timeout
        assert "1 unknown" in result.summary()
