"""Shared analysis driver: sparse collection + per-candidate feasibility.

Every path-sensitive engine (Fusion, Pinpoint and its variants) runs the
same loop — collect candidates sparsely, then decide each candidate's path
feasibility — and differs only in *how* feasibility is decided.  The
driver also enforces the run's resource budget (the paper's 12 h / 100 GB
caps) and records per-query data for the Figure 11 scatter.

Between collection and assembly sits store replay; whatever it leaves
pending goes to the one per-candidate solve loop, the
:class:`~repro.exec.scheduler.QueryScheduler` an
:class:`~repro.exec.scheduler.ExecutionPlan` describes.  At one job its
inline rung solves in the calling process, on the caller's engine, in
index order, checking the budget after every query; above one job a
worker pool solves batches.  Outcomes come back keyed by candidate
index, so reports are assembled in index order regardless of completion
order (:func:`solve_pending`, shared with demand queries).  The
differential suite (``tests/test_parallel_driver.py``) pins every rung
to byte-identical report lists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.checkers.base import (AnalysisResult, BugCandidate, BugReport,
                                 Checker)
from repro.limits import (Budget, MemoryBudgetExceeded, ResourceExceeded,
                          TimeBudgetExceeded)
from repro.pdg.graph import ProgramDependenceGraph
from repro.smt.solver import SmtStatus
from repro.smt.terms import Term
from repro.sparse.engine import SparseConfig, collect_candidates

if TYPE_CHECKING:  # imported lazily via the plan object; no runtime cycle
    from repro.exec.scheduler import (ExecutionPlan, QueryOutcome,
                                      QueryScheduler)
    from repro.exec.store import StoreBinding


@dataclass
class QueryRecord:
    """One SMT query's outcome (feeds the Figure 11 comparison)."""

    status: SmtStatus
    seconds: float
    decided_in_preprocess: bool
    condition_nodes: int = 0
    #: SAT clause-database size when the query's search ran (0 when
    #: preprocessing decided it); feeds the bench per-query columns.
    sat_clauses: int = 0


MemoryFn = Callable[[], tuple[int, int]]  # (total units, condition units)


def public_witness(model: dict[Term, int]) -> dict[str, int]:
    """A report-ready witness: program variables only, sorted by name.

    Solver-internal choice variables (``!k*``, from ``fresh_var``) are
    dropped — their numbering depends on term-manager history, so they
    are the one model component that is not a pure function of the query.
    Every rendering path (CLI, report formatter) already excluded them.
    """
    return {var.name: value
            for var, value in sorted(model.items(),
                                     key=lambda item: item[0].name)
            if not var.name.startswith("!")}


def run_analysis(pdg: ProgramDependenceGraph, checker: Checker,
                 engine_name: str, execution: "ExecutionPlan",
                 memory_snapshot: MemoryFn,
                 budget: Optional[Budget] = None,
                 sparse_config: Optional[SparseConfig] = None,
                 query_records: Optional[list[QueryRecord]] = None,
                 store: Optional["StoreBinding"] = None,
                 view=None) -> AnalysisResult:
    budget = budget if budget is not None else Budget()
    budget.restart_clock()
    result = AnalysisResult(engine_name, checker.name)
    scheduler = execution.make_scheduler(budget)
    telemetry = scheduler.telemetry
    telemetry.annotate(engine=engine_name, checker=checker.name)
    start = time.perf_counter()
    #: index -> report, filled by store replay and the scheduler;
    #: merged into ``result.reports`` in index order even on budget aborts.
    reports: dict[int, BugReport] = {}
    pending: Optional[list[int]] = None
    candidates: list[BugCandidate] = []

    try:
        with telemetry.stage("collect"):
            candidates = collect_candidates(pdg, checker, sparse_config,
                                            view=view)
        telemetry.count("candidates", len(candidates))
        result.candidates = len(candidates)

        if store is not None:
            # Warm-run replay: verdicts whose recorded dependencies are
            # unchanged come straight from the persistent store; only the
            # rest flow into the solve loop.
            with telemetry.stage("store_replay"):
                pending = store.replay(candidates, reports)
            result.replayed_verdicts = len(candidates) - len(pending)

        solve_pending(scheduler, candidates, pending, result, reports,
                      store, query_records)
    except MemoryBudgetExceeded:
        result.failure = "memory"
    except TimeBudgetExceeded:
        result.failure = "time"
    except ResourceExceeded:
        result.failure = "resource"
    if store is not None:
        # Persist this run's verdicts (partial results included on budget
        # aborts) and the function records the next diff starts from.
        with telemetry.stage("store_commit"):
            store.commit(candidates, reports)
    result.reports = [reports[index] for index in sorted(reports)]

    total, condition = memory_snapshot()
    result.memory_units = max(result.memory_units, total)
    result.condition_memory_units = max(result.condition_memory_units,
                                        condition)
    result.wall_time = time.perf_counter() - start
    telemetry.record_memory(result.memory_units,
                            result.condition_memory_units)
    telemetry.set_wall_seconds(result.wall_time)
    if result.failure is not None:
        telemetry.annotate(failure=result.failure)
    return result


def solve_pending(scheduler: "QueryScheduler",
                  candidates: list[BugCandidate],
                  pending: Optional[list[int]], result: AnalysisResult,
                  reports: dict[int, BugReport],
                  store: Optional["StoreBinding"] = None,
                  query_records: Optional[list[QueryRecord]] = None
                  ) -> None:
    """Solve the ``pending`` candidates (all when None) through
    ``scheduler`` and assemble their outcomes into ``reports`` and the
    ``result`` counters.

    Outcomes are assembled even when a budget violation or an abort
    policy ends the run mid-way (the ``finally`` clause), so partial
    results survive.
    """
    outcomes: list["QueryOutcome"] = []
    try:
        scheduler.run(candidates, sink=outcomes, indices=pending)
    finally:
        outcomes.sort(key=lambda outcome: outcome.index)
        for outcome in outcomes:
            result.smt_queries += 1
            if outcome.decided_in_preprocess:
                result.decided_in_preprocess += 1
            if outcome.status is SmtStatus.UNKNOWN:
                result.unknown_queries += 1
            if outcome.error is not None:
                result.error_queries += 1
            if query_records is not None:
                query_records.append(QueryRecord(
                    outcome.status, outcome.seconds,
                    outcome.decided_in_preprocess,
                    outcome.condition_nodes,
                    sat_clauses=outcome.sat_clauses))
            if store is not None:
                store.observe(outcome.index, outcome.status)
            reports[outcome.index] = BugReport(
                candidates[outcome.index], outcome.feasible,
                outcome.decided_in_preprocess, outcome.seconds,
                dict(outcome.witness))
            result.memory_units = max(result.memory_units,
                                      outcome.memory_units)
            result.condition_memory_units = max(
                result.condition_memory_units,
                outcome.condition_memory_units)
