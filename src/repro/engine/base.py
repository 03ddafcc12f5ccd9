"""The skeleton every path-sensitive engine shares.

Pinpoint (Algorithm 2) and Fusion (Algorithm 5) run the same sparse
collection of dependence paths and differ only in *how* the feasibility
of a collected path is decided.  :class:`PathSensitiveEngine` owns
everything else: the per-checker sparse views, the one analysis loop
(collect candidates, then decide them), the one decision loop every
front door shares (replay stored verdicts, solve the rest through the
:class:`~repro.exec.scheduler.QueryScheduler`, whose inline rung solves
on this engine, commit, assemble), the run budget and the
store-fingerprint keys both engines share.  An engine supplies only

* :meth:`~PathSensitiveEngine.solve_one` — decide one candidate
  against its already-computed slice;
* :meth:`~PathSensitiveEngine._memory_snapshot` — its memory model;
* :meth:`~PathSensitiveEngine._fingerprint_extras` — its own
  verdict-affecting knobs;
* ``solver_config`` — where its config keeps the SMT solver settings
  (the per-query ``time_limit`` among them).
"""

from __future__ import annotations

import time
from typing import Optional

from repro.checkers.base import (AnalysisResult, BugCandidate, BugReport,
                                 Checker)
from repro.collector import paused
from repro.exec.scheduler import ExecConfig, QueryOutcome, QueryScheduler
from repro.exec.telemetry import Telemetry
from repro.limits import (Budget, Deadline, MemoryBudgetExceeded,
                          ResourceExceeded, TimeBudgetExceeded)
from repro.pdg.graph import ProgramDependenceGraph
from repro.pdg.reduce import ViewRegistry
from repro.pdg.slicing import Slice
from repro.smt.solver import SmtResult, SolverConfig
from repro.sparse.engine import (MAX_CANDIDATES, MAX_PATH_LEN,
                                 MAX_PATHS_PER_PAIR, REVISIT_CAP,
                                 collect_candidates)


class PathSensitiveEngine:
    """Base of the engines that decide each candidate with an SMT query
    (module docstring).  ``config`` must be a dataclass carrying
    ``budget`` (pool workers get a copy without the budget)."""

    name: str

    def __init__(self, pdg: ProgramDependenceGraph, config) -> None:
        self.pdg = pdg
        self.config = config
        #: Per-checker sparse views, cached across ``analyze`` calls (the
        #: serve daemon keeps the engine hot, so views survive between
        #: requests until an edit invalidates them).
        self.views = ViewRegistry(pdg)
        #: The last run's query outcomes, in candidate-index order (feed
        #: the Figure 11 comparison and the bench per-query columns).
        self.query_records: list[QueryOutcome] = []

    # ------------------------------------------------------------------ #
    # Supplied by each engine
    # ------------------------------------------------------------------ #

    @property
    def solver_config(self) -> SolverConfig:
        """The SMT solver settings (per-query ``time_limit``,
        preprocessing passes)."""
        raise NotImplementedError

    def solve_one(self, candidate: BugCandidate, the_slice: Slice,
                  deadline: Optional[Deadline]) -> SmtResult:
        """Decide one candidate against its already-computed slice.
        An overrun of ``deadline`` before ``SmtSolver.check`` raises
        :class:`~repro.limits.QueryDeadlineExceeded`."""
        raise NotImplementedError

    def _memory_snapshot(self) -> tuple[int, int]:
        """(total units, condition-cache units)."""
        raise NotImplementedError

    def _fingerprint_extras(self) -> dict:
        """The engine's own verdict-affecting knobs, keyed into the
        store fingerprint next to the shared ones."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # The shared skeleton
    # ------------------------------------------------------------------ #

    def checker_view(self, checker: Checker, telemetry: Telemetry):
        """The checker's sparse view; flushes view-registry counters into
        ``telemetry``."""
        view = self.views.view_for(checker)
        self.views.flush_telemetry(telemetry)
        return view

    @paused
    def analyze(self, checker: Checker,
                exec_config: Optional[ExecConfig] = None,
                telemetry: Optional[Telemetry] = None,
                store=None) -> AnalysisResult:
        """The one analysis loop: collect the checker's candidates over
        its sparse view and :meth:`decide` them.  ``exec_config`` tunes
        the scheduler (default ``ExecConfig()``: one job, solved inline
        on this engine); ``telemetry`` receives the run's counters.
        ``store`` (an :class:`~repro.exec.store.ArtifactStore`) opts into
        warm incremental re-analysis: cached verdicts whose dependencies
        are unchanged are replayed instead of re-solved.

        The engine object may be reused across calls (the serve daemon
        keeps it hot so its views and condition templates survive between
        requests); all per-run state — query records, telemetry deltas,
        the result's counters — is rebuilt per call, so one request never
        observes a previous request's numbers."""
        start = time.perf_counter()
        telemetry = telemetry if telemetry is not None else Telemetry()
        view = self.checker_view(checker, telemetry)
        with telemetry.span("sparse.collect"):
            candidates = collect_candidates(self.pdg, checker, view=view)
        telemetry.add("counters", candidates=len(candidates))
        result = self.decide(checker, candidates, exec_config, telemetry,
                             store)
        total, condition = self._memory_snapshot()
        result.memory_units = max(result.memory_units, total)
        result.condition_memory_units = max(result.condition_memory_units,
                                            condition)
        telemetry.peak("memory", peak_units=result.memory_units,
                       peak_condition_units=result.condition_memory_units)
        result.wall_time = time.perf_counter() - start
        telemetry.add_span("engine.analyze", result.wall_time)
        return result

    def decide(self, checker: Checker, candidates: list[BugCandidate],
               exec_config: Optional[ExecConfig], telemetry: Telemetry,
               store=None) -> AnalysisResult:
        """Decide collected candidates: replay stored verdicts, solve the
        rest through the query scheduler, commit, and assemble the
        reports in index order, under the run budget, whose clock starts
        here (an overrun becomes the result's ``failure`` and keeps
        everything decided so far).
        Every front door decides here: :meth:`analyze` after collection,
        and a demand query for its pair's candidates.  The outcomes land
        in :attr:`query_records`."""
        self.query_records = []
        binding = store.bind(self.pdg, self._store_fingerprint(checker),
                             checker.name, telemetry) \
            if store is not None else None
        budget = self.config.budget if self.config.budget is not None \
            else Budget()
        budget.restart_clock()
        result = AnalysisResult(self.name, checker.name,
                                candidates=len(candidates))
        scheduler = QueryScheduler(
            self,
            exec_config if exec_config is not None else ExecConfig(),
            telemetry, budget)
        telemetry.annotate(engine=self.name, checker=checker.name)
        # index -> report, filled by store replay and the scheduler;
        # merged into ``result.reports`` in index order even on budget
        # aborts.
        reports: dict[int, BugReport] = {}
        pending: Optional[list[int]] = None
        try:
            if binding is not None:
                # Warm-run replay: verdicts whose recorded dependencies
                # are unchanged come straight from the persistent store;
                # only the rest flow into the solve loop.
                with telemetry.span("exec.store.replay"):
                    pending = binding.replay(candidates, reports)
            scheduler.solve_pending(candidates, pending, result, reports,
                                    binding, sink=self.query_records)
        except MemoryBudgetExceeded:
            result.failure = "memory"
        except TimeBudgetExceeded:
            result.failure = "time"
        except ResourceExceeded:
            result.failure = "resource"
        if binding is not None:
            # Persist this run's verdicts (partial results included on
            # budget aborts).
            with telemetry.span("exec.store.commit"):
                binding.commit(candidates, reports)
        result.reports = [reports[index] for index in sorted(reports)]
        if result.failure is not None:
            telemetry.annotate(failure=result.failure)
        return result

    def _store_fingerprint(self, checker: Checker) -> dict:
        """Every knob that can change a cacheable verdict (or the report
        built from it).  Time/conflict limits are deliberately excluded:
        exceeding either yields UNKNOWN, which is never persisted, so
        decided verdicts are limit-independent.  Loop unrolling happens
        before the PDG exists, so its bound is already covered by the
        per-function content keys."""
        program = self.pdg.program
        solver = self.solver_config
        fingerprint = {
            "engine": self.name,
            "width": program.width,
            "enabled_passes": None if solver.enabled_passes is None
            else list(solver.enabled_passes),
            # Preprocessing became unconditional; the key stays so stores
            # written while it was a setting keep replaying.
            "use_preprocess": True,
            "sparse": [MAX_PATHS_PER_PAIR, MAX_PATH_LEN, MAX_CANDIDATES,
                       REVISIT_CAP],
            # Views are byte-identical to the full walk by contract, but
            # a footprint bug would silently replay wrong verdicts, so the
            # checker's footprint keys the store defensively (changing it
            # invalidates warm artifacts).
            "footprint": [list(part) if isinstance(part, tuple) else part
                          for part in checker.footprint().key()],
        }
        fingerprint.update(self._fingerprint_extras())
        return fingerprint
