"""The skeleton every path-sensitive engine shares.

Pinpoint (Algorithm 2) and Fusion (Algorithm 5) run the same sparse
collection of dependence paths and differ only in *how* the feasibility
of a collected path is decided (see :mod:`repro.sparse.driver`).
:class:`PathSensitiveEngine` owns everything else: the per-checker
sparse views, the execution plan every run hands the query scheduler
(whose inline rung solves on this engine), store binding and the
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

from dataclasses import replace
from typing import Optional

from repro.checkers.base import AnalysisResult, BugCandidate, Checker
from repro.exec.scheduler import ExecConfig, ExecutionPlan, WorkerSpec
from repro.exec.telemetry import Telemetry
from repro.limits import Deadline
from repro.pdg.graph import ProgramDependenceGraph
from repro.pdg.reduce import ViewRegistry
from repro.pdg.slicing import Slice
from repro.smt.solver import SmtResult, SolverConfig
from repro.sparse.driver import QueryRecord, run_analysis


class PathSensitiveEngine:
    """Base of the engines that decide each candidate with an SMT query
    (module docstring).  ``config`` must carry ``sparse`` and
    ``budget``."""

    name: str

    def __init__(self, pdg: ProgramDependenceGraph, config) -> None:
        self.pdg = pdg
        self.config = config
        #: Per-checker sparse views, cached across ``analyze`` calls (the
        #: serve daemon keeps the engine hot, so views survive between
        #: requests until an edit invalidates them).
        self.views = ViewRegistry(pdg)
        self.query_records: list[QueryRecord] = []

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
        Overrunning ``deadline`` yields UNKNOWN, never an exception."""
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

    def checker_view(self, checker: Checker,
                     telemetry: Optional[Telemetry] = None):
        """The checker's sparse view; flushes view-registry counters into
        ``telemetry``."""
        view = self.views.view_for(checker)
        self.views.flush_telemetry(telemetry)
        return view

    def analyze(self, checker: Checker,
                exec_config: Optional[ExecConfig] = None,
                telemetry: Optional[Telemetry] = None,
                store=None) -> AnalysisResult:
        """Run the checker through the query scheduler.  ``exec_config``
        tunes it (default ``ExecConfig()``: one job, solved inline on
        this engine); ``telemetry`` receives the run's counters.
        ``store`` (an
        :class:`~repro.exec.store.ArtifactStore`) opts into warm
        incremental re-analysis: cached verdicts whose dependencies are
        unchanged are replayed instead of re-solved.

        The engine object may be reused across calls (the serve daemon
        keeps it hot so its views and condition templates survive between
        requests); all per-run state — query records, telemetry deltas,
        the result's counters — is rebuilt here, so one request never
        observes a previous request's numbers."""
        telemetry = telemetry if telemetry is not None else Telemetry()
        self.query_records = []
        view = self.checker_view(checker, telemetry)
        execution = self._execution_plan(checker, exec_config, telemetry)
        binding = store.bind(self.pdg, self._store_fingerprint(checker),
                             checker.name, telemetry) \
            if store is not None else None
        return run_analysis(self.pdg, checker, self.name, execution,
                            self._memory_snapshot, self.config.budget,
                            self.config.sparse, self.query_records,
                            store=binding, view=view)

    def _store_fingerprint(self, checker: Checker) -> dict:
        """Every knob that can change a cacheable verdict (or the report
        built from it).  Time/conflict limits are deliberately excluded:
        exceeding either yields UNKNOWN, which is never persisted, so
        decided verdicts are limit-independent.  Loop lowering (unroll
        bound, summarization) happens before the PDG exists, so it is
        already covered by the per-function content keys; the strategy
        and path budget are keyed anyway as cheap insurance against a
        content-key bug replaying verdicts across lowering modes."""
        program = self.pdg.program
        solver = self.solver_config
        sparse = self.config.sparse
        fingerprint = {
            "engine": self.name,
            "width": program.width,
            "loop_strategy": getattr(program, "loop_strategy", None),
            "loop_paths": getattr(program, "loop_paths", None),
            "enabled_passes": None if solver.enabled_passes is None
            else list(solver.enabled_passes),
            "use_preprocess": solver.use_preprocess,
            "sparse": [sparse.max_paths_per_pair, sparse.max_path_len,
                       sparse.max_candidates, sparse.revisit_cap],
            # Views are byte-identical to the full walk by contract, but
            # a footprint bug would silently replay wrong verdicts, so the
            # checker's footprint keys the store defensively (changing it
            # invalidates warm artifacts).
            "footprint": [list(part) if isinstance(part, tuple) else part
                          for part in checker.footprint().key()],
        }
        fingerprint.update(self._fingerprint_extras())
        return fingerprint

    def _execution_plan(self, checker: Checker,
                        exec_config: Optional[ExecConfig],
                        telemetry: Optional[Telemetry]) -> ExecutionPlan:
        """The scheduler recipe for one run: the picklable ``WorkerSpec``
        pool workers rebuild fresh engines from, and the inline rung's
        query bound to this engine (never pickled)."""
        # Workers cannot observe the whole run's clock; the completion
        # loop enforces the budget.
        recipe = (type(self), replace(self.config, budget=None))
        spec = WorkerSpec(self.pdg, checker, self.config.sparse,
                          QueryRunner, recipe,
                          query_timeout=self.solver_config.time_limit)
        return ExecutionPlan(
            exec_config if exec_config is not None else ExecConfig(),
            spec, telemetry,
            inline_query=QueryRunner(self.pdg, recipe, engine=self))


class QueryRunner:
    """The scheduler's query function for every path-sensitive engine.

    It is its own query factory: :class:`~repro.exec.scheduler.WorkerSpec`
    carries the class (pickled by reference) and ``(engine class, engine
    config)`` as the factory config.

    In a pool worker, each query runs on a *fresh* engine (fresh term
    manager; for Pinpoint also no cross-query summary cache), so its
    outcome is a function of ``(pdg, candidate, config)`` alone — the
    determinism contract of :mod:`repro.exec.scheduler`.

    A runner bound to an ``engine`` (the inline rung's) solves every
    query on it, so its caches and memory model accumulate across the
    run exactly as the caller's engine dictates.
    """

    def __init__(self, pdg: ProgramDependenceGraph, recipe,
                 engine: Optional[PathSensitiveEngine] = None) -> None:
        self._pdg = pdg
        self._engine_cls, self._config = recipe
        self._engine = engine

    def __call__(self, candidate: BugCandidate, the_slice: Slice,
                 deadline: Optional[Deadline] = None) \
            -> tuple[SmtResult, tuple[int, int]]:
        engine = self._engine if self._engine is not None \
            else self._engine_cls(self._pdg, self._config)
        result = engine.solve_one(candidate, the_slice, deadline)
        return result, engine._memory_snapshot()
