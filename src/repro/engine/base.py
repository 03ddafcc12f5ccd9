"""The skeleton every path-sensitive engine shares.

Pinpoint (Algorithm 2) and Fusion (Algorithm 5) run the same sparse
collection of dependence paths and differ only in *how* the feasibility
of a collected path is decided (see :mod:`repro.sparse.driver`).
:class:`PathSensitiveEngine` owns everything else: the per-checker
sparse views, the sequential slice cache, the per-query deadline, the
worker-pool execution plan, store binding, session-delta telemetry and
the store-fingerprint keys both engines share.  An engine supplies only

* :meth:`~PathSensitiveEngine.solve_one` — decide one candidate
  against its already-computed slice;
* :meth:`~PathSensitiveEngine._memory_snapshot` — its memory model;
* ``session_stats`` — its incremental-session counters;
* :meth:`~PathSensitiveEngine._fingerprint_extras` — its own
  verdict-affecting knobs;
* ``solver_config`` and ``incremental`` — where its config keeps the SMT
  solver settings (the per-query ``time_limit`` among them) and the
  incremental-sessions switch.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from functools import partial
from typing import Optional

from repro.absint.triage import make_triage
from repro.checkers.base import AnalysisResult, BugCandidate, Checker
from repro.exec.cache import SliceCache
from repro.exec.scheduler import ExecConfig, ExecutionPlan, WorkerSpec
from repro.exec.telemetry import Telemetry
from repro.limits import Deadline
from repro.pdg.graph import ProgramDependenceGraph
from repro.pdg.reduce import ViewRegistry
from repro.pdg.slicing import Slice, compute_slice
from repro.smt.incremental import SessionStats
from repro.smt.solver import SmtResult, SolverConfig
from repro.sparse.driver import QueryRecord, run_analysis


class PathSensitiveEngine:
    """Base of the engines that decide each candidate with an SMT query
    (module docstring).  ``config`` must carry ``sparse``, ``budget``
    and ``sparsify``."""

    name: str
    #: Counters of this engine's incremental solver sessions.
    session_stats: SessionStats

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

    @property
    def incremental(self) -> bool:
        """Whether grouped queries share per-group solver sessions."""
        raise NotImplementedError

    def solve_one(self, candidate: BugCandidate, the_slice: Slice,
                  deadline: Optional[Deadline],
                  group: Optional[object] = None) -> SmtResult:
        """Decide one candidate against its already-computed slice.
        Overrunning ``deadline`` yields UNKNOWN, never an exception.
        ``group`` (incremental mode only) routes the query through that
        group's persistent solver session."""
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
        """The checker's sparse view (None when sparsification is off);
        flushes view-registry counters into ``telemetry``."""
        view = self.views.view_for(checker) if self.config.sparsify \
            else None
        if telemetry is not None:
            self.views.flush_telemetry(telemetry)
        return view

    def solve_candidate(self, candidate: BugCandidate, *, index=None,
                        cache: Optional[SliceCache] = None,
                        time_limit: Optional[float] = None) -> SmtResult:
        """Slice one candidate and decide it with :meth:`solve_one`.

        One deadline covers the whole query — slicing included; it runs
        ``time_limit`` seconds (default: the solver's own limit).
        ``QueryDeadlineExceeded`` escaping from the slice stage is the
        caller's to convert to UNKNOWN.  ``cache`` memoizes slices;
        without one, ``index`` (a view's condensed slice index) speeds up
        the slice computation."""
        deadline = Deadline.after(self.solver_config.time_limit
                                  if time_limit is None else time_limit)
        if cache is not None:
            the_slice = cache.get(self.pdg, [candidate.path],
                                  deadline=deadline)
        else:
            the_slice = compute_slice(self.pdg, [candidate.path],
                                      deadline=deadline, index=index)
        group = candidate.group_key() if self.incremental else None
        return self.solve_one(candidate, the_slice, deadline, group)

    def analyze(self, checker: Checker,
                exec_config: Optional[ExecConfig] = None,
                telemetry: Optional[Telemetry] = None,
                triage=None, store=None) -> AnalysisResult:
        """Run the checker; ``exec_config`` opts into the query-execution
        layer (slice memoization, ``jobs > 1`` worker pools, telemetry).
        ``triage`` opts into the abstract-interpretation pre-pass: pass
        ``True`` (default config), a ``TriageConfig``, or a prebuilt
        ``CandidateTriage``.  With no argument the seed sequential path
        runs untouched.  ``store`` (an
        :class:`~repro.exec.store.ArtifactStore`) opts into warm
        incremental re-analysis: cached verdicts whose dependencies are
        unchanged are replayed instead of re-solved.

        The engine object may be reused across calls (the serve daemon
        keeps it hot so per-group solver sessions survive between
        requests); all per-run state — query records, telemetry deltas,
        the result's counters — is rebuilt here, so one request never
        observes a previous request's numbers."""
        self.query_records = []
        sessions_before = self.session_stats.as_tuple()
        view = self.checker_view(checker, telemetry)
        index = view.slice_index if view is not None else None
        # Sequential-path slice memo (workers keep their own; see the
        # scheduler).  Only built when the caller opted into the exec
        # layer and this run will actually solve in-process.
        cache = None
        if exec_config is not None and exec_config.effective_jobs <= 1:
            cache = SliceCache(exec_config.slice_cache_capacity,
                               index=index)
        solve = partial(self.solve_candidate, index=index, cache=cache)

        execution = self._execution_plan(checker, exec_config, telemetry,
                                         slice_index=index)
        triage = make_triage(self.pdg, checker, triage, view=view)
        binding = store.bind(self.pdg,
                             self._store_fingerprint(triage, checker),
                             checker.name, telemetry) \
            if store is not None else None
        result = run_analysis(self.pdg, checker, self.name, solve,
                              self._memory_snapshot, self.config.budget,
                              self.config.sparse, self.query_records,
                              execution=execution, triage=triage,
                              store=binding, view=view)
        if cache is not None and telemetry is not None:
            stats = cache.stats()
            telemetry.record_cache("slice", stats.hits, stats.misses,
                                   stats.evictions,
                                   capacity=stats.capacity)
        if telemetry is not None and self.incremental:
            # Sequential-path sessions live on this engine; worker-side
            # sessions are recorded by the scheduler.  Only this run's
            # delta is recorded: a hot engine's cumulative totals must
            # not be re-counted by every later request.
            delta = tuple(
                now - before for now, before in
                zip(self.session_stats.as_tuple(), sessions_before))
            telemetry.record_incremental(
                **asdict(SessionStats.from_tuple(delta)))
        return result

    def _store_fingerprint(self, triage, checker: Checker) -> dict:
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
        sparsify = self.config.sparsify
        fingerprint = {
            "engine": self.name,
            "width": program.width,
            "loop_strategy": getattr(program, "loop_strategy", None),
            "loop_paths": getattr(program, "loop_paths", None),
            "enabled_passes": None if solver.enabled_passes is None
            else list(solver.enabled_passes),
            "use_preprocess": solver.use_preprocess,
            # Incremental sessions can produce different (equally valid)
            # SAT models, and witnesses are persisted with verdicts.
            "incremental": self.incremental,
            "sparse": [sparse.max_paths_per_pair, sparse.max_path_len,
                       sparse.max_candidates, sparse.revisit_cap],
            "triage": None if triage is None
            else [triage.config.max_refinement_steps,
                  triage.config.widen_after],
            # The sparsified pipeline is byte-identical by contract, but
            # a footprint bug would silently replay wrong verdicts, so
            # the flag and the checker's footprint version key the store
            # defensively (flipping either invalidates warm artifacts).
            "sparsify": sparsify,
            "footprint": [list(part) if isinstance(part, tuple) else part
                          for part in checker.footprint().key()]
            if sparsify else None,
        }
        fingerprint.update(self._fingerprint_extras())
        return fingerprint

    def _execution_plan(self, checker: Checker,
                        exec_config: Optional[ExecConfig],
                        telemetry: Optional[Telemetry],
                        slice_index=None) -> Optional[ExecutionPlan]:
        """``slice_index`` (the checker view's) goes to the scheduler's
        in-process rungs; it never rides in the pickled spec."""
        if exec_config is None and telemetry is None:
            return None
        config = exec_config if exec_config is not None else ExecConfig()
        spec = None
        # A fault plan needs the scheduler even at jobs=1: injection
        # hooks live in its _WorkerState, and retry/synthesize live in
        # its ladder.  A per-request query timeout (FaultPolicy) takes
        # the same route — the worker state is where it overrides the
        # engine solver's own limit (the serve daemon's per-request
        # deadlines rely on this at jobs=1).  A circuit breaker does
        # too: admission and short-circuiting live in the scheduler.
        # None of this forks at one job: ``auto`` runs the inline rung,
        # in this process; only an explicit ``process`` backend pools.
        if config.effective_jobs > 1 or config.fault_plan is not None \
                or config.faults.query_timeout is not None \
                or config.breaker is not None:
            # Workers cannot observe the whole run's clock; the
            # completion loop enforces the budget at batch granularity.
            spec = WorkerSpec(self.pdg, checker, self.config.sparse,
                              QueryRunner,
                              (type(self), replace(self.config, budget=None)),
                              query_timeout=self.solver_config.time_limit,
                              grouped=self.incremental,
                              sparsify=self.config.sparsify)
        return ExecutionPlan(config, spec, telemetry,
                             slice_index=slice_index)


class QueryRunner:
    """The scheduler's query function for every path-sensitive engine.

    It is its own query factory: :class:`~repro.exec.scheduler.WorkerSpec`
    carries the class (pickled by reference) and ``(engine class, engine
    config)`` as the factory config.

    A query without a ``group`` runs on a *fresh* engine (fresh term
    manager; for Pinpoint also no cross-query summary cache), so its
    outcome is a function of ``(pdg, candidate, config)`` alone — the
    determinism contract of :mod:`repro.exec.scheduler`.  Grouped queries
    (incremental mode) share one engine for the runner's lifetime: the
    scheduler builds one runner per *batch*, and batches contain whole
    groups, so every candidate of a group is decided inside one per-group
    :class:`~repro.smt.incremental.SolverSession`.  Determinism holds
    because a group's queries always arrive in candidate-index order and
    SAT variable numbering depends only on encoding order.
    """

    def __init__(self, pdg: ProgramDependenceGraph, recipe) -> None:
        self._pdg = pdg
        self._engine_cls, self._config = recipe
        self._shared: Optional[PathSensitiveEngine] = None

    def __call__(self, candidate: BugCandidate, the_slice: Slice,
                 deadline: Optional[Deadline] = None,
                 group: Optional[object] = None) \
            -> tuple[SmtResult, tuple[int, int]]:
        if group is None:
            engine = self._engine_cls(self._pdg, self._config)
        else:
            if self._shared is None:
                self._shared = self._engine_cls(self._pdg, self._config)
            engine = self._shared
        result = engine.solve_one(candidate, the_slice, deadline, group)
        return result, engine._memory_snapshot()

    def session_stats(self) -> SessionStats:
        if self._shared is None:
            return SessionStats()
        return self._shared.session_stats.snapshot()
