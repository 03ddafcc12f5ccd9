"""Batched feasibility solving: the one per-candidate solve loop.

Every analysis and demand query decides its candidates here.
Candidates are partitioned into index batches and solved in the calling
process (the *inline* rung) or dispatched over a forked process pool.
Results are keyed by candidate index, so the report list
:meth:`QueryScheduler.solve_pending` assembles is **deterministic
regardless of completion order**.

Determinism of the *verdicts* across rungs rests on a stronger property
that the differential test suite (`tests/test_parallel_driver.py`)
enforces: a pool worker solves each query as a pure function of
``(PDG, candidate, engine config)`` — it builds a fresh engine (fresh
term manager) per query, so a query's outcome cannot depend on which
other queries ran before it, on which worker it landed, or on how many
workers there are.  Feasibility statuses, preprocess decisions and
program-variable witnesses then match the inline rung, which solves in
index order on the caller's own engine, exactly; only solver-internal
choice variables (``!k*``, filtered from witnesses) ever differed, see
``docs/parallelism.md``.

Purity is also what makes the layer *fault-tolerant* (see
``docs/robustness.md``): re-executing a lost batch is safe, so worker
death is survivable by requeueing.  Failure handling has three tiers:

* **per-query isolation** — an exception or a deadline overrun inside
  one query becomes an UNKNOWN :class:`QueryOutcome` decided by
  ``error`` or ``timeout``, instead of unwinding the batch (soundy
  convention: unproven paths stay reported);
* **per-batch retry** — a batch-level failure is re-executed up to
  ``FaultPolicy.max_retries`` times with backoff, then its queries are
  synthesized as UNKNOWN;
* **rung degradation** — worker death (``BrokenProcessPool``)
  requeues the lost batches on a rebuilt pool; after ``max_retries``
  rebuilds the remaining work falls down the ladder process → inline,
  so the run always completes with at-worst-UNKNOWN verdicts.

Worker model (``jobs`` alone picks the rung):

* **inline** — no pool: batches run one after another in the calling
  process, on the parent's PDG and candidate list, in index order, and
  every query is solved on the caller's engine (the scheduler's
  ``engine``), so cross-query caches and the modelled memory accumulate
  on that engine.  Runs start here at one job and on platforms without
  ``fork``; it is also the ladder's last rung.
* **process** — a forked pool.  The parent builds the workers' state
  (the caller's engine and candidate list) and hands it to the pool
  initializer; a ``fork`` context does not pickle initializer arguments,
  so every worker inherits the state, solves the caller's own list and
  builds a fresh engine per query over the parent's PDG and config.
  Batches move only candidate *indices* and compact
  :class:`QueryOutcome` records across the process boundary.

There is no thread rung: pure-Python solving holds the GIL, so threads
never beat inline (docs/parallelism.md).

Every rung computes each query's slice with
:func:`~repro.pdg.slicing.compute_slice`; nothing is memoized across
queries (docs/parallelism.md).

Budgets are enforced after every query on the inline rung (each outcome
is absorbed as soon as it exists, so a memory-out or time-out stops at
the query that caused it); the process rung checks per absorbed batch,
and its workers receive the run clock as an absolute
:class:`~repro.limits.Deadline` so they stop *between queries* once it
expires and return the partial batch.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor, wait)
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from repro.checkers.base import AnalysisResult, BugCandidate, BugReport
from repro.collector import paused
from repro.exec.breaker import CircuitBreaker
from repro.exec.faults import FaultPlan, FaultPolicy, backoff_delay
from repro.exec.telemetry import Telemetry
from repro.limits import (Budget, Deadline, QueryDeadlineExceeded,
                          ResourceExceeded)
from repro.pdg.slicing import compute_slice
from repro.smt.solver import DecidedBy, SmtStatus
from repro.smt.terms import Term

#: The pool's start context; None where the platform has no ``fork``, and
#: every run then solves inline.
_FORK = multiprocessing.get_context("fork") \
    if "fork" in multiprocessing.get_all_start_methods() else None


@dataclass
class ExecConfig:
    """Query-execution knobs (``repro analyze --jobs N``)."""

    jobs: int = 1
    #: Failure handling: error policy, per-query timeout, retry budget.
    faults: FaultPolicy = field(default_factory=FaultPolicy)
    #: Deterministic fault injection (tests/CI only; None = no faults).
    fault_plan: Optional[FaultPlan] = None
    #: Poison-group circuit breaker, owned by the session lifetime (the
    #: serve daemon keeps one per tenant).  The scheduler consults it
    #: only in the parent process.
    breaker: Optional[CircuitBreaker] = None

    def rung(self) -> str:
        """The rung a run starts on: ``inline`` (the calling process) at
        one job or where there is no ``fork``, a forked ``process`` pool
        above."""
        return "process" if self.jobs > 1 and _FORK is not None \
            else "inline"


@dataclass
class QueryOutcome:
    """One solved query, in transport form (picklable, index-keyed)."""

    index: int
    status: SmtStatus
    decided_by: DecidedBy
    seconds: float
    condition_nodes: int
    #: Program-variable witness (solver-internal ``!`` names excluded).
    witness: dict[str, int]
    memory_units: int
    condition_memory_units: int
    #: The message behind an ``error``, ``timeout`` or ``breaker``
    #: outcome: ``"ExcType: message"``, or the breaker metadata.
    error: Optional[str] = None
    #: SAT clause-database size after this query's search, learned
    #: clauses included (0 when preprocessing decided it); feeds the
    #: bench per-query columns.
    sat_clauses: int = 0

    @property
    def feasible(self) -> bool:
        # Soundy convention: only a proven-UNSAT path condition
        # suppresses the report.
        return self.status is not SmtStatus.UNSAT


@dataclass
class _Batch:
    """One unit of dispatch: an ordinal (submission order, the key fault
    plans name crash targets by), the candidate indices, and how many
    times this batch has been attempted already."""

    ordinal: int
    indices: list[int]
    attempt: int = 0

    def bumped(self) -> "_Batch":
        return replace(self, attempt=self.attempt + 1)


@dataclass
class _WorkerState:
    """Per-worker solving state: the caller's candidates and engine.

    The scheduler builds it in the parent.  The inline rung solves every
    query on ``engine``.  A process worker inherits the state across
    ``fork`` (``process_worker``) and solves each query on a fresh engine
    over ``engine``'s PDG and config, so a query's outcome is a function
    of ``(pdg, candidate, config)`` alone (the determinism contract in
    the module docstring).
    """

    engine: object
    candidates: list[BugCandidate]
    policy: FaultPolicy
    plan: Optional[FaultPlan] = None
    process_worker: bool = False

    @property
    def query_timeout(self) -> Optional[float]:
        """The per-query wall-clock cap, covering slicing as well as
        solving: ``FaultPolicy.query_timeout`` when set, else the
        engine's solver ``time_limit``."""
        if self.policy.query_timeout is not None:
            return self.policy.query_timeout
        return self.engine.solver_config.time_limit

    def solve_batch(self, indices: Sequence[int],
                    ordinal: Optional[int] = None, attempt: int = 0,
                    run_deadline: Optional[Deadline] = None,
                    emit: Optional[Callable[[QueryOutcome], None]] = None
                    ) -> list[QueryOutcome]:
        """Solve ``indices`` in order.  Outcomes are returned, or handed
        to ``emit`` one by one as they are produced (the inline rung
        absorbs, and checks the budget, after every query)."""
        if self.plan is not None:
            # May SIGKILL this process (process worker) or raise
            # WorkerCrash for the whole batch (inline rung).
            self.plan.crash_worker(ordinal, attempt, self.process_worker)
        outcomes: list[QueryOutcome] = []
        if emit is None:
            emit = outcomes.append
        for index in indices:
            if run_deadline is not None and run_deadline.expired:
                # The run clock is gone: return the partial batch instead
                # of solving past the limit; the parent's budget check
                # turns this into the run's "time" failure with all
                # results solved so far preserved.
                break
            emit(self._solve_one(index))
        return outcomes

    def _solve_one(self, index: int) -> QueryOutcome:
        candidate = self.candidates[index]
        start = time.perf_counter()
        deadline = Deadline.after(self.query_timeout)
        try:
            if self.plan is not None:
                self.plan.apply_query(index, deadline)
            engine = self.engine
            the_slice = compute_slice(engine.pdg, [candidate.path],
                                      deadline)
            if self.process_worker:
                # Without the run budget: a worker cannot observe the
                # whole run's clock, so the parent's completion loop
                # enforces it.
                engine = type(engine)(engine.pdg,
                                      replace(engine.config, budget=None))
            smt_result = engine.solve_one(candidate, the_slice, deadline)
            memory, condition_memory = engine._memory_snapshot()
        except Exception as error:
            # The one place an overrun outside SmtSolver.check (slicing,
            # condition assembly, an injected delay) becomes ``timeout``.
            timeout = isinstance(error, QueryDeadlineExceeded)
            if not timeout and (self.policy.on_error == "abort"
                                or isinstance(error, ResourceExceeded)):
                raise
            return QueryOutcome(
                index, SmtStatus.UNKNOWN,
                DecidedBy.TIMEOUT if timeout else DecidedBy.ERROR,
                time.perf_counter() - start, 0, {}, 0, 0,
                error=_describe(error))
        return QueryOutcome(
            index, smt_result.status, smt_result.decided_by,
            time.perf_counter() - start, smt_result.condition_nodes,
            public_witness(smt_result.model), memory,
            condition_memory, sat_clauses=smt_result.sat_clauses)


def _describe(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def public_witness(model: dict[Term, int]) -> dict[str, int]:
    """A report-ready witness: program variables only, sorted by name.

    Solver-internal choice variables (``!k*``, from ``fresh_var``) are
    dropped — their numbering depends on term-manager history, so they
    are the one model component that is not a pure function of the query.
    This is the only filter: renderers print the witness as given.
    """
    return {var.name: value
            for var, value in sorted(model.items(),
                                     key=lambda item: item[0].name)
            if not var.name.startswith("!")}


# --------------------------------------------------------------------- #
# Process-rung plumbing (module-level: batches name it by reference)
# --------------------------------------------------------------------- #

_PROCESS_STATE: Optional[_WorkerState] = None


def _process_init(state: _WorkerState) -> None:
    """Pool initializer: keep the state the worker inherited across
    ``fork``."""
    global _PROCESS_STATE
    _PROCESS_STATE = state


@paused
def _process_batch(indices: Sequence[int], ordinal: int, attempt: int,
                   run_deadline: Optional[Deadline]) -> list[QueryOutcome]:
    """Solve one batch in a worker process."""
    state = _PROCESS_STATE
    assert state is not None, "worker pool initializer did not run"
    return state.solve_batch(indices, ordinal, attempt, run_deadline)


# --------------------------------------------------------------------- #
# The scheduler
# --------------------------------------------------------------------- #


class QueryScheduler:
    """Batches one checker's candidate indices and solves them inline on
    ``engine`` or over a process pool, surviving query errors, deadline
    overruns and worker death."""

    def __init__(self, engine, config: ExecConfig, telemetry: Telemetry,
                 budget: Optional[Budget] = None) -> None:
        #: The caller's engine: the inline rung solves on it, and pool
        #: workers build their fresh engines from its PDG and config.
        self.engine = engine
        self.config = config
        self.telemetry = telemetry
        self.budget = budget
        #: index -> group_key, populated per run when a breaker is set;
        #: failure/success events are attributed to groups through it.
        self._breaker_groups: Optional[dict[int, tuple]] = None

    def run(self, candidates: list[BugCandidate],
            sink: Optional[list[QueryOutcome]] = None,
            indices: Optional[Sequence[int]] = None
            ) -> list[QueryOutcome]:
        """Solve every candidate; outcomes are returned sorted by index.

        ``sink`` (when given) receives outcomes as batches complete, so a
        caller that observes a budget exception still sees the partial
        results gathered before the violation.

        ``indices`` (when given) restricts solving to those positions of
        ``candidates``.  Store replay uses this to route only the
        candidates it could not replay through the pool.
        """
        outcomes = sink if sink is not None else []
        index_list = (list(range(len(candidates))) if indices is None
                      else list(indices))
        if not index_list:
            return outcomes
        index_list = self._admit_groups(index_list, candidates, outcomes)
        if not index_list:
            outcomes.sort(key=lambda outcome: outcome.index)
            return outcomes
        jobs = min(max(1, self.config.jobs), len(index_list))
        rung = self.config.rung()
        batches = [_Batch(ordinal, chunk) for ordinal, chunk
                   in enumerate(self._partition(index_list, jobs))]
        self.telemetry.annotate(jobs=jobs, backend=rung,
                                batches=len(batches))
        self.telemetry.add("counters", batches=len(batches))
        run_deadline = None
        if self.budget is not None and self.budget.max_seconds is not None:
            run_deadline = self.budget.deadline()

        remaining = batches
        if rung == "process":
            remaining = self._run_process(candidates, batches, outcomes,
                                          jobs, run_deadline)
            if remaining:
                # The degradation ladder's last rung.
                self.telemetry.add("faults", degradations=1)
                self.telemetry.annotate(degraded_to="inline")
        if remaining:
            self._run_inline(candidates, remaining, outcomes)
        if self.config.breaker is not None:
            self.telemetry.gauge(
                "breaker", open_groups=self.config.breaker.open_count())
        outcomes.sort(key=lambda outcome: outcome.index)
        return outcomes

    def solve_pending(self, candidates: list[BugCandidate],
                      pending: Optional[list[int]], result: AnalysisResult,
                      reports: dict[int, BugReport], store=None,
                      sink: Optional[list[QueryOutcome]] = None) -> None:
        """Solve the ``pending`` candidates (all when None) and assemble
        their outcomes into ``reports`` and ``result.unknown_queries``;
        ``sink`` (when given) keeps the outcomes, in index order.
        ``store`` is the run's :class:`~repro.exec.store.StoreBinding`.

        Outcomes are assembled even when a budget violation or an abort
        policy ends the run mid-way (the ``finally`` clause), so partial
        results survive.
        """
        outcomes = sink if sink is not None else []
        try:
            self.run(candidates, sink=outcomes, indices=pending)
        finally:
            outcomes.sort(key=lambda outcome: outcome.index)
            for outcome in outcomes:
                if outcome.status is SmtStatus.UNKNOWN:
                    result.unknown_queries += 1
                if store is not None:
                    store.observe(outcome.index, outcome.status)
                reports[outcome.index] = BugReport(
                    candidates[outcome.index], outcome.feasible,
                    outcome.decided_by, dict(outcome.witness))
                result.memory_units = max(result.memory_units,
                                          outcome.memory_units)
                result.condition_memory_units = max(
                    result.condition_memory_units,
                    outcome.condition_memory_units)

    # -- circuit breaker ------------------------------------------------- #

    def _admit_groups(self, index_list: list[int],
                      candidates: list[BugCandidate],
                      outcomes: list[QueryOutcome]) -> list[int]:
        """Consult the breaker once per candidate group: open groups are
        short-circuited up front (UNKNOWN outcomes carrying the breaker
        metadata, zero worker time); the rest dispatch normally."""
        breaker = self.config.breaker
        if breaker is None:
            self._breaker_groups = None
            return index_list
        group_of = {index: candidates[index].group_key()
                    for index in index_list}
        self._breaker_groups = group_of
        decisions: dict[tuple, bool] = {}
        allowed: list[int] = []
        blocked: list[int] = []
        for index in index_list:
            group = group_of[index]
            if group not in decisions:
                admitted, probe = breaker.admit(group)
                decisions[group] = admitted
                if probe:
                    self.telemetry.add("breaker", probes=1)
            (allowed if decisions[group] else blocked).append(index)
        if blocked:
            self.telemetry.add("breaker", short_circuits=len(blocked))
            self._absorb(
                [QueryOutcome(index, SmtStatus.UNKNOWN, DecidedBy.BREAKER,
                              0.0, 0, {}, 0, 0,
                              error=breaker.describe(group_of[index]))
                 for index in blocked],
                outcomes)
        return allowed

    def _breaker_batch_failure(self, batch: _Batch) -> None:
        """Attribute one failure event to every group in a batch that
        crashed its worker or was lost to pool death."""
        breaker = self.config.breaker
        if breaker is None or self._breaker_groups is None:
            return
        groups = {self._breaker_groups[index] for index in batch.indices
                  if index in self._breaker_groups}
        for group in sorted(groups):
            if breaker.record_failure(group):
                self.telemetry.add("breaker", trips=1)

    # -- partitioning --------------------------------------------------- #

    @staticmethod
    def _partition(index_list: list[int], jobs: int) -> list[list[int]]:
        # ~4 batches per worker balances load without drowning the pool
        # in per-batch dispatch overhead.
        count = len(index_list)
        size = max(1, -(-count // (jobs * 4)))
        return [index_list[low:low + size]
                for low in range(0, count, size)]

    # -- ladder rungs ---------------------------------------------------- #

    def _run_inline(self, candidates: list[BugCandidate],
                    work: list[_Batch], outcomes: list[QueryOutcome]
                    ) -> None:
        """Single-worker case and the ladder's last rung: no pool, on the
        caller's engine, always completes — a batch that keeps failing
        is synthesized UNKNOWN.  Each outcome is absorbed as soon as it
        exists, so the run budget is checked after every query (no run
        deadline needed).  A batch only fails before its first query (an
        injected crash) or fatally (abort policy, budget), so a retry
        never re-absorbs."""
        state = _WorkerState(self.engine, candidates, self.config.faults,
                             self.config.fault_plan)

        def absorb(outcome: QueryOutcome) -> None:
            self._absorb([outcome], outcomes)

        queue = deque(work)
        while queue:
            batch = queue.popleft()
            try:
                state.solve_batch(batch.indices, batch.ordinal,
                                  batch.attempt, emit=absorb)
            except Exception as error:
                retry = self._batch_failed(batch, error)
                if retry is not None:
                    queue.append(retry)
                else:
                    self._synthesize(batch, error, outcomes)

    def _run_process(self, candidates: list[BugCandidate],
                     work: list[_Batch], outcomes: list[QueryOutcome],
                     jobs: int, run_deadline: Optional[Deadline]
                     ) -> list[_Batch]:
        policy = self.config.faults
        state = _WorkerState(self.engine, candidates, policy,
                             self.config.fault_plan, process_worker=True)
        todo = list(work)
        rebuilds = 0
        while todo:
            executor = ProcessPoolExecutor(
                max_workers=jobs, mp_context=_FORK,
                initializer=_process_init, initargs=(state,))
            try:
                lost = self._drain(executor, todo, outcomes, run_deadline)
            finally:
                # wait=True: a pool abandoned mid-shutdown races
                # interpreter exit (its management thread writes to
                # closed pipes).
                executor.shutdown(wait=True, cancel_futures=True)
            if not lost:
                return []
            # Worker death broke the pool.  Requeue the lost batches on a
            # rebuilt pool (queries are pure, so re-execution is safe and
            # deterministic) until the rebuild budget runs out, then hand
            # the rest to the inline rung.
            rebuilds += 1
            self.telemetry.add("faults", pool_rebuilds=1,
                               requeued_batches=len(lost))
            for batch in lost:
                self._breaker_batch_failure(batch)
            if rebuilds > policy.max_retries:
                return lost
            # Token -1 keys the rebuild jitter stream apart from the
            # per-batch retry streams.
            time.sleep(backoff_delay(rebuilds - 1, token=-1))
            todo = [batch.bumped() for batch in lost]
        return []

    # -- completion loop ------------------------------------------------- #

    def _drain(self, executor: ProcessPoolExecutor, work: list[_Batch],
               outcomes: list[QueryOutcome],
               run_deadline: Optional[Deadline]) -> list[_Batch]:
        """Submit ``work`` to the pool and absorb completions until done.

        Returns the batches lost to worker death (broken pool); batches
        that merely *raised* are retried in place and synthesized as
        UNKNOWN once their retry budget is exhausted.  All successful
        results in a completion round are absorbed before any failure is
        propagated, so a budget abort or an ``on_error=abort`` run still
        reports everything solved so far.
        """
        def submit(batch: _Batch):
            return executor.submit(_process_batch, batch.indices,
                                   batch.ordinal, batch.attempt,
                                   run_deadline)

        futures = {submit(batch): batch for batch in work}
        pending = set(futures)
        lost: list[_Batch] = []
        broken = False
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            failures: list[tuple[_Batch, BaseException]] = []
            budget_error: Optional[ResourceExceeded] = None
            for future in done:
                batch = futures.pop(future)
                try:
                    batch_outcomes = future.result()
                except BrokenExecutor:
                    broken = True
                    lost.append(batch)
                    continue
                except Exception as error:
                    failures.append((batch, error))
                    continue
                try:
                    self._absorb(batch_outcomes, outcomes)
                except ResourceExceeded as error:
                    # Keep absorbing this round's successes before the
                    # budget violation propagates.
                    budget_error = error
            for batch, error in failures:
                retry = self._batch_failed(batch, error)
                if retry is None:
                    self._synthesize(batch, error, outcomes)
                elif broken:
                    lost.append(retry)
                else:
                    try:
                        future = submit(retry)
                    except BrokenExecutor:
                        broken = True
                        lost.append(retry)
                    else:
                        futures[future] = retry
                        pending.add(future)
            if budget_error is not None:
                raise budget_error
        return lost

    def _batch_failed(self, batch: _Batch,
                      error: BaseException) -> Optional[_Batch]:
        """Decide a failed batch's fate: re-raise (abort policy), retry
        (returns the bumped batch), or give up (returns None — the caller
        synthesizes UNKNOWN outcomes)."""
        if self.config.faults.on_error == "abort" \
                or isinstance(error, ResourceExceeded):
            raise error
        if batch.attempt >= self.config.faults.max_retries:
            return None
        self.telemetry.add("faults", batch_retries=1)
        time.sleep(backoff_delay(batch.attempt, token=batch.ordinal))
        return batch.bumped()

    def _synthesize(self, batch: _Batch, error: BaseException,
                    outcomes: list[QueryOutcome]) -> None:
        """Give every query of an unrecoverable batch an UNKNOWN outcome
        (soundy: the reports survive, flagged with the error)."""
        self.telemetry.add("faults",
                           synthesized_unknown=len(batch.indices))
        self._absorb(
            [QueryOutcome(index, SmtStatus.UNKNOWN, DecidedBy.ERROR, 0.0,
                          0, {}, 0, 0, error=_describe(error))
             for index in batch.indices],
            outcomes)

    def _absorb(self, batch: list[QueryOutcome],
                outcomes: list[QueryOutcome]) -> None:
        outcomes.extend(batch)
        breaker = self.config.breaker
        groups = self._breaker_groups if breaker is not None else None
        for outcome in batch:
            self.telemetry.record_query(outcome)
            self.telemetry.peak(
                "memory", peak_units=outcome.memory_units,
                peak_condition_units=outcome.condition_memory_units)
            group = groups.get(outcome.index) if groups else None
            if group is None or outcome.decided_by is DecidedBy.BREAKER:
                continue
            if outcome.decided_by in (DecidedBy.TIMEOUT, DecidedBy.ERROR):
                if breaker.record_failure(group):
                    self.telemetry.add("breaker", trips=1)
            elif breaker.record_success(group):
                self.telemetry.add("breaker", recoveries=1)
        if self.budget is not None:
            for outcome in batch:
                self.budget.check_memory(outcome.memory_units)
            self.budget.check_time()
