"""Structured analysis telemetry: stage timings, counters, solver stats.

One :class:`Telemetry` instance accompanies one analysis run.  The driver
and the query scheduler feed it per-stage wall times, per-query solver
outcomes, cache hit/miss counters and peak modeled-memory readings; the
CLI serialises the result as JSON (``repro analyze --telemetry out.json``)
so benchmark sweeps and regressions can be diffed mechanically.

The object is thread-safe: the scheduler's worker threads and the
completion loop record into it concurrently.  Worker *processes* record
into their own private counters, which the scheduler merges batch by
batch (see :mod:`repro.exec.scheduler`).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.smt.solver import SmtStatus

#: Schema identifier embedded in every export, bumped on layout changes.
#: /2 added the "triage" section (abstract-interpretation pre-pass).
#: /3 added the "faults" section (fault-tolerance counters: per-query
#: errors/timeouts, batch retries/requeues, pool rebuilds, backend
#: degradations, synthesized-UNKNOWN outcomes).
#: /4 added the "store" section (persistent artifact store: verdict
#: hits/misses/invalidations, dirty-set size, replayed verdicts).
#: /5 added the "incremental" section (assumption-based solver sessions:
#: sessions opened, assumption solves, clauses/encodings reused, learned
#: clauses retained across queries).
#: /6 added the "serve" section (repro serve daemon counters: requests
#: served/rejected, live tenant sessions, replayed verdicts, admission
#: queue depth/peak, p50/p95 request latency) and Telemetry.merge (the
#: daemon folds per-request instances into its server-lifetime one).
#: /7 added the "reduce" section (checker-specific PDG sparsification:
#: views built/cached/remapped/invalidated, per-checker nodes and edges
#: kept vs elided, SCC counts, bypass-edge stitches, elided sources,
#: view (re)build seconds).
#: /8 added the "breaker" section (poison-group circuit breaker: trips,
#: short-circuited queries, half-open probes, recoveries, open groups),
#: store integrity counters (corrupt_entries, quarantined, io_errors)
#: and serve crash-recovery counters (sessions_recovered, clean vs
#: crash recoveries, journal records/compactions, watchdog rebuilds,
#: client disconnects).
#: /9 added the "query" section (demand-driven value-flow queries:
#: queries answered, pair-region nodes/edges vs the full PDG, per-pair
#: verdict-memo hits, verdicts replayed from the artifact store).
#: /10 added the "loops" section (solver-driven loop summaries: loops
#: summarized vs fallen back to unrolling, feasible paths enumerated,
#: summary-cache hits, lowering-time SAT feasibility checks).
#: /11 dropped the "triage" section (the triage pass was deleted).
#: /12 dropped "views_remapped", "scc_count" and "bypass_edges" from the
#: "reduce" section (views are rebuilt after an edit, never condensed).
#: /13 added the "gc" section (cyclic-collector runs per generation).
SCHEMA = "repro-exec-telemetry/13"

#: Request-latency samples kept for the percentile estimates; the serve
#: soak keeps a daemon alive indefinitely, so the window is bounded
#: (newest samples win).
LATENCY_WINDOW = 4096


class Telemetry:
    """Accumulates one analysis run's timings, counters and solver stats."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.context: dict[str, object] = {}
        self.stages: dict[str, dict[str, float]] = {}
        self.counters: dict[str, int] = {}
        self.queries: dict[str, float] = {
            "total": 0, "sat": 0, "unsat": 0, "unknown": 0,
            "decided_in_preprocess": 0, "solve_seconds": 0.0,
            "max_condition_nodes": 0,
        }
        self.caches: dict[str, dict[str, int]] = {}
        self.memory: dict[str, int] = {
            "peak_units": 0, "peak_condition_units": 0,
        }
        self.store: dict[str, int] = {
            "store_hits": 0,           # verdicts found valid in the store
            "store_misses": 0,         # candidates never seen before
            "store_invalidations": 0,  # entries present but stale
            "dirty_functions": 0,      # size of this run's dirty set
            "replayed_verdicts": 0,    # reports served without any solve
            "corrupt_entries": 0,      # payloads failing checksum/parse
            "quarantined": 0,          # corrupt files moved to quarantine/
            "io_errors": 0,            # OSError on store read or write
        }
        self.incremental: dict[str, int] = {
            "sessions": 0,           # solver sessions opened
            "assumption_solves": 0,  # queries decided under assumptions
            "reused_clauses": 0,     # clauses already present at a solve
            "encoder_hits": 0,       # term ids served from the CNF cache
            "learned_kept": 0,       # learned clauses kept across solves
        }
        self.serve: dict[str, float] = {
            "requests": 0,           # requests answered (success or error)
            "errors": 0,             # requests answered with an error
            "rejected": 0,           # requests refused by admission (429)
            "sessions_alive": 0,     # tenant sessions currently resident
            "replayed_verdicts": 0,  # verdicts served from the warm store
            "queue_depth": 0,        # admitted requests in flight right now
            "queue_peak": 0,         # high-water mark of queue_depth
            "sessions_recovered": 0, # sessions rehydrated from the journal
            "recoveries_clean": 0,   # ... after a clean (drained) shutdown
            "recoveries_crash": 0,   # ... after a crash (no clean marker)
            "journal_records": 0,    # session-journal records appended
            "journal_compactions": 0,  # journal rewrites (append overflow)
            "watchdog_rebuilds": 0,  # executors replaced by the watchdog
            "client_disconnects": 0, # responses cut off mid-send
        }
        self.breaker: dict[str, int] = {
            "trips": 0,           # closed -> open transitions
            "short_circuits": 0,  # queries synthesized while a group is open
            "probes": 0,          # half-open trial dispatches
            "recoveries": 0,      # half-open -> closed transitions
            "open_groups": 0,     # groups currently open (gauge)
        }
        self.reduce: dict[str, float] = {
            "views_built": 0,        # pruned views constructed from scratch
            "view_cache_hits": 0,    # analyze() calls served a cached view
            "views_invalidated": 0,  # views dropped by an edit
            "build_seconds": 0.0,    # total view construction time
            "nodes_kept": 0,         # footprint-reachable vertices kept
            "nodes_elided": 0,       # vertices pruned from walks
            "edges_kept": 0,         # data edges kept in views
            "edges_elided": 0,       # data edges pruned from walks
            "live_sources": 0,       # sources that can reach a sink
            "sources_elided": 0,     # sources pruned as unobservable
        }
        self.query: dict[str, int] = {
            "demand_queries": 0,     # demand queries answered
            "region_nodes": 0,       # pair-region vertices walked (sum)
            "region_edges": 0,       # pair-region data edges (sum)
            "pdg_nodes": 0,          # full-PDG vertices at query time (sum)
            "pdg_edges": 0,          # full-PDG data edges at query time
            "region_cache_hits": 0,  # queries served from the pair memo
            "verdicts_replayed": 0,  # reports replayed from the store
        }
        self.loops: dict[str, int] = {
            "loops_summarized": 0,    # loops lowered as summary regions
            "paths_enumerated": 0,    # feasible paths across summaries
            "fallback_unrolls": 0,    # loops that fell back to unrolling
            "summary_cache_hits": 0,  # recipes reused from the cache
            "sat_checks": 0,          # lowering-time feasibility solves
        }
        self._latencies: list[float] = []
        self.faults: dict[str, int] = {
            "query_errors": 0,        # isolated per-query exceptions
            "query_timeouts": 0,      # per-query deadline overruns
            "batch_retries": 0,       # batch re-executions after a raise
            "requeued_batches": 0,    # batches resubmitted after pool death
            "pool_rebuilds": 0,       # process pools rebuilt after death
            "degradations": 0,        # ladder steps (process→thread→inline)
            "synthesized_unknown": 0, # outcomes fabricated after retry
                                      # exhaustion
        }
        #: Python's cyclic-collector runs during the run, per generation
        #: (the CLI takes ``gc.get_stats()`` deltas around its command);
        #: not in ``counters``, since the counts are not deterministic.
        self.gc: dict[str, int] = {
            "collections_gen0": 0,
            "collections_gen1": 0,
            "collections_gen2": 0,
        }
        self.wall_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def annotate(self, **context: object) -> None:
        """Attach run metadata (engine, checker, jobs, backend, ...)."""
        with self._lock:
            self.context.update(context)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time one occurrence of a named pipeline stage."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_stage(name, time.perf_counter() - start)

    def add_stage(self, name: str, seconds: float, count: int = 1) -> None:
        with self._lock:
            entry = self.stages.setdefault(name,
                                           {"seconds": 0.0, "count": 0})
            entry["seconds"] += seconds
            entry["count"] += count

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def record_query(self, status: SmtStatus, seconds: float,
                     decided_in_preprocess: bool,
                     condition_nodes: int) -> None:
        """One feasibility query's outcome."""
        with self._lock:
            q = self.queries
            q["total"] += 1
            q[status.value] += 1
            if decided_in_preprocess:
                q["decided_in_preprocess"] += 1
            q["solve_seconds"] += seconds
            q["max_condition_nodes"] = max(q["max_condition_nodes"],
                                           condition_nodes)

    def record_cache(self, name: str, hits: int, misses: int,
                     evictions: int = 0,
                     capacity: Optional[int] = None) -> None:
        """Accumulate hit/miss counters for one named cache."""
        with self._lock:
            entry = self.caches.setdefault(
                name, {"hits": 0, "misses": 0, "evictions": 0})
            entry["hits"] += hits
            entry["misses"] += misses
            entry["evictions"] += evictions
            if capacity is not None:
                entry["capacity"] = capacity

    def record_store(self, **counts: int) -> None:
        """One artifact-store run's counters (see the ``store`` keys)."""
        with self._lock:
            for key, amount in counts.items():
                self.store[key] = self.store.get(key, 0) + amount

    def record_incremental(self, **counts: int) -> None:
        """One engine's or worker batch's incremental-solving counters
        (see the ``incremental`` section keys)."""
        with self._lock:
            for key, amount in counts.items():
                self.incremental[key] = self.incremental.get(key, 0) + amount

    def record_reduce(self, **counts: float) -> None:
        """One registry flush's sparsification counters (see the
        ``reduce`` section keys)."""
        with self._lock:
            for key, amount in counts.items():
                self.reduce[key] = self.reduce.get(key, 0) + amount

    def record_breaker(self, **counts: int) -> None:
        """Accumulate circuit-breaker counters (see the ``breaker`` keys);
        ``open_groups`` is a gauge and is *set*, not accumulated."""
        with self._lock:
            for key, amount in counts.items():
                if key == "open_groups":
                    self.breaker[key] = amount
                else:
                    self.breaker[key] = self.breaker.get(key, 0) + amount

    def record_demand(self, **counts: int) -> None:
        """One demand query's region and cache counters (see the
        ``query`` section keys)."""
        with self._lock:
            for key, amount in counts.items():
                self.query[key] = self.query.get(key, 0) + amount

    def record_loops(self, **counts: int) -> None:
        """One compilation's loop-summarization counters (see the
        ``loops`` section keys)."""
        with self._lock:
            for key, amount in counts.items():
                self.loops[key] = self.loops.get(key, 0) + amount

    def record_gc(self, **counts: int) -> None:
        """Collector runs per generation (see the ``gc`` section keys)."""
        with self._lock:
            for key, amount in counts.items():
                self.gc[key] = self.gc.get(key, 0) + amount

    def record_fault(self, kind: str, amount: int = 1) -> None:
        """One fault-tolerance event (see the ``faults`` section keys)."""
        with self._lock:
            self.faults[kind] = self.faults.get(kind, 0) + amount

    def serve_add(self, **counts: int) -> None:
        """Accumulate serve-daemon counters (see the ``serve`` keys)."""
        with self._lock:
            for key, amount in counts.items():
                self.serve[key] = self.serve.get(key, 0) + amount

    def serve_gauge(self, **values: int) -> None:
        """Set serve-daemon gauges (current values, not accumulations);
        ``queue_peak`` folds in as a high-water mark."""
        with self._lock:
            for key, value in values.items():
                if key == "queue_peak":
                    self.serve[key] = max(self.serve.get(key, 0), value)
                else:
                    self.serve[key] = value

    def record_latency(self, seconds: float) -> None:
        """One served request's wall-clock latency sample."""
        with self._lock:
            self._latencies.append(seconds)
            if len(self._latencies) > LATENCY_WINDOW:
                del self._latencies[:-LATENCY_WINDOW]

    def merge(self, other: "Telemetry") -> None:
        """Fold another instance's run counters into this one.

        The serve daemon gives every request a private Telemetry (so a
        request's counters are exactly that request's work) and merges
        it into the server-lifetime instance afterwards.  Context is
        *not* merged — it names one run, not an aggregate; serve gauges
        and latency samples are daemon-owned and never merged either.
        """
        snapshot = other.as_dict()
        with self._lock:
            for name, entry in snapshot["stages"].items():
                mine = self.stages.setdefault(name,
                                              {"seconds": 0.0, "count": 0})
                mine["seconds"] += entry["seconds"]
                mine["count"] += entry["count"]
            for name, amount in snapshot["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + amount
            for key, value in snapshot["solver"].items():
                if key == "max_condition_nodes":
                    self.queries[key] = max(self.queries[key], value)
                else:
                    self.queries[key] += value
            for name, entry in snapshot["caches"].items():
                mine = self.caches.setdefault(
                    name, {"hits": 0, "misses": 0, "evictions": 0})
                for key, value in entry.items():
                    if key == "capacity":
                        mine[key] = value
                    else:
                        mine[key] = mine.get(key, 0) + value
            for key, value in snapshot["memory"].items():
                self.memory[key] = max(self.memory[key], value)
            for section, mine in (("store", self.store),
                                  ("incremental", self.incremental),
                                  ("reduce", self.reduce),
                                  ("query", self.query),
                                  ("loops", self.loops),
                                  ("faults", self.faults),
                                  ("gc", self.gc)):
                for key, value in snapshot[section].items():
                    mine[key] = mine.get(key, 0) + value
            for key, value in snapshot.get("breaker", {}).items():
                if key == "open_groups":
                    # Gauge owned by the daemon's sync pass, not additive.
                    continue
                self.breaker[key] = self.breaker.get(key, 0) + value
            self.wall_seconds += snapshot["wall_seconds"]

    def record_memory(self, units: int, condition_units: int = 0) -> None:
        """Fold one modeled-memory snapshot into the peaks."""
        with self._lock:
            self.memory["peak_units"] = max(self.memory["peak_units"],
                                            units)
            self.memory["peak_condition_units"] = max(
                self.memory["peak_condition_units"], condition_units)

    def set_wall_seconds(self, seconds: float) -> None:
        with self._lock:
            self.wall_seconds = seconds

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    @staticmethod
    def _percentile(samples: list[float], fraction: float) -> float:
        """Nearest-rank percentile of the latency window (0.0 when no
        request has completed yet)."""
        if not samples:
            return 0.0
        ordered = sorted(samples)
        rank = min(len(ordered) - 1,
                   max(0, int(fraction * len(ordered) + 0.5) - 1))
        return ordered[rank]

    def as_dict(self) -> dict:
        with self._lock:
            serve = dict(self.serve)
            serve["p50_latency_s"] = self._percentile(self._latencies, 0.50)
            serve["p95_latency_s"] = self._percentile(self._latencies, 0.95)
            return {
                "schema": SCHEMA,
                "context": dict(self.context),
                "wall_seconds": self.wall_seconds,
                "stages": {name: dict(entry)
                           for name, entry in sorted(self.stages.items())},
                "counters": dict(sorted(self.counters.items())),
                "solver": dict(self.queries),
                "caches": {name: dict(entry)
                           for name, entry in sorted(self.caches.items())},
                "memory": dict(self.memory),
                "store": dict(self.store),
                "incremental": dict(self.incremental),
                "reduce": dict(self.reduce),
                "query": dict(self.query),
                "loops": dict(self.loops),
                "serve": serve,
                "breaker": dict(self.breaker),
                "faults": dict(self.faults),
                "gc": dict(self.gc),
            }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=False)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")
