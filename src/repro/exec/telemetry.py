"""Structured analysis telemetry: spans, counters, solver stats.

One :class:`Telemetry` instance accompanies one analysis run.  The
engine's analysis loop and the query scheduler feed it spans (inclusive
wall-time totals per named layer), per-query solver outcomes, store and
view counters and peak modeled-memory readings; the CLI serialises the
result as JSON (``repro analyze --telemetry out.json``) so benchmark
sweeps and regressions can be diffed mechanically.

Every duration the export carries sits in its ``spans`` section.  The
other sections hold counters (:meth:`Telemetry.add` sums them), peaks
(:meth:`Telemetry.peak` keeps the maximum) and gauges
(:meth:`Telemetry.gauge` sets the current value).

The object is thread-safe: the serve daemon's worker threads merge their
runs into one daemon-wide instance concurrently.  Scheduler worker
*processes* ship only their query outcomes, which the scheduler records
in the parent (see :mod:`repro.exec.scheduler`).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.smt.solver import DecidedBy

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
#: /14 dropped the "incremental" and "caches" sections (solver sessions
#: and the slice cache were deleted).
#: /15 dropped the dirty-set size from the "store" section (the store
#: keeps only verdict entries).
#: /16 dropped the "loops" section (loop summaries were deleted).
#: /17 added the "decided_by" section (verdicts per deciding stage) in
#: place of the four solver/faults/store counters that repeated it.
#: /18 moved every duration into the "spans" section (formerly
#: "stages"): "wall_seconds", "solver.solve_seconds", "reduce.build_seconds"
#: and the replay counters "query.verdicts_replayed" and
#: "serve.replayed_verdicts" are gone.
SCHEMA = "repro-exec-telemetry/18"

#: Request-latency samples kept for the percentile estimates; the serve
#: soak keeps a daemon alive indefinitely, so the window is bounded
#: (newest samples win).
LATENCY_WINDOW = 4096

#: The counter sections, in export order (after ``schema``, ``context``
#: and ``spans``).
_SECTIONS = ("counters", "solver", "decided_by", "memory", "store",
             "reduce", "query", "serve", "breaker", "faults", "gc")

#: Keys :meth:`Telemetry.merge` folds by maximum (they are written by
#: :meth:`Telemetry.peak`) ...
_PEAKS = {"solver": {"max_condition_nodes"},
          "memory": {"peak_units", "peak_condition_units"}}
#: ... and keys it skips, since their owner sets them
#: (:meth:`Telemetry.gauge`).  The whole ``serve`` section is
#: daemon-owned and never merged.
_GAUGES = {"breaker": {"open_groups"}}


class Telemetry:
    """Accumulates one analysis run's spans, counters and solver stats."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.context: dict[str, object] = {}
        #: name -> {"seconds", "count"}: inclusive wall-time totals.
        self.spans: dict[str, dict[str, float]] = {}
        self.counters: dict[str, int] = {}
        self.solver: dict[str, int] = {
            "total": 0, "sat": 0, "unsat": 0, "unknown": 0,
            "max_condition_nodes": 0,
        }
        #: Verdicts per deciding stage (:class:`DecidedBy` values).
        self.decided_by = {value.value: 0 for value in DecidedBy}
        self.memory: dict[str, int] = {
            "peak_units": 0, "peak_condition_units": 0,
        }
        self.store: dict[str, int] = {
            "store_hits": 0,           # verdicts found valid in the store
            "store_misses": 0,         # candidates never seen before
            "store_invalidations": 0,  # entries present but stale
            "corrupt_entries": 0,      # payloads failing checksum/parse
            "quarantined": 0,          # corrupt files moved to quarantine/
            "io_errors": 0,            # OSError on store read or write
        }
        self.serve: dict[str, float] = {
            "requests": 0,           # requests answered (success or error)
            "errors": 0,             # requests answered with an error
            "rejected": 0,           # requests refused by admission (429)
            "sessions_alive": 0,     # tenant sessions currently resident
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
        self.reduce: dict[str, int] = {
            "views_built": 0,        # pruned views constructed from scratch
            "view_cache_hits": 0,    # analyze() calls served a cached view
            "views_invalidated": 0,  # views dropped by an edit
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
        }
        self._latencies: list[float] = []
        self.faults: dict[str, int] = {
            "batch_retries": 0,       # batch re-executions after a raise
            "requeued_batches": 0,    # batches resubmitted after pool death
            "pool_rebuilds": 0,       # process pools rebuilt after death
            "degradations": 0,        # ladder steps (process→inline)
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

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def annotate(self, **context: object) -> None:
        """Attach run metadata (engine, checker, jobs, backend, ...)."""
        with self._lock:
            self.context.update(context)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time one occurrence of the named layer."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_span(name, time.perf_counter() - start)

    def add_span(self, name: str, seconds: float, count: int = 1) -> None:
        """Fold a duration measured elsewhere into the named span."""
        with self._lock:
            self._add_span(name, seconds, count)

    def _add_span(self, name: str, seconds: float, count: int) -> None:
        entry = self.spans.setdefault(name, {"seconds": 0.0, "count": 0})
        entry["seconds"] += seconds
        entry["count"] += count

    def _section(self, name: str) -> dict:
        if name not in _SECTIONS:
            raise ValueError(f"unknown telemetry section {name!r}")
        return getattr(self, name)

    def add(self, section: str, **counts: int) -> None:
        """Sum ``counts`` into the named section."""
        target = self._section(section)
        with self._lock:
            for key, amount in counts.items():
                target[key] = target.get(key, 0) + amount

    def peak(self, section: str, **values: int) -> None:
        """Raise the named section's high-water marks to ``values``."""
        target = self._section(section)
        with self._lock:
            for key, value in values.items():
                target[key] = max(target.get(key, 0), value)

    def gauge(self, section: str, **values: int) -> None:
        """Set the named section's current values (owner-set, never
        merged)."""
        target = self._section(section)
        with self._lock:
            target.update(values)

    def record_query(self, outcome) -> None:
        """One scheduler ``QueryOutcome``; a breaker short-circuit was
        never dispatched, so it skips the solver stats and the
        ``exec.query`` span."""
        with self._lock:
            self.decided_by[outcome.decided_by.value] += 1
            if outcome.decided_by is DecidedBy.BREAKER:
                return
            solver = self.solver
            solver["total"] += 1
            solver[outcome.status.value] += 1
            solver["max_condition_nodes"] = max(
                solver["max_condition_nodes"], outcome.condition_nodes)
            self._add_span("exec.query", outcome.seconds, 1)

    def record_latency(self, seconds: float) -> None:
        """One served request's wall-clock latency sample."""
        with self._lock:
            self._latencies.append(seconds)
            if len(self._latencies) > LATENCY_WINDOW:
                del self._latencies[:-LATENCY_WINDOW]

    def merge(self, other: "Telemetry") -> None:
        """Fold another instance's run into this one: spans and counters
        sum, peaks take the maximum, gauges are skipped.

        The serve daemon gives every request a private Telemetry (so a
        request's counters are exactly that request's work) and merges
        it into the server-lifetime instance afterwards.  Context is
        *not* merged — it names one run, not an aggregate; the serve
        section and latency samples are daemon-owned and never merged
        either.
        """
        snapshot = other.as_dict()
        with self._lock:
            for name, entry in snapshot["spans"].items():
                self._add_span(name, entry["seconds"], entry["count"])
            for section in _SECTIONS:
                if section == "serve":
                    continue
                mine = getattr(self, section)
                peaks = _PEAKS.get(section, ())
                gauges = _GAUGES.get(section, ())
                for key, value in snapshot[section].items():
                    if key in peaks:
                        mine[key] = max(mine.get(key, 0), value)
                    elif key not in gauges:
                        mine[key] = mine.get(key, 0) + value

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
            document = {
                "schema": SCHEMA,
                "context": dict(self.context),
                "spans": {name: dict(entry)
                          for name, entry in sorted(self.spans.items())},
            }
            for section in _SECTIONS:
                document[section] = dict(getattr(self, section))
            document["counters"] = dict(sorted(self.counters.items()))
            serve = document["serve"]
            serve["p50_latency_s"] = self._percentile(self._latencies, 0.50)
            serve["p95_latency_s"] = self._percentile(self._latencies, 0.95)
            return document

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=False)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")
