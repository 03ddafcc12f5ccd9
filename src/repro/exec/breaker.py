"""Poison-group circuit breaker for the query scheduler.

One pathological candidate group — a sink whose queries reliably crash
workers, overrun every deadline, or raise until the retry budget is
exhausted — would otherwise burn the full retry ladder on every request
that touches it.  The breaker remembers, per
:meth:`repro.checkers.base.BugCandidate.group_key` (``(checker, sink
function)``), how a group has been behaving and cuts the ladder off:

* **closed** — the healthy state; queries dispatch normally.  Each
  failure event (a worker crash attributed to the group's batch, a
  per-query timeout, a per-query error, a batch synthesized UNKNOWN
  after retry exhaustion) increments a *consecutive* failure counter;
  any clean outcome for the group resets it.
* **open** — entered when the counter reaches ``threshold``.  The
  scheduler stops dispatching the group entirely: its queries are
  synthesized as UNKNOWN up front, with breaker metadata in the outcome
  error, costing zero worker time.  The rest of the run is unaffected —
  that is the point.
* **half-open** — after ``cooldown`` seconds an :meth:`admit` call lets
  exactly one run probe the group.  A clean probe closes the breaker
  (and is counted as a recovery); any failure re-opens it and restarts
  the cooldown.

The breaker is owned by whoever owns the session lifetime (the serve
daemon keeps one per tenant, surviving across requests and edits) and
handed to the scheduler through ``ExecConfig.breaker``.  It is
thread-safe and never pickled: the scheduler consults it only in the
parent process.  Breaker-synthesized UNKNOWNs are circumstantial and
are never persisted to the artifact store (see ``StoreBinding.observe``).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Hashable

#: Group states (strings so snapshots serialize directly).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class _GroupState:
    __slots__ = ("state", "failures", "opened_at", "trips")

    def __init__(self) -> None:
        self.state = CLOSED
        self.failures = 0      # consecutive failure events while closed
        self.opened_at = 0.0   # clock reading of the last trip / probe
        self.trips = 0         # lifetime closed->open transitions


class CircuitBreaker:
    """Per-group failure memory with open/half-open/closed transitions.

    ``threshold`` is the number of *consecutive* failure events that
    trips a group open; ``cooldown`` is the seconds an open group waits
    before a half-open probe is allowed.  ``clock`` is injectable so
    tests can step time instead of sleeping.
    """

    def __init__(self, threshold: int = 3, cooldown: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._groups: dict[Hashable, _GroupState] = {}

    # ------------------------------------------------------------------ #
    # Scheduler-facing transitions
    # ------------------------------------------------------------------ #

    def admit(self, group: Hashable) -> tuple[bool, bool]:
        """Decide whether a run may dispatch ``group``.

        Returns ``(allowed, probe)``: ``(True, False)`` for a closed
        group, ``(True, True)`` when an open group's cooldown elapsed
        and this run becomes the half-open probe, ``(False, False)``
        while the group stays open (the caller short-circuits its
        queries).
        """
        with self._lock:
            entry = self._groups.get(group)
            if entry is None or entry.state == CLOSED:
                return True, False
            if self._clock() - entry.opened_at >= self.cooldown:
                # OPEN past its cooldown becomes the half-open probe;
                # a HALF_OPEN probe that never resolved (the probing run
                # was aborted) is taken over after another cooldown.
                entry.state = HALF_OPEN
                entry.opened_at = self._clock()
                return True, True
            return False, False

    def record_failure(self, group: Hashable) -> bool:
        """One failure event for ``group``; returns True if this call
        tripped the breaker open (including a failed half-open probe)."""
        with self._lock:
            entry = self._groups.setdefault(group, _GroupState())
            if entry.state == OPEN:
                return False
            if entry.state == HALF_OPEN:
                entry.state = OPEN
                entry.failures = 0
                entry.opened_at = self._clock()
                entry.trips += 1
                return True
            entry.failures += 1
            if entry.failures >= self.threshold:
                entry.state = OPEN
                entry.failures = 0
                entry.opened_at = self._clock()
                entry.trips += 1
                return True
            return False

    def record_success(self, group: Hashable) -> bool:
        """One clean outcome for ``group``; returns True if it closed a
        half-open breaker (a recovery)."""
        with self._lock:
            entry = self._groups.get(group)
            if entry is None:
                return False
            if entry.state == HALF_OPEN:
                entry.state = CLOSED
                entry.failures = 0
                return True
            entry.failures = 0
            return False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def state(self, group: Hashable) -> str:
        with self._lock:
            entry = self._groups.get(group)
            return entry.state if entry is not None else CLOSED

    def open_count(self) -> int:
        with self._lock:
            return sum(1 for entry in self._groups.values()
                       if entry.state != CLOSED)

    def describe(self, group: Hashable) -> str:
        """Breaker metadata carried by short-circuited outcomes."""
        with self._lock:
            entry = self._groups.get(group)
            trips = entry.trips if entry is not None else 0
        return (f"CircuitBreakerOpen: group {group!r} open after "
                f"{self.threshold} consecutive failures "
                f"(trips={trips}, cooldown={self.cooldown:g}s)")

    def snapshot(self) -> dict:
        """Serializable per-group view (diagnostics and tests)."""
        with self._lock:
            return {
                repr(group): {"state": entry.state,
                              "failures": entry.failures,
                              "trips": entry.trips}
                for group, entry in sorted(self._groups.items(),
                                           key=lambda kv: repr(kv[0]))
            }

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]
