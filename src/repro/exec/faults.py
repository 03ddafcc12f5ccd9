"""Deterministic fault injection for the query-execution layer.

The scheduler's fault-tolerance contract ("any injected fault changes at
most the faulted queries' statuses, never the surviving verdicts or their
order") is only trustworthy if faults can be reproduced on demand.  This
module provides the injectable :class:`FaultPlan` — index-keyed (faults
name candidate indices and batch ordinals, both deterministic) — plus
the :class:`FaultPolicy` knobs that govern how the scheduler reacts to
faults, injected or real.

Fault kinds (see ``docs/robustness.md``):

* **raise in query K** — the worker raises :class:`InjectedQueryError`
  just before solving candidate ``K``; per-query isolation must convert
  it to an UNKNOWN outcome with the error preserved for telemetry.
* **delay query K** — the worker simulates a pathological query by
  sleeping in small deadline-checked ticks, so a configured per-query
  deadline aborts it (UNKNOWN) and an unlimited one merely runs late.
* **crash worker on batch N** — a *process* worker SIGKILLs itself (a
  real worker death, surfacing as ``BrokenProcessPool`` in the parent);
  the inline rung raises :class:`WorkerCrash` for the whole batch.
  ``crash_times`` bounds how many attempts of batch ``N`` die, so requeue
  tests can prove recovery while ``crash_times`` larger than the retry
  budget exercises the full degradation ladder.
* **store EIO on read/write op N** — the artifact store's Nth read (or
  write) raises ``OSError(EIO)``; the store must degrade it to a counted
  miss (or skipped persist), never a crash.
* **torn write / bit flip on store write N** — the Nth persisted payload
  is truncated halfway (a torn write) or has one bit flipped before it
  reaches disk; checksum verification must quarantine it on next read.
* **client disconnect on response N** — the HTTP front end truncates its
  Nth response body and drops the connection, simulating a client that
  went away mid-response; the daemon must survive and keep serving.
"""

from __future__ import annotations

import errno
import os
import random
import signal
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.limits import Deadline

#: Injected delays sleep in ticks this long, checking the query deadline
#: between ticks — the cooperative-cancellation model every real stage
#: (slicing, preprocessing, SAT search) follows.
DELAY_TICK_SECONDS = 0.01

#: Backoff before the first retry, doubled per attempt up to
#: :data:`RETRY_BACKOFF_CAP` (the ceiling on a single sleep, so deep
#: retry ladders cannot stall a request for seconds); see
#: :func:`backoff_delay`.
RETRY_BACKOFF = 0.05
RETRY_BACKOFF_CAP = 2.0


class InjectedFault(Exception):
    """Base class for deliberately injected failures."""


class InjectedQueryError(InjectedFault):
    """An injected per-query failure (isolated to one candidate)."""


class WorkerCrash(InjectedFault):
    """An injected whole-batch worker death (the inline rung)."""


@dataclass(frozen=True)
class FaultPolicy:
    """How the scheduler reacts to per-query and per-batch failures."""

    #: ``unknown`` — isolate failures per query/batch and degrade to
    #: UNKNOWN verdicts; ``abort`` — absorb completed sibling results,
    #: then propagate the first failure (the seed behavior).
    on_error: str = "unknown"
    #: Per-query wall-clock cap covering slicing through the SAT search;
    #: ``None`` defers to the engine solver's own ``time_limit``.
    query_timeout: Optional[float] = None
    #: Bounded retries, used at two granularities: rebuilds of a
    #: process pool after worker death, and re-executions of a batch
    #: that raised, before its queries are synthesized as UNKNOWN.
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.on_error not in ("unknown", "abort"):
            raise ValueError(
                f"on_error must be 'unknown' or 'abort', "
                f"got {self.on_error!r}")


def backoff_delay(attempt: int, token: int = 0) -> float:
    """Capped exponential backoff with deterministic seeded jitter.

    ``attempt`` 0 sleeps around :data:`RETRY_BACKOFF`, doubling per
    attempt up to :data:`RETRY_BACKOFF_CAP`.  The jitter factor (uniform
    in [0.5, 1.0]) is drawn from a PRNG seeded by ``(token, attempt)`` —
    so concurrent retriers with distinct tokens (batch ordinals, pool
    rebuilds) de-synchronize instead of thundering-herd onto the pool,
    while every run replays the same schedule.
    """
    base = RETRY_BACKOFF * (2 ** max(0, attempt))
    capped = min(RETRY_BACKOFF_CAP, base)
    # The leading 0 is the seed of a retired knob; it keeps the schedule.
    rng = random.Random(f"0:{token}:{attempt}")
    return capped * (0.5 + 0.5 * rng.random())


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, index-keyed set of faults to inject into one run.

    Forked pool workers inherit it with the rest of their state.  An
    empty plan injects nothing.
    """

    #: Candidate indices whose query raises :class:`InjectedQueryError`.
    raise_on_query: frozenset[int] = frozenset()
    #: Candidate index -> seconds of injected (deadline-checked) delay.
    delay_on_query: Mapping[int, float] = field(default_factory=dict)
    #: Batch ordinals (submission order) whose worker dies at batch start.
    crash_on_batch: frozenset[int] = frozenset()
    #: How many attempts of a crash-faulted batch die before it succeeds.
    crash_times: int = 1
    #: Store read ordinals (per :class:`~repro.exec.store.ArtifactStore`
    #: instance, in op order) that raise ``OSError(EIO)``.
    store_read_eio: frozenset[int] = frozenset()
    #: Store write ordinals that raise ``OSError(EIO)``.
    store_write_eio: frozenset[int] = frozenset()
    #: Store write ordinals whose payload is truncated halfway (torn).
    torn_write_on: frozenset[int] = frozenset()
    #: Store write ordinals whose payload has one bit flipped.
    bit_flip_on: frozenset[int] = frozenset()
    #: HTTP response ordinals (per daemon, in response order) that are
    #: truncated and dropped mid-send.
    client_disconnect_on: frozenset[int] = frozenset()

    # ------------------------------------------------------------------ #
    # Injection hooks (called from worker code)
    # ------------------------------------------------------------------ #

    def crashes(self, ordinal: Optional[int], attempt: int) -> bool:
        return ordinal is not None and ordinal in self.crash_on_batch \
            and attempt < self.crash_times

    def crash_worker(self, ordinal: Optional[int], attempt: int,
                     process_worker: bool) -> None:
        """Die if the plan says this batch attempt crashes its worker."""
        if not self.crashes(ordinal, attempt):
            return
        if process_worker:
            # A real, unclean worker death: the parent observes
            # BrokenProcessPool, exactly as if the OOM killer struck.
            os.kill(os.getpid(), signal.SIGKILL)
        raise WorkerCrash(
            f"injected worker crash on batch {ordinal} "
            f"(attempt {attempt})")

    def apply_query(self, index: int,
                    deadline: Optional[Deadline] = None) -> None:
        """Run the per-query injections for candidate ``index``."""
        delay = self.delay_on_query.get(index)
        if delay is not None:
            stop = time.monotonic() + delay
            while time.monotonic() < stop:
                if deadline is not None:
                    deadline.check("injected delay")
                time.sleep(min(DELAY_TICK_SECONDS,
                               max(0.0, stop - time.monotonic())))
        if index in self.raise_on_query:
            raise InjectedQueryError(f"injected fault in query {index}")

    def apply_store_read(self, ordinal: int) -> None:
        """Raise ``OSError(EIO)`` if store read ``ordinal`` is faulted."""
        if ordinal in self.store_read_eio:
            raise OSError(errno.EIO,
                          f"injected EIO on store read {ordinal}")

    def apply_store_write(self, ordinal: int) -> None:
        """Raise ``OSError(EIO)`` if store write ``ordinal`` is faulted."""
        if ordinal in self.store_write_eio:
            raise OSError(errno.EIO,
                          f"injected EIO on store write {ordinal}")

    def mangle_store_write(self, ordinal: int, body: bytes) -> bytes:
        """Corrupt the payload of store write ``ordinal`` if planned."""
        if ordinal in self.torn_write_on:
            return body[:max(1, len(body) // 2)]
        if ordinal in self.bit_flip_on and body:
            mangled = bytearray(body)
            mangled[len(mangled) // 2] ^= 0x01
            return bytes(mangled)
        return body

    def drops_response(self, ordinal: int) -> bool:
        """Whether HTTP response ``ordinal`` is cut off mid-send."""
        return ordinal in self.client_disconnect_on

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the CLI/CI fault-plan syntax.

        Semicolon-separated clauses: ``raise=I[,I...]``,
        ``delay=I:SECONDS[,I:SECONDS...]``, ``crash=N[,N...]``,
        ``crash-times=K``, ``store-eio-read=N[,N...]``,
        ``store-eio-write=N[,N...]``, ``torn-write=N[,N...]``,
        ``bit-flip=N[,N...]``, ``disconnect=N[,N...]``.  Example::

            raise=3,7;delay=0:0.5;crash=1;crash-times=2;torn-write=0
        """
        raises: set[int] = set()
        delays: dict[int, float] = {}
        crashes: set[int] = set()
        crash_times = 1
        sets: dict[str, set[int]] = {
            "store-eio-read": set(), "store-eio-write": set(),
            "torn-write": set(), "bit-flip": set(), "disconnect": set(),
        }
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            key, sep, value = clause.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"malformed fault clause {clause!r}")
            try:
                if key == "raise":
                    raises.update(int(i) for i in value.split(","))
                elif key == "delay":
                    for item in value.split(","):
                        idx, _, secs = item.partition(":")
                        delays[int(idx)] = float(secs)
                elif key == "crash":
                    crashes.update(int(i) for i in value.split(","))
                elif key == "crash-times":
                    crash_times = int(value)
                elif key in sets:
                    sets[key].update(int(i) for i in value.split(","))
                else:
                    raise ValueError(f"unknown fault kind {key!r}")
            except ValueError as error:
                if "fault" in str(error):
                    raise
                raise ValueError(
                    f"malformed fault clause {clause!r}") from error
        return cls(frozenset(raises), delays, frozenset(crashes),
                   crash_times,
                   store_read_eio=frozenset(sets["store-eio-read"]),
                   store_write_eio=frozenset(sets["store-eio-write"]),
                   torn_write_on=frozenset(sets["torn-write"]),
                   bit_flip_on=frozenset(sets["bit-flip"]),
                   client_disconnect_on=frozenset(sets["disconnect"]))

    def describe(self) -> str:
        parts = []
        if self.raise_on_query:
            parts.append("raise=" + ",".join(
                str(i) for i in sorted(self.raise_on_query)))
        if self.delay_on_query:
            parts.append("delay=" + ",".join(
                f"{i}:{s:g}" for i, s in sorted(self.delay_on_query.items())))
        if self.crash_on_batch:
            parts.append("crash=" + ",".join(
                str(i) for i in sorted(self.crash_on_batch)))
            parts.append(f"crash-times={self.crash_times}")
        for name, members in (("store-eio-read", self.store_read_eio),
                              ("store-eio-write", self.store_write_eio),
                              ("torn-write", self.torn_write_on),
                              ("bit-flip", self.bit_flip_on),
                              ("disconnect", self.client_disconnect_on)):
            if members:
                parts.append(name + "=" + ",".join(
                    str(i) for i in sorted(members)))
        return ";".join(parts) if parts else "<empty>"
