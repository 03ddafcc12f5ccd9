"""Resource budgets, per-query deadlines, and limit exceptions.

The paper runs every analysis "with the limit of 12 hours and 100GB of
memory" and every SMT query "with a limit of 10 seconds" (Section 5).  The
reproduction scales those limits down but keeps the same *mechanism*, at
two granularities:

* :class:`Budget` — the whole run's wall-clock/memory caps.  An engine
  that exhausts its budget aborts with :class:`TimeBudgetExceeded` /
  :class:`MemoryBudgetExceeded`, and the benchmark harness reports it the
  way the paper reports "Memory Out" / "timeout" entries.
* :class:`Deadline` — one query's wall-clock cap, built when the query
  starts from ``FaultPolicy.query_timeout`` (else
  ``SolverConfig.time_limit``) and threaded through slicing, condition
  transformation, preprocessing and the SAT search, which keeps no
  clock of its own.  A tripped deadline raises
  :class:`QueryDeadlineExceeded`, which every query loop converts to an
  UNKNOWN verdict for *that query only* — per-query timeouts never abort
  the run (see ``docs/robustness.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional


class ResourceExceeded(Exception):
    """Base class for budget violations."""


class MemoryBudgetExceeded(ResourceExceeded):
    """Modeled memory (live term/summary nodes) exceeded the budget."""


class TimeBudgetExceeded(ResourceExceeded):
    """Wall-clock budget exceeded."""


class QueryDeadlineExceeded(ResourceExceeded):
    """One query overran its per-query deadline (reported as UNKNOWN)."""


@dataclass(frozen=True)
class Deadline:
    """An absolute per-query wall-clock deadline.

    ``expires_at`` is a ``time.monotonic()`` timestamp (``None`` = never
    expires).  Frozen and picklable: the scheduler ships deadlines to
    worker processes, and on POSIX the monotonic clock is system-wide, so
    a timestamp taken in the parent is meaningful in a forked child.
    """

    expires_at: Optional[float] = None

    @classmethod
    def after(cls, seconds: Optional[float]) -> "Deadline":
        """A deadline ``seconds`` from now; ``None`` never expires."""
        if seconds is None:
            return cls(None)
        return cls(time.monotonic() + seconds)

    @property
    def expired(self) -> bool:
        return self.expires_at is not None \
            and time.monotonic() >= self.expires_at

    def remaining(self) -> Optional[float]:
        """Seconds left (clamped at 0); ``None`` when unlimited."""
        if self.expires_at is None:
            return None
        return max(0.0, self.expires_at - time.monotonic())

    def check(self, what: str = "query") -> None:
        if self.expired:
            raise QueryDeadlineExceeded(f"{what} exceeded its deadline")


@dataclass
class Budget:
    """A wall-clock and modeled-memory budget for one analysis run.

    ``memory_units`` counts abstract nodes (term DAG nodes, cached summary
    entries, graph vertices) rather than bytes: pure-Python RSS is dominated
    by interpreter overhead, while node counts reproduce the paper's memory
    *ratios* deterministically.
    """

    max_seconds: Optional[float] = None
    max_memory_units: Optional[int] = None

    def __post_init__(self) -> None:
        self._start = time.perf_counter()

    def restart_clock(self) -> None:
        self._start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self._start

    def remaining_seconds(self) -> Optional[float]:
        """Wall-clock seconds left (clamped at 0); ``None`` = unlimited."""
        if self.max_seconds is None:
            return None
        return max(0.0, self.max_seconds - self.elapsed)

    def deadline(self) -> Deadline:
        """The run clock as an absolute :class:`Deadline` (shippable to
        workers, which cannot see the parent's ``Budget`` object)."""
        return Deadline.after(self.remaining_seconds())

    def check_time(self) -> None:
        if self.max_seconds is not None and self.elapsed > self.max_seconds:
            raise TimeBudgetExceeded(
                f"exceeded time budget of {self.max_seconds:.1f}s")

    def check_memory(self, units: int) -> None:
        if self.max_memory_units is not None and units > self.max_memory_units:
            raise MemoryBudgetExceeded(
                f"modeled memory {units} exceeded budget "
                f"{self.max_memory_units}")

