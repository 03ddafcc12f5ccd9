"""Scoped pauses of Python's cyclic garbage collector.

The frontend and the PDG builder allocate many small, mostly acyclic
objects (tokens, AST nodes, IR statements, vertices and edges).  Each
allocation burst trips the collector's young-generation threshold, and
every collection walks those objects again: on a cold compile of an
8k-line program the collector ran about 260 times and took a quarter of
the op.  :data:`paused` switches it off for the length of a scope::

    @paused
    def build_pdg(program): ...

    with paused:
        ...

The collector state is process-wide, so the scope is too: one depth
count under a lock.  The first scope to enter records whether the
collector was enabled and disables it; the last scope to leave restores
exactly that, on every exit, so nested scopes and overlapping threads
are safe and a collector the caller had disabled stays disabled.  A
child forked while some thread was inside a scope starts at depth 0 with
the collector re-enabled (if a scope disabled it): the threads that
held the scope do not exist in the child, and would never leave it.

Garbage made inside a scope is not lost: the young generation's
allocation count keeps growing, so the first allocations after the scope
trigger a collection as usual.
"""

from __future__ import annotations

import gc
import os
import threading
from contextlib import ContextDecorator


class _Paused(ContextDecorator):
    """The process-wide pause scope (use the :data:`paused` instance)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        #: Whether the outermost scope disabled the collector.
        self._disabled = False
        self._fork_hook = False

    def __enter__(self) -> "_Paused":
        with self._lock:
            if not self._fork_hook:
                os.register_at_fork(after_in_child=self._after_fork)
                self._fork_hook = True
            if self._depth == 0:
                self._disabled = gc.isenabled()
                gc.disable()
            self._depth += 1
        return self

    def __exit__(self, *exc_info) -> bool:
        with self._lock:
            # Depth 0 here: a scope entered before a fork, left in the
            # child, which has restored the collector already.
            if self._depth > 0:
                self._depth -= 1
                if self._depth == 0 and self._disabled:
                    gc.enable()
        return False

    def _after_fork(self) -> None:
        self._lock = threading.Lock()
        if self._depth > 0 and self._disabled:
            gc.enable()
        self._depth = 0


#: Decorator and context manager: the collector is off inside.
paused = _Paused()
