"""Slice memoization keyed by a canonical path fingerprint.

``compute_slice`` (Rules 1-3) depends only on a path set's vertex sequence
and its *frame pattern* — which steps share a calling context and how the
contexts nest — never on the concrete frame ids a ``FrameTable`` happened
to hand out.  Canonicalising frames by first-appearance order therefore
gives a fingerprint under which structurally identical path sets (e.g.
the ``max_paths_per_pair`` witnesses of one report, or the same candidate
re-solved by another worker) share one slice computation.

A cached entry stores the slice in canonical form: needed sets are plain
vertex sets (frame-free by construction, see Rule 3), and requirements are
``(canonical frame, vertex, value)`` triples.  A hit *rehydrates* the
entry against the querying path's actual frames, so the returned
:class:`~repro.pdg.slicing.Slice` is equal to a fresh recomputation —
a property the test suite enforces.

The cache is bound to one PDG; entries hold that graph's vertices.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.limits import Deadline
from repro.pdg.graph import ProgramDependenceGraph, Vertex
from repro.pdg.slicing import Requirement, Slice, compute_slice
from repro.sparse.paths import DependencePath, Frame

#: A fingerprint: per-path ``(vertex index, canonical frame)`` step tuples
#: plus the structural signature of every canonical frame.
Fingerprint = tuple


def path_fingerprint(paths: Sequence[DependencePath]
                     ) -> tuple[Fingerprint, list[Frame], dict[int, int]]:
    """Canonicalise ``paths``; returns (key, frames by canonical id,
    canonical id by frame fid)."""
    canon_by_fid: dict[int, int] = {}
    frames: list[Frame] = []
    signatures: list[tuple] = []

    def visit(frame: Frame) -> int:
        known = canon_by_fid.get(frame.fid)
        if known is not None:
            return known
        parent = visit(frame.parent) if frame.parent is not None else -1
        canonical = len(frames)
        canon_by_fid[frame.fid] = canonical
        frames.append(frame)
        signatures.append((frame.function, frame.callsite, frame.via_return,
                           parent))
        return canonical

    steps = tuple(
        tuple((step.vertex.index, visit(step.frame)) for step in path.steps)
        for path in paths)
    return (steps, tuple(signatures)), frames, canon_by_fid


@dataclass(frozen=True)
class CacheStats:
    """One atomic snapshot of a :class:`SliceCache`'s counters.

    Taken under the cache's lock, so the counters are mutually
    consistent: ``hits + misses == lookups`` holds in every snapshot,
    no matter how many threads are hammering the cache (the regression
    test in ``tests/test_cache_stats.py`` pins this down).
    """

    hits: int
    misses: int
    evictions: int
    lookups: int
    size: int
    capacity: Optional[int]


@dataclass
class _CachedSlice:
    """A slice in canonical (frame-independent) form."""

    needed: dict[str, frozenset[Vertex]]
    #: (canonical frame id, vertex, required truth value), in Rule order.
    requirements: tuple[tuple[int, Vertex, bool], ...]


class SliceCache:
    """A bounded LRU memo for ``compute_slice`` over one PDG.

    ``capacity`` bounds the number of cached entries; ``None`` means
    unbounded and ``0`` disables caching entirely (every ``get`` is a
    fresh computation).  Thread-safe: the thread-backed scheduler shares
    one instance across workers.
    """

    def __init__(self, capacity: Optional[int] = 256) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Fingerprint, _CachedSlice]" = \
            OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.lookups = 0

    def __len__(self) -> int:
        return len(self._entries)

    def counters(self) -> tuple[int, int, int]:
        with self._lock:
            return self.hits, self.misses, self.evictions

    def stats(self) -> CacheStats:
        """All counters in one locked read (see :class:`CacheStats`)."""
        with self._lock:
            return CacheStats(self.hits, self.misses, self.evictions,
                              self.lookups, len(self._entries),
                              self.capacity)

    def get(self, pdg: ProgramDependenceGraph,
            paths: Iterable[DependencePath],
            deadline: Optional[Deadline] = None) -> Slice:
        """The slice of ``paths``, memoized up to frame renaming.

        ``deadline`` bounds a cache *miss* (the fresh ``compute_slice``);
        hits rehydrate in negligible time and are never aborted.
        """
        paths = list(paths)
        if self.capacity == 0:
            with self._lock:
                self.lookups += 1
                self.misses += 1
            return compute_slice(pdg, paths, deadline)

        key, frames, canon_by_fid = path_fingerprint(paths)
        with self._lock:
            self.lookups += 1
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        if entry is not None:
            return self._rehydrate(entry, frames)

        the_slice = compute_slice(pdg, paths, deadline)
        entry = _CachedSlice(
            needed={fn: frozenset(vs)
                    for fn, vs in the_slice.needed.items()},
            requirements=tuple(
                (canon_by_fid[req.frame.fid], req.vertex, req.value)
                for req in the_slice.requirements))
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while self.capacity is not None \
                    and len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return the_slice

    @staticmethod
    def _rehydrate(entry: _CachedSlice, frames: list[Frame]) -> Slice:
        """Re-express a canonical entry over the querying path's frames."""
        return Slice(
            needed={fn: set(vs) for fn, vs in entry.needed.items()},
            requirements=[Requirement(frames[canonical], vertex, value)
                          for canonical, vertex, value
                          in entry.requirements])
