"""Sparse propagation: collect source-to-sink dependence paths.

This is the common skeleton of Algorithms 1/2/5: data-flow facts travel
only along data-dependence edges (temporal sparsity) and only the facts a
statement uses are ever materialised (spatial sparsity).  The engines
differ *after* this phase — the conventional design eagerly computes,
clones, and caches path conditions per summary, while Fusion hands the
collected Π to the IR-based solver — which is exactly where the paper
locates the cost difference (Figure 1(c)).
"""

from __future__ import annotations

from typing import Optional

from repro.checkers.base import BugCandidate, Checker
from repro.pdg.graph import ProgramDependenceGraph
from repro.pdg.reduce import build_view
from repro.sparse.paths import (DependencePath, FrameTable, PathStep,
                                extend_path)


# Exploration bounds.  Real analyzers cap witness enumeration the same
# way: one or two concrete paths per (source, sink) report are enough, and
# revisit caps keep diamond-shaped value flow from exploding the search.
# The store fingerprint keys all four (``PathSensitiveEngine``).
MAX_PATHS_PER_PAIR = 2
MAX_PATH_LEN = 80
MAX_CANDIDATES = 50_000
REVISIT_CAP = 2


def collect_candidates(pdg: ProgramDependenceGraph, checker: Checker,
                       frames: Optional[FrameTable] = None,
                       view=None, sources=None) -> list[BugCandidate]:
    """Run the sparse propagation and return all bug candidates.

    The walk follows ``view``, the checker's pruned
    :class:`~repro.pdg.reduce.SparsePDGView` (built here when None):
    its live sources, and per vertex its kept edges, each already
    classified as a sink edge or a propagating one.  Elided sources and
    edges are exactly those that cannot contribute a candidate *or
    perturb frame interning* (the pruning contract in
    ``repro.pdg.reduce``), so the returned list — candidate order, dedup
    decisions, and every frame id inside the paths — is byte-identical
    to a walk of the whole graph.

    Pass a shared ``frames`` table when the caller intends to check
    several paths *simultaneously* (the paper's Example 3.2): frame ids
    are then unique across the walked sources, so paths can be
    conjoined in a single ``ir_based_smt_solve`` query.

    Pass ``sources`` (a subsequence of the view's source order) to walk
    only those sources.  Each source's walk is independent — it interns
    its own :class:`FrameTable` and keeps its own visit counts — so the
    candidates produced for a selected source are byte-identical to the
    ones the full walk produces for it.  This is the demand-query entry
    point (``repro.query``); the one caveat is the global
    :data:`MAX_CANDIDATES` cap, which a restricted walk reaches later
    than a full one.
    """
    if view is None:
        view = build_view(pdg, checker)
    if sources is None:
        sources = view.live_sources
    kept = view.kept_entries
    candidates: list[BugCandidate] = []
    per_pair: dict[tuple, int] = {}
    shared_frames = frames

    for source in sources:
        frames = shared_frames if shared_frames is not None \
            else FrameTable()
        root = frames.root(source.function)
        stack = [DependencePath([PathStep(source, root)])]
        visits: dict[tuple[int, int], int] = {}

        while stack and len(candidates) < MAX_CANDIDATES:
            path = stack.pop()
            for edge, is_sink in kept(path.steps[-1].vertex):
                if is_sink:
                    finished = extend_path(path, edge, frames)
                    if finished is None:
                        continue
                    candidate = BugCandidate(checker.name, finished)
                    count = per_pair.get(candidate.key(), 0)
                    if count < MAX_PATHS_PER_PAIR:
                        per_pair[candidate.key()] = count + 1
                        candidates.append(candidate)
                    continue
                extended = extend_path(path, edge, frames)
                if extended is None or len(extended) > MAX_PATH_LEN:
                    continue
                state = (edge.dst.index, extended.steps[-1].frame.fid)
                if visits.get(state, 0) >= REVISIT_CAP:
                    continue
                visits[state] = visits.get(state, 0) + 1
                stack.append(extended)

    return candidates
