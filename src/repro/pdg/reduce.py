"""Checker-specific PDG sparsification: footprints and pruned views.

A checker observes only a fraction of the program — a taint checker
cares about the calls named in its source/sink sets, a divide-by-zero
checker about divisor definitions.  This module builds, per checker, a
pruned :class:`SparsePDGView` of the dependence graph containing only
the defs/uses the checker's footprint can reach.  The view is built by
one walk outward from the checker's seeds, so its cost tracks what it
keeps rather than the program size.

The contract is *byte identity*: candidates, verdicts, and reports
produced through a view equal the full-graph pipeline exactly.  The
pruning rule is therefore conservative in a very specific way:

* every *sink* edge is kept (the walk finishes paths there);
* every propagating CALL/RETURN edge is kept, even when it leads to a
  dead region — crossing such an edge interns a frame id, and frame
  ids leak into witness keys, so the interning sequence must match the
  full walk exactly;
* a propagating LOCAL/EXTERN edge is dropped only when its destination
  is not *useful* — no sink edge and no propagating CALL/RETURN edge
  is reachable from it over LOCAL/EXTERN propagating edges.  Dropped
  subtrees touch only (vertex, frame) visit keys the live walk never
  reads (LOCAL/EXTERN steps keep the current frame, and the builder
  gives parameters/receivers no LOCAL preds), so the revisit-cap
  bookkeeping of the full walk is unperturbed;
* a source is dropped only when no sink edge is reachable from it over
  propagating edges (it is not *observable*): its walk would explore
  with a private frame table and report nothing.

Views are cached per (engine, checker) by :class:`ViewRegistry` for
one program version; an edit that changes the program gets a new
engine, whose views are rebuilt on first use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.pdg.graph import DataEdge, EdgeKind, ProgramDependenceGraph

if TYPE_CHECKING:  # avoid an import cycle with repro.checkers
    from repro.checkers.base import Checker
    from repro.exec.telemetry import Telemetry


# ---------------------------------------------------------------------- #
# Per-checker sparse views
# ---------------------------------------------------------------------- #

_INTERPROCEDURAL = (EdgeKind.CALL, EdgeKind.RETURN)


class SparsePDGView:
    """A checker's pruned view of one PDG.  Build via :func:`build_view`."""

    def __init__(self, pdg: ProgramDependenceGraph, checker_name: str,
                 footprint) -> None:
        self.pdg = pdg
        self.checker_name = checker_name
        self.footprint = footprint
        #: Observable vertex indices: a sink edge is reachable over
        #: propagating edges.  Sources outside this set are elided.
        #: Exact on every vertex the view's walk reaches, which includes
        #: the region; a vertex no walk reaches may be left out.
        self.observable_indices: set[int] = set()
        #: region vertex index -> ((edge, is_sink), ...) — the kept
        #: adjacency, in original succ order.
        self._kept: dict[int, tuple[tuple[DataEdge, bool], ...]] = {}
        self.live_sources: list = []
        self.sources_total = 0
        self.region: set[int] = set()
        self.nodes_before = pdg.num_vertices
        self.edges_before = pdg.num_data_edges
        self.nodes_kept = 0
        self.edges_kept = 0

    # -- walk API -------------------------------------------------------- #

    def observable(self, vertex) -> bool:
        return vertex.index in self.observable_indices

    def kept_entries(self, vertex) -> tuple:
        """(edge, is_sink) pairs surviving pruning, in succ order."""
        return self._kept.get(vertex.index, ())

    def kept_vertices(self) -> set[int]:
        """The kept subgraph's vertices: the region plus the kept
        edges' destinations."""
        return self.region.union(edge.dst.index
                                 for entries in self._kept.values()
                                 for edge, _ in entries)

    def reaching(self, sinks: Iterable[int]) -> set[int]:
        """``sinks`` plus every vertex with a kept-edge path into one,
        by one backward walk over the kept edges."""
        preds: dict[int, list[int]] = {}
        for index, entries in self._kept.items():
            for edge, _ in entries:
                preds.setdefault(edge.dst.index, []).append(index)
        return _closure(sinks, preds)

    # -- reporting ------------------------------------------------------- #

    def stats(self) -> dict:
        return {
            "checker": self.checker_name,
            "footprint_version": self.footprint.version,
            "nodes_before": self.nodes_before,
            "edges_before": self.edges_before,
            "nodes_kept": self.nodes_kept,
            "edges_kept": self.edges_kept,
            "nodes_elided": self.nodes_before - self.nodes_kept,
            "edges_elided": self.edges_before - self.edges_kept,
            "sources_total": self.sources_total,
            "live_sources": len(self.live_sources),
            "sources_elided": self.sources_total - len(self.live_sources),
        }


def _closure(seeds: Iterable[int], neighbours: dict[int, list[int]]
             ) -> set[int]:
    """Everything reachable from ``seeds`` over ``neighbours`` lists."""
    closed = set(seeds)
    work = list(closed)
    while work:
        for other in neighbours.get(work.pop(), ()):
            if other not in closed:
                closed.add(other)
                work.append(other)
    return closed


def _observe_backward(pdg: ProgramDependenceGraph, checker: "Checker",
                      view: SparsePDGView) -> None:
    """Observability by one backward walk from the checker's sink
    sites: sink-edge sources, then their propagating ancestors."""
    edge_kinds = view.footprint.edge_kinds
    observable: set[int] = set()
    for site in checker.sink_sites(pdg):
        for edge in pdg.data_preds(site):
            if edge.kind in edge_kinds and checker.is_sink_edge(edge):
                observable.add(edge.src.index)
    work = list(observable)
    while work:
        for edge in pdg.data_preds(pdg.vertices[work.pop()]):
            index = edge.src.index
            if index not in observable and edge.kind in edge_kinds \
                    and not checker.is_sink_edge(edge) \
                    and checker.propagates(edge):
                observable.add(index)
                work.append(index)
    view.observable_indices = observable


def build_view(pdg: ProgramDependenceGraph,
               checker: "Checker") -> SparsePDGView:
    """Build a checker's sparse view of ``pdg`` (see module docstring).

    One seeded walk: from the checker's sources forward over
    propagating edges, classifying each visited vertex's out-edges
    once.  Every pruning decision about a vertex depends only on what
    is forward-reachable from it, so deciding inside that closure gives
    the whole-graph answer.  Volatile sources are known only once
    observability is (div-zero folds only the functions holding
    observable vertices), so those views first walk backward from
    :meth:`Checker.sink_sites` and seed the forward walk with the live
    sources.
    """
    footprint = checker.footprint()
    view = SparsePDGView(pdg, checker.name, footprint)
    edge_kinds = footprint.edge_kinds
    vertices = pdg.vertices
    if footprint.volatile_sources:
        _observe_backward(pdg, checker, view)
        seeds = checker.sources_for(pdg, view)
    else:
        seeds = checker.sources(pdg)

    # Forward closure of the seeds over propagating edges.
    # index -> [(edge, is_sink)], sink and propagating out-edges only.
    classified: dict[int, list[tuple[DataEdge, bool]]] = {}
    prop_preds: dict[int, list[int]] = {}
    local_prop_preds: dict[int, list[int]] = {}
    sink_sources: set[int] = set()
    interprocedural: set[int] = set()
    work = [seed.index for seed in seeds]
    while work:
        index = work.pop()
        if index in classified:
            continue
        entries = classified[index] = []
        for edge in pdg.data_succs(vertices[index]):
            if edge.kind not in edge_kinds:
                continue
            if checker.is_sink_edge(edge):
                entries.append((edge, True))
                sink_sources.add(index)
            elif checker.propagates(edge):
                entries.append((edge, False))
                work.append(edge.dst.index)
                prop_preds.setdefault(edge.dst.index, []).append(index)
                if edge.kind in _INTERPROCEDURAL:
                    interprocedural.add(index)
                else:
                    local_prop_preds.setdefault(edge.dst.index,
                                                []).append(index)
    useful = _closure(sink_sources | interprocedural, local_prop_preds)

    if footprint.volatile_sources:
        sources = seeds
        view.sources_total = len(sources)
    else:
        view.observable_indices = _closure(sink_sources, prop_preds)
        sources = checker.sources_for(pdg, view)
        view.sources_total = len(seeds)
    view.live_sources = sources

    # Region: everything the pruned walk can visit.
    region = {source.index for source in sources}
    work = list(region)
    while work:
        index = work.pop()
        kept = tuple((edge, is_sink) for edge, is_sink in classified[index]
                     if is_sink or edge.kind in _INTERPROCEDURAL
                     or edge.dst.index in useful)
        if not kept:
            continue
        view._kept[index] = kept
        for edge, is_sink in kept:
            if not is_sink and edge.dst.index not in region:
                region.add(edge.dst.index)
                work.append(edge.dst.index)
    view.region = region
    view.nodes_kept = len(view.kept_vertices())
    view.edges_kept = sum(len(e) for e in view._kept.values())
    return view


# ---------------------------------------------------------------------- #
# Per-engine registry
# ---------------------------------------------------------------------- #


class ViewRegistry:
    """Per-engine cache of checker views."""

    def __init__(self, pdg: ProgramDependenceGraph) -> None:
        self.pdg = pdg
        self._views: dict[str, SparsePDGView] = {}
        #: ``reduce`` counters accumulated since the last flush ...
        self._pending: dict[str, int] = {}
        #: ... and the ``pdg.reduce.view`` span of the builds among them
        #: (None when nothing was built; a cache hit stays cheap).
        self._builds: Optional["Telemetry"] = None

    def _bump(self, **counts) -> None:
        for key, value in counts.items():
            self._pending[key] = self._pending.get(key, 0) + value

    def flush_telemetry(self, telemetry: "Telemetry") -> None:
        """Move accumulated counters and spans into ``telemetry`` (at
        most once)."""
        if self._pending:
            telemetry.add("reduce", **self._pending)
            self._pending = {}
        if self._builds is not None:
            telemetry.merge(self._builds)
            self._builds = None

    def view_for(self, checker: "Checker") -> SparsePDGView:
        view = self._views.get(checker.name)
        if view is not None:
            self._bump(view_cache_hits=1)
            return view
        if self._builds is None:
            # Imported here: repro.exec imports the sparse engine, which
            # imports this module.
            from repro.exec.telemetry import Telemetry
            self._builds = Telemetry()
        with self._builds.span("pdg.reduce.view"):
            view = build_view(self.pdg, checker)
        self._views[checker.name] = view
        stats = view.stats()
        self._bump(views_built=1,
                   nodes_kept=stats["nodes_kept"],
                   nodes_elided=stats["nodes_elided"],
                   edges_kept=stats["edges_kept"],
                   edges_elided=stats["edges_elided"],
                   live_sources=stats["live_sources"],
                   sources_elided=stats["sources_elided"])
        return view

    def adopt(self, old: "ViewRegistry") -> None:
        """Take over ``old``'s unflushed counters after an edit that
        changed the program.  None of its views carries over: each is
        counted as invalidated and rebuilt here on first use."""
        self._pending = dict(old._pending)
        self._builds = old._builds
        if old._views:
            self._bump(views_invalidated=len(old._views))
