"""Checker-specific PDG sparsification: footprints, views, condensation.

A checker observes only a fraction of the program — a taint checker
cares about the calls named in its source/sink sets, a divide-by-zero
checker about divisor definitions.  This module builds, per checker, a
pruned :class:`SparsePDGView` of the dependence graph containing only
the defs/uses the checker's footprint can reach.  The view is built by
one walk outward from the checker's seeds, so its cost tracks what it
keeps rather than the program size; an SCC condensation of the kept
subgraph (transitive reduction, chain elision) is built on demand.

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

Views are cached per (engine, checker) by :class:`ViewRegistry` and —
for checkers that declare a remappable footprint — carried across
daemon edits by ordinal remapping when the edit provably cannot change
what the checker observes (see :meth:`ViewRegistry.adopt`).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable, Optional

from repro.pdg.graph import DataEdge, EdgeKind, ProgramDependenceGraph

if TYPE_CHECKING:  # avoid an import cycle with repro.checkers
    from repro.checkers.base import Checker


# ---------------------------------------------------------------------- #
# SCC condensation with transitive reduction and chain elision
# ---------------------------------------------------------------------- #


class Condensation:
    """SCC condensation of a directed graph over the node ids ``nodes``.

    Built in three layers: Tarjan SCCs (iterative), transitive
    reduction of the condensed DAG, then *chain elision* — condensed
    nodes with exactly one reduced predecessor and one reduced
    successor are elided, and a bypass edge carrying their member list
    is stitched from the chain's entry anchor to its exit anchor.
    Closure queries traverse only anchors and expand elided members
    lazily from the bypass edges they cross.

    ``scc_of`` maps each node id to its component and ``members`` lists
    each component's node ids in ascending order; the layers themselves
    run over dense positions.
    """

    def __init__(self, nodes: Iterable[int],
                 edges: Iterable[tuple[int, int]]):
        ids = sorted(nodes)
        position = {node: dense for dense, node in enumerate(ids)}
        adjacency: list[list[int]] = [[] for _ in ids]
        edge_count = 0
        for src, dst in edges:
            adjacency[position[src]].append(position[dst])
            edge_count += 1
        self.num_nodes = len(ids)
        self.num_edges = edge_count
        dense_scc = [-1] * self.num_nodes
        self.members: list[list[int]] = []
        self._tarjan(adjacency, dense_scc)
        self._condense(adjacency, dense_scc)
        self._reduce()
        self._elide()
        self.scc_of: dict[int, int] = dict(zip(ids, dense_scc))
        self.members = [[ids[dense] for dense in component]
                        for component in self.members]

    # -- Tarjan ---------------------------------------------------------- #

    def _tarjan(self, adjacency: list[list[int]],
                scc_of: list[int]) -> None:
        n = self.num_nodes
        index_of = [-1] * n
        low = [0] * n
        on_stack = bytearray(n)
        stack: list[int] = []
        counter = 0
        for root in range(n):
            if index_of[root] != -1:
                continue
            work: list[tuple[int, int]] = [(root, 0)]
            while work:
                node, edge_pos = work.pop()
                if edge_pos == 0:
                    index_of[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack[node] = 1
                descended = False
                neighbors = adjacency[node]
                while edge_pos < len(neighbors):
                    succ = neighbors[edge_pos]
                    edge_pos += 1
                    if index_of[succ] == -1:
                        work.append((node, edge_pos))
                        work.append((succ, 0))
                        descended = True
                        break
                    if on_stack[succ] and index_of[succ] < low[node]:
                        low[node] = index_of[succ]
                if descended:
                    continue
                if low[node] == index_of[node]:
                    component: list[int] = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = 0
                        scc_of[member] = len(self.members)
                        component.append(member)
                        if member == node:
                            break
                    component.sort()
                    self.members.append(component)
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]

    # -- condensed DAG --------------------------------------------------- #

    def _condense(self, adjacency: list[list[int]],
                  scc_of: list[int]) -> None:
        # Tarjan emits SCCs in reverse topological order: every
        # condensed edge runs from a higher SCC id to a lower one.
        count = len(self.members)
        self.scc_count = count
        succ_sets: list[set[int]] = [set() for _ in range(count)]
        for node in range(self.num_nodes):
            comp = scc_of[node]
            for succ in adjacency[node]:
                succ_comp = scc_of[succ]
                if succ_comp != comp:
                    succ_sets[comp].add(succ_comp)
        self.succs: list[list[int]] = [sorted(s) for s in succ_sets]

    def _reduce(self) -> None:
        """Transitive reduction: drop condensed edges implied by others."""
        count = self.scc_count
        descendants = [0] * count
        reduced: list[list[int]] = [[] for _ in range(count)]
        # Ascending id order visits successors before predecessors.
        for comp in range(count):
            succs = self.succs[comp]
            mask = 0
            if succs:
                k = len(succs)
                prefix = [0] * k  # OR of descendants of succs[:i]
                running = 0
                for i, succ in enumerate(succs):
                    prefix[i] = running
                    running |= descendants[succ] | (1 << succ)
                mask = running
                suffix = 0  # OR of descendants of succs[i+1:]
                keep = [False] * k
                for i in range(k - 1, -1, -1):
                    succ = succs[i]
                    keep[i] = not ((prefix[i] | suffix) >> succ) & 1
                    suffix |= descendants[succ] | (1 << succ)
                reduced[comp] = [s for i, s in enumerate(succs) if keep[i]]
            descendants[comp] = mask
        self._descendants = descendants
        self.reduced: list[list[int]] = reduced

    def _elide(self) -> None:
        count = self.scc_count
        indegree = [0] * count
        for comp in range(count):
            for succ in self.reduced[comp]:
                indegree[succ] += 1
        self.is_chain = [indegree[c] == 1 and len(self.reduced[c]) == 1
                         for c in range(count)]
        # Anchor -> [(exit anchor, members elided along the way)].
        bypass: list[Optional[list[tuple[int, tuple[int, ...]]]]] = \
            [None] * count
        bypass_edges = 0
        for comp in range(count):
            if self.is_chain[comp]:
                continue
            entries: list[tuple[int, tuple[int, ...]]] = []
            for succ in self.reduced[comp]:
                if self.is_chain[succ]:
                    carried: list[int] = []
                    cursor = succ
                    while self.is_chain[cursor]:
                        carried.append(cursor)
                        cursor = self.reduced[cursor][0]
                    entries.append((cursor, tuple(carried)))
                    bypass_edges += 1
                else:
                    entries.append((succ, ()))
            bypass[comp] = entries
        self._bypass = bypass
        self.bypass_edges = bypass_edges

    # -- queries --------------------------------------------------------- #

    def reachable(self, src_node: int, dst_node: int) -> bool:
        """Whether ``dst_node`` is reachable from ``src_node`` (or equal).
        A node outside the graph reaches only itself."""
        if src_node == dst_node:
            return True
        src_comp = self.scc_of.get(src_node)
        dst_comp = self.scc_of.get(dst_node)
        if src_comp is None or dst_comp is None:
            return False
        return src_comp == dst_comp or \
            bool((self._descendants[src_comp] >> dst_comp) & 1)

    def closure_sccs(self, seed_sccs: Iterable[int]) -> set[int]:
        """All SCC ids reachable from ``seed_sccs`` (seeds included).

        Walks the reduced DAG over anchors only; elided chain members
        are expanded lazily from the bypass edges the walk crosses.
        """
        collected: set[int] = set()
        stack: list[int] = []
        for comp in set(seed_sccs):
            # A seed inside an elided chain: collect the chain tail up
            # to (and excluding) the exit anchor, then resume there.
            while self.is_chain[comp]:
                if comp in collected:
                    break
                collected.add(comp)
                comp = self.reduced[comp][0]
            else:
                stack.append(comp)
        visited: set[int] = set()
        while stack:
            comp = stack.pop()
            if comp in visited:
                continue
            visited.add(comp)
            collected.add(comp)
            for target, carried in self._bypass[comp]:
                collected.update(carried)
                if target not in visited:
                    stack.append(target)
        return collected


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
        #: Like ``_sink_dsts`` (destinations of sink edges), exact on
        #: every vertex the view's walk reaches, which includes the
        #: region; a vertex no walk reaches may be left out.
        self.observable_indices: set[int] = set()
        self._sink_dsts: set[int] = set()
        #: region vertex index -> ((edge, is_sink), ...) — the kept
        #: adjacency, in original succ order; ``_kept_pos`` holds each
        #: entry's position in ``data_succs`` (for remapping).
        self._kept: dict[int, tuple[tuple[DataEdge, bool], ...]] = {}
        self._kept_pos: dict[int, tuple[int, ...]] = {}
        self.live_sources: list = []
        self.sources_total = 0
        self.region: set[int] = set()
        self.touched_functions: set[str] = set()
        #: Functions any raw source can reach over propagating edges;
        #: None when the footprint is not remappable (never consulted).
        self.source_reach_functions: Optional[set[str]] = None
        self.nodes_before = pdg.num_vertices
        self.edges_before = pdg.num_data_edges
        self.nodes_kept = 0
        self.edges_kept = 0
        # Lazy, graph-generation-bound caches (never carried by remap).
        self._condensation: Optional[Condensation] = None
        self._covered: Optional[list[int]] = None
        self._fixpoint = None

    # -- walk API -------------------------------------------------------- #

    def observable(self, vertex) -> bool:
        return vertex.index in self.observable_indices

    def kept_entries(self, vertex) -> tuple:
        """(edge, is_sink) pairs surviving pruning, in succ order."""
        return self._kept.get(vertex.index, ())

    @property
    def condensation(self) -> Condensation:
        """SCC condensation of the kept subgraph — the region plus the
        kept edges' destinations — built on first use (view stats,
        ``view_to_dot`` and the demand pre-filter read it)."""
        if self._condensation is None:
            edges = [(index, edge.dst.index)
                     for index, entries in self._kept.items()
                     for edge, _ in entries]
            self._condensation = Condensation(
                self.region.union(dst for _, dst in edges), edges)
        return self._condensation

    # -- fixpoint API ---------------------------------------------------- #

    def covered(self) -> list[int]:
        """Ascending vertex indices the restricted fixpoint must visit.

        Candidate paths only contain observable vertices and sink-edge
        destinations, so a reader of abstract values needs those
        vertices, their governing branches, their functions'
        parameters, and everything backward-data-reachable from them.
        The set is pred-closed, which makes the restricted fixpoint
        byte-identical to the full one on it.
        """
        if self._covered is None:
            seeds = set(self.observable_indices) | set(self._sink_dsts)
            vertices = self.pdg.vertices
            functions = {vertices[i].function for i in seeds}
            for index in list(seeds):
                for branch in self.pdg.control_chain(vertices[index]):
                    seeds.add(branch.index)
            for function in functions:
                for param in self.pdg.param_vertices(function):
                    seeds.add(param.index)
            self._covered = sorted(self.pdg.backward_closure(seeds))
        return self._covered

    def fixpoint_state(self):
        """Memoized restricted fixpoint over :meth:`covered`.

        Values at covered vertices are byte-identical to a full
        :func:`~repro.absint.fixpoint.analyze_pdg` run; everything
        outside stays bottom and must not be read.
        """
        if self._fixpoint is None:
            from repro.absint.fixpoint import analyze_pdg

            self._fixpoint = analyze_pdg(self.pdg, restrict=self.covered())
        return self._fixpoint

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
            "scc_count": self.condensation.scc_count,
            "bypass_edges": self.condensation.bypass_edges,
            "sources_total": self.sources_total,
            "live_sources": len(self.live_sources),
            "sources_elided": self.sources_total - len(self.live_sources),
        }

    # -- remapping across daemon edits ----------------------------------- #

    def remap(self, new_pdg: ProgramDependenceGraph
              ) -> Optional["SparsePDGView"]:
        """Carry this view onto ``new_pdg`` after an edit that left
        every touched function intact (see :meth:`ViewRegistry.adopt`
        for the validity conditions checked *before* calling this).

        Vertices are matched by (function, ordinal); each kept entry is
        re-pointed at the new edge object at the same succ position.
        Any structural surprise — changed vertex counts, succ-list
        lengths, or a (kind, destination) mismatch at a kept position —
        returns None, and the caller rebuilds from scratch (fail-safe).
        """
        old_pdg = self.pdg
        ordinal: dict[int, tuple[str, int]] = {}
        new_vertex: dict[tuple[str, int], object] = {}
        for function in self.touched_functions:
            old_list = old_pdg.function_vertices(function)
            new_list = new_pdg.function_vertices(function)
            if len(old_list) != len(new_list):
                return None
            for position, vertex in enumerate(old_list):
                ordinal[vertex.index] = (function, position)
                new_vertex[(function, position)] = new_list[position]

        def translate(index: int):
            coordinate = ordinal.get(index)
            return None if coordinate is None else new_vertex[coordinate]

        view = SparsePDGView(new_pdg, self.checker_name, self.footprint)
        kept: dict[int, tuple[tuple[DataEdge, bool], ...]] = {}
        kept_pos: dict[int, tuple[int, ...]] = {}
        for old_index, entries in self._kept.items():
            old_vertex = old_pdg.vertices[old_index]
            vertex = translate(old_index)
            if vertex is None:
                return None
            old_succs = old_pdg.data_succs(old_vertex)
            new_succs = new_pdg.data_succs(vertex)
            if len(old_succs) != len(new_succs):
                return None
            positions = self._kept_pos[old_index]
            moved = []
            for position, (old_edge, is_sink) in zip(positions, entries):
                new_edge = new_succs[position]
                expected = translate(old_edge.dst.index)
                if new_edge.kind is not old_edge.kind or \
                        expected is None or \
                        new_edge.dst.index != expected.index:
                    return None
                moved.append((new_edge, is_sink))
            kept[vertex.index] = tuple(moved)
            kept_pos[vertex.index] = positions
        view._kept = kept
        view._kept_pos = kept_pos

        def translate_set(indices: set[int]) -> Optional[set[int]]:
            out = set()
            for index in indices:
                vertex = translate(index)
                if vertex is None:
                    return None
                out.add(vertex.index)
            return out

        region = translate_set(self.region)
        if region is None:
            return None
        view.region = region
        # Observability can only shrink under a valid edit; carrying
        # the old set over-approximates, which is identity-safe (a
        # dead source's walk visits private state and reports nothing).
        observable = translate_set(
            self.observable_indices & set(ordinal))
        view.observable_indices = observable if observable is not None \
            else set()
        sink_dsts = translate_set(self._sink_dsts & set(ordinal))
        view._sink_dsts = sink_dsts if sink_dsts is not None else set()
        live = []
        for source in self.live_sources:
            vertex = translate(source.index)
            if vertex is None:
                return None
            live.append(vertex)
        live.sort(key=lambda v: v.index)
        view.live_sources = live
        view.sources_total = self.sources_total
        view.touched_functions = set(self.touched_functions)
        view.source_reach_functions = self.source_reach_functions
        view.nodes_kept = self.nodes_kept
        view.edges_kept = self.edges_kept
        return view


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
                view._sink_dsts.add(site.index)
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
    observability is (div-zero reads them off the restricted fixpoint),
    so those views first walk backward from :meth:`Checker.sink_sites`
    and seed the forward walk with the live sources.
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
    # index -> [(succ position, edge, is_sink)], sink and propagating
    # out-edges only.
    classified: dict[int, list[tuple[int, DataEdge, bool]]] = {}
    prop_preds: dict[int, list[int]] = {}
    local_prop_preds: dict[int, list[int]] = {}
    sink_sources: set[int] = set()
    interprocedural: set[int] = set()
    sink_dsts: set[int] = set()
    work = [seed.index for seed in seeds]
    while work:
        index = work.pop()
        if index in classified:
            continue
        entries = classified[index] = []
        for position, edge in enumerate(pdg.data_succs(vertices[index])):
            if edge.kind not in edge_kinds:
                continue
            if checker.is_sink_edge(edge):
                entries.append((position, edge, True))
                sink_sources.add(index)
                sink_dsts.add(edge.dst.index)
            elif checker.propagates(edge):
                entries.append((position, edge, False))
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
        view._sink_dsts = sink_dsts
        sources = checker.sources_for(pdg, view)
        view.sources_total = len(seeds)
        if footprint.remappable:
            view.source_reach_functions = \
                {vertices[index].function for index in classified}
    view.live_sources = sources

    # Region: everything the pruned walk can visit.
    region = {source.index for source in sources}
    work = list(region)
    while work:
        index = work.pop()
        kept = [(position, edge, is_sink)
                for position, edge, is_sink in classified[index]
                if is_sink or edge.kind in _INTERPROCEDURAL
                or edge.dst.index in useful]
        if not kept:
            continue
        view._kept[index] = tuple((edge, is_sink)
                                  for _, edge, is_sink in kept)
        view._kept_pos[index] = tuple(position for position, _, _ in kept)
        for _, edge, is_sink in kept:
            if not is_sink and edge.dst.index not in region:
                region.add(edge.dst.index)
                work.append(edge.dst.index)
    view.region = region

    touched = {vertices[index].function for index in region}
    kept_dsts: set[int] = set()
    for entries in view._kept.values():
        for edge, _ in entries:
            kept_dsts.add(edge.dst.index)
            touched.add(edge.dst.function)
    view.touched_functions = touched
    view.nodes_kept = len(region | kept_dsts)
    view.edges_kept = sum(len(e) for e in view._kept.values())
    return view


# ---------------------------------------------------------------------- #
# Per-engine registry with cross-edit adoption
# ---------------------------------------------------------------------- #


class ViewRegistry:
    """Per-engine cache of checker views."""

    def __init__(self, pdg: ProgramDependenceGraph) -> None:
        self.pdg = pdg
        self._views: dict[str, SparsePDGView] = {}
        #: Telemetry counters accumulated since the last flush.
        self._pending: dict[str, float] = {}

    def _bump(self, **counts) -> None:
        for key, value in counts.items():
            self._pending[key] = self._pending.get(key, 0) + value

    def flush_telemetry(self, telemetry) -> None:
        """Move accumulated counters into ``telemetry`` (at most once)."""
        if telemetry is not None and self._pending:
            telemetry.record_reduce(**self._pending)
            self._pending = {}

    def view_for(self, checker: "Checker") -> SparsePDGView:
        view = self._views.get(checker.name)
        if view is not None:
            self._bump(view_cache_hits=1)
            return view
        started = time.perf_counter()
        view = build_view(self.pdg, checker)
        elapsed = time.perf_counter() - started
        self._views[checker.name] = view
        stats = view.stats()
        self._bump(views_built=1, build_seconds=elapsed,
                   nodes_kept=stats["nodes_kept"],
                   nodes_elided=stats["nodes_elided"],
                   edges_kept=stats["edges_kept"],
                   edges_elided=stats["edges_elided"],
                   scc_count=stats["scc_count"],
                   bypass_edges=stats["bypass_edges"],
                   live_sources=stats["live_sources"],
                   sources_elided=stats["sources_elided"])
        return view

    def adopt(self, old: "ViewRegistry", old_keys: dict, new_keys: dict,
              new_program) -> None:
        """Carry forward views an edit provably cannot have changed.

        ``old_keys``/``new_keys`` are per-function content fingerprints
        of the two programs.  A view survives only when *all* hold:

        * the footprint is remappable and its sources are not volatile
          (div-by-zero sources are value-dependent, so any edit may
          create one anywhere);
        * no function was added or removed (an extern name becoming
          defined — or vice versa — silently rewrites call edges in
          unchanged callers);
        * no changed function is in the view's touched set, is
          observed by the footprint (contains its source/sink
          constructs), can receive tracked facts (intersects the
          source-reachable function set), or calls into the touched or
          source-reachable sets (which would graft new interprocedural
          edges onto walked vertices or open a new flow into the
          changed body).

        Each survivor is then structurally remapped; any mismatch
        drops it (fail-safe rebuild on next use).
        """
        from repro.lang.ir import Call

        self._pending = dict(old._pending)
        if set(old_keys) != set(new_keys):
            self._bump(views_invalidated=len(old._views))
            return
        changed = [name for name in new_keys
                   if old_keys[name] != new_keys[name]]
        for name, view in old._views.items():
            survived = view.footprint.remappable and \
                not view.footprint.volatile_sources and \
                view.source_reach_functions is not None
            if survived:
                reach = view.source_reach_functions
                for function in changed:
                    if function in view.touched_functions or \
                            function in reach or \
                            view.footprint.observes(
                                new_program.functions[function]):
                        survived = False
                        break
                    callees = {
                        stmt.callee for stmt in
                        new_program.functions[function].statements()
                        if isinstance(stmt, Call)}
                    if callees & (view.touched_functions | reach):
                        survived = False
                        break
            remapped = view.remap(self.pdg) if survived else None
            if remapped is not None:
                self._views[name] = remapped
                self._bump(views_remapped=1)
            else:
                self._bump(views_invalidated=1)
