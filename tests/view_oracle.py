"""Test oracle: the full-classification sparse-view builder.

``repro.pdg.reduce.build_view`` walks outward from a checker's seeds
and classifies only the edges it visits.  This module keeps the
original whole-graph construction — classify every data edge, then
derive observability, usefulness, the kept adjacency and the region
from global tables — so the seeded builder can be checked against it
field by field (``tests/test_reduce.py``).
"""

from __future__ import annotations

from repro.pdg.graph import DataEdge, EdgeKind, ProgramDependenceGraph
from repro.pdg.reduce import SparsePDGView

_INTERPROCEDURAL = (EdgeKind.CALL, EdgeKind.RETURN)


def full_view(pdg: ProgramDependenceGraph, checker) -> SparsePDGView:
    """A checker's sparse view, built from one pass over every edge."""
    footprint = checker.footprint()
    view = SparsePDGView(pdg, checker.name, footprint)
    edge_kinds = footprint.edge_kinds
    num = pdg.num_vertices

    classified: list[list[tuple[DataEdge, bool]]] = \
        [[] for _ in range(num)]
    prop_preds: list[list[int]] = [[] for _ in range(num)]
    local_prop_preds: list[list[int]] = [[] for _ in range(num)]
    sink_sources: set[int] = set()
    useful_seeds: set[int] = set()
    for vertex in pdg.vertices:
        source_index = vertex.index
        for edge in pdg.data_succs(vertex):
            if edge.kind not in edge_kinds:
                continue
            is_sink = checker.is_sink_edge(edge)
            if not (is_sink or checker.propagates(edge)):
                continue
            classified[source_index].append((edge, is_sink))
            if is_sink:
                sink_sources.add(source_index)
                useful_seeds.add(source_index)
            else:
                prop_preds[edge.dst.index].append(source_index)
                if edge.kind in _INTERPROCEDURAL:
                    useful_seeds.add(source_index)
                else:
                    local_prop_preds[edge.dst.index].append(source_index)

    def closure(seeds: set[int], neighbours: list[list[int]]) -> set[int]:
        closed = set(seeds)
        work = list(seeds)
        while work:
            index = work.pop()
            for other in neighbours[index]:
                if other not in closed:
                    closed.add(other)
                    work.append(other)
        return closed

    view.observable_indices = closure(sink_sources, prop_preds)
    useful = closure(useful_seeds, local_prop_preds)

    kept_all: dict[int, tuple[tuple[DataEdge, bool], ...]] = {}
    for index in range(num):
        entries = tuple((edge, is_sink) for edge, is_sink in classified[index]
                        if is_sink or edge.kind in _INTERPROCEDURAL
                        or edge.dst.index in useful)
        if entries:
            kept_all[index] = entries

    sources = checker.sources_for(pdg, view)
    view.live_sources = sources
    view.sources_total = len(checker.sources(pdg)) \
        if not footprint.volatile_sources else len(sources)

    region = {source.index for source in sources}
    work = list(region)
    while work:
        index = work.pop()
        for edge, is_sink in kept_all.get(index, ()):
            if not is_sink and edge.dst.index not in region:
                region.add(edge.dst.index)
                work.append(edge.dst.index)
    view.region = region
    view._kept = {index: kept_all[index]
                  for index in region if index in kept_all}

    kept_dsts = {edge.dst.index for entries in view._kept.values()
                 for edge, _ in entries}
    view.nodes_kept = len(region | kept_dsts)
    view.edges_kept = sum(len(e) for e in view._kept.values())
    return view
