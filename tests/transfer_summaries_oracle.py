"""Transfer-function summaries: Algorithm 2's S_t cache (test oracle).

Nothing in ``repro`` calls this module: the engines collect candidates
with the path-enumerating sparse walk.  It is kept here as an
independent oracle that ``tests/test_transfer_summaries.py`` diffs
against that walk.

Both the conventional analysis (Algorithm 2) and Fusion (Algorithm 5)
cache *transfer* summaries — "(π, tr_π)" — so a function's data-flow
behaviour is computed once and instantiated at every call site.  This
module materialises that cache as a reachability table per
(checker, function):

* which parameters flow to the return value,
* which parameters flow into a sink (possibly through deeper callees),
* which in-function sources flow to the return value or a sink.

``discover_pairs`` uses the table for whole-program candidate discovery in
one bottom-up + one top-down pass — linear in the PDG instead of
re-walking callee bodies per source, which is exactly the cost S_t saves.
The result is the same (source, sink) pair set the path-enumerating
collector finds (differentially tested); the paths themselves are then
reconstructed only for the pairs that matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.checkers.base import Checker
from repro.pdg.callgraph import CallGraph
from repro.pdg.graph import EdgeKind, ProgramDependenceGraph, Vertex


@dataclass
class TransferSummary:
    """The data-flow behaviour of one function under one checker."""

    #: Parameter indices whose incoming fact reaches the return statement.
    param_to_return: set[int] = field(default_factory=set)
    #: (param index, sink vertex) pairs: a fact entering the parameter
    #: reaches that sink somewhere in this function's call tree.
    param_to_sink: set[tuple[int, int]] = field(default_factory=set)
    #: Source vertices (inside this function) whose fact reaches return.
    source_to_return: set[int] = field(default_factory=set)
    #: (source vertex, sink vertex) pairs realised inside the call tree.
    source_to_sink: set[tuple[int, int]] = field(default_factory=set)

    def entries(self) -> int:
        return (len(self.param_to_return) + len(self.param_to_sink)
                + len(self.source_to_return) + len(self.source_to_sink))


class TransferSummaryTable:
    """Computes and caches S_t bottom-up over the call graph."""

    def __init__(self, pdg: ProgramDependenceGraph, checker: Checker) -> None:
        self.pdg = pdg
        self.checker = checker
        self.summaries: dict[str, TransferSummary] = {}
        self._source_ids = {v.index for v in checker.sources(pdg)}
        self._compute_all()

    def summary(self, function: str) -> TransferSummary:
        return self.summaries[function]

    def total_entries(self) -> int:
        return sum(s.entries() for s in self.summaries.values())

    # ------------------------------------------------------------------ #
    # Bottom-up computation
    # ------------------------------------------------------------------ #

    def _compute_all(self) -> None:
        order = CallGraph(self.pdg.program).topological_order()
        for function in order:
            self.summaries[function] = self._analyze(function)

    def _analyze(self, function: str) -> TransferSummary:
        pdg = self.pdg
        summary = TransferSummary()
        ret = pdg.return_vertex(function)
        ret_index = ret.index if ret is not None else -1

        # Seed frontier: (vertex, origin) where origin is ("param", i) or
        # ("src", vertex index).
        frontier: list[tuple[Vertex, tuple]] = []
        for i, param_vertex in enumerate(pdg.param_vertices(function)):
            frontier.append((param_vertex, ("param", i)))
        for vertex in pdg.function_vertices(function):
            if vertex.index in self._source_ids:
                frontier.append((vertex, ("src", vertex.index)))

        seen: set[tuple[int, tuple]] = set()
        while frontier:
            vertex, origin = frontier.pop()
            key = (vertex.index, origin)
            if key in seen:
                continue
            seen.add(key)

            if vertex.index == ret_index:
                self._record_return(summary, origin)

            for edge in pdg.data_succs(vertex):
                if edge.dst.function != function \
                        and edge.kind is not EdgeKind.CALL:
                    continue
                if self.checker.is_sink_edge(edge):
                    self._record_sink(summary, origin, edge.dst.index)
                    continue
                if edge.kind is EdgeKind.CALL:
                    # Instantiate the callee's summary at this site.
                    frontier.extend(self._through_call(
                        function, vertex, edge, origin, summary))
                    continue
                if not self.checker.propagates(edge):
                    continue
                frontier.append((edge.dst, origin))
        return summary

    def _through_call(self, function: str, vertex: Vertex, edge,
                      origin: tuple, summary: TransferSummary):
        """A fact enters a callee parameter: splice the callee summary."""
        callee = edge.dst.function
        callee_summary = self.summaries.get(callee)
        if callee_summary is None:
            return []
        param_vertices = self.pdg.param_vertices(callee)
        param_index = next((i for i, p in enumerate(param_vertices)
                            if p.index == edge.dst.index), None)
        if param_index is None:
            return []
        out = []
        # Sinks reached inside the callee's call tree.
        for p_index, sink in callee_summary.param_to_sink:
            if p_index == param_index:
                self._record_sink(summary, origin, sink)
        # Flow back out through the callee's return: continue at the
        # receiver(s) of this call site.
        if param_index in callee_summary.param_to_return:
            site = next(s for s in self.pdg.callsites.values()
                        if s.callsite_id == edge.callsite)
            receiver = site.call_vertex
            if receiver.function == function:
                out.append((receiver, origin))
        return out

    @staticmethod
    def _record_return(summary: TransferSummary, origin: tuple) -> None:
        kind, payload = origin
        if kind == "param":
            summary.param_to_return.add(payload)
        else:
            summary.source_to_return.add(payload)

    @staticmethod
    def _record_sink(summary: TransferSummary, origin: tuple,
                     sink_index: int) -> None:
        kind, payload = origin
        if kind == "param":
            summary.param_to_sink.add((payload, sink_index))
        else:
            summary.source_to_sink.add((payload, sink_index))


def discover_pairs(pdg: ProgramDependenceGraph, checker: Checker,
                   table: Optional[TransferSummaryTable] = None
                   ) -> set[tuple[int, int]]:
    """All (source vertex, sink vertex) pairs the checker's fact can
    realise, via the summary table.

    Covers both directions of inter-procedural flow: downward (a source's
    fact passed into callees — handled inside each summary) and upward
    (a source flowing out through its function's return into every caller,
    transitively).
    """
    if table is None:
        table = TransferSummaryTable(pdg, checker)
    pairs: set[tuple[int, int]] = set()

    # In-function (and downward) hits, recorded per function.
    for summary in table.summaries.values():
        pairs.update(summary.source_to_sink)

    # Upward flows: a source reaching its function's return behaves like
    # the return value at every call site of that function.
    graph = CallGraph(pdg.program)
    worklist: list[tuple[str, int]] = []  # (function, source index)
    for function, summary in table.summaries.items():
        for src in summary.source_to_return:
            worklist.append((function, src))

    seen: set[tuple[str, int]] = set()
    while worklist:
        function, src = worklist.pop()
        if (function, src) in seen:
            continue
        seen.add((function, src))
        for site in pdg.callsites.values():
            if site.callee != function:
                continue
            receiver = site.call_vertex
            caller = site.caller
            # Propagate the fact onward from the receiver in the caller.
            for vertex_index, reaches_return, sinks in _flow_from(
                    pdg, checker, table, receiver):
                for sink in sinks:
                    pairs.add((src, sink))
                if reaches_return:
                    worklist.append((caller, src))
    return pairs


def _flow_from(pdg: ProgramDependenceGraph, checker: Checker,
               table: TransferSummaryTable, start: Vertex):
    """Local propagation from ``start`` within its function, splicing
    callee summaries; yields one aggregate tuple."""
    function = start.function
    ret = pdg.return_vertex(function)
    ret_index = ret.index if ret is not None else -1
    reaches_return = start.index == ret_index
    sinks: set[int] = set()

    frontier = [start]
    visited = {start.index}
    while frontier:
        vertex = frontier.pop()
        for edge in pdg.data_succs(vertex):
            if checker.is_sink_edge(edge):
                sinks.add(edge.dst.index)
                continue
            if edge.kind is EdgeKind.CALL:
                callee_summary = table.summaries.get(edge.dst.function)
                if callee_summary is None:
                    continue
                params = pdg.param_vertices(edge.dst.function)
                p_index = next((i for i, p in enumerate(params)
                                if p.index == edge.dst.index), None)
                if p_index is None:
                    continue
                for pi, sink in callee_summary.param_to_sink:
                    if pi == p_index:
                        sinks.add(sink)
                if p_index in callee_summary.param_to_return:
                    site = next(s for s in pdg.callsites.values()
                                if s.callsite_id == edge.callsite)
                    receiver = site.call_vertex
                    if receiver.index not in visited:
                        visited.add(receiver.index)
                        frontier.append(receiver)
                        if receiver.index == ret_index:
                            reaches_return = True
                continue
            if edge.dst.function != function:
                continue
            if not checker.propagates(edge):
                continue
            if edge.dst.index in visited:
                continue
            visited.add(edge.dst.index)
            frontier.append(edge.dst)
            if edge.dst.index == ret_index:
                reaches_return = True

    yield (start.index, reaches_return, sinks)
