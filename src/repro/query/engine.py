"""Demand-driven value-flow queries (the ``repro.query`` engine).

A demand query decides one (def site, sink) pair without paying for a
whole-program ``analyze``.  The pipeline walks only the region between
the pair:

1. **Source selection** — the view's live sources are filtered to the
   def sites (when given) and pre-filtered by reachability: one
   backward walk from the sink vertices over the view's kept edges.
   A source that cannot reach any sink vertex is never walked.
2. **Demand collection** — each selected source replays exactly the
   per-source walk of :func:`~repro.sparse.engine.collect_candidates`
   (same view pruning, same frame interning, same dedup), so the
   candidates found for the pair are byte-identical to the full run's.
3. **Decision** — the pair's candidates go through the engine's own
   decision loop (:meth:`~repro.engine.base.PathSensitiveEngine.decide`,
   the one a full ``analyze`` runs after collection, inline on the hot
   engine): the same store replay, slicing, deadline, fresh solver per
   query, commit and report assembly.
4. **Verdict caching** — that loop replays pair verdicts from (and
   commits them to) the *same* content-addressed entries a full
   ``analyze`` uses, so a query after an analysis is warm and vice
   versa.

Byte-identity caveat: the sparse walk's global ``max_candidates`` cap
is the one cross-source coupling — a full run that hits the cap may
truncate a pair's paths where the demand walk does not.  The default
cap (50k) is far above every bundled subject; see ``docs/queries.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.checkers.base import BugCandidate, Checker
from repro.exec.faults import FaultPolicy
from repro.exec.scheduler import ExecConfig
from repro.exec.telemetry import Telemetry
from repro.pdg.graph import ProgramDependenceGraph
from repro.sparse.engine import collect_candidates


@dataclass(frozen=True)
class Verdict:
    """One demand query's answer plus its cost accounting."""

    checker: str
    #: At least one dependence path connects the pair.
    reachable: bool
    #: At least one connecting path is feasible (a real bug).
    feasible: bool
    #: Canonical findings for the pair — byte-identical to the
    #: corresponding entries of a full ``analyze``'s findings payload.
    findings: list = field(default_factory=list)
    candidates: int = 0
    sources_scanned: int = 0
    sources_skipped: int = 0
    replayed_verdicts: int = 0
    smt_queries: int = 0
    unknown_queries: int = 0
    #: The pair's region: path vertices, their governing branches, the
    #: root frame's parameters, all backward-closed over data edges.
    region_nodes: int = 0
    region_edges: int = 0
    pdg_nodes: int = 0
    pdg_edges: int = 0
    #: Region vertex indices (asserted ⊆ the pair's backward slice by
    #: the differential suite); not part of the wire payload.
    region_indices: frozenset = frozenset()
    #: Served from the session's in-memory per-pair memo.
    from_cache: bool = False

    def to_payload(self) -> dict:
        """JSON-safe wire shape (the ``query`` RPC result body)."""
        return {
            "checker": self.checker,
            "reachable": self.reachable,
            "feasible": self.feasible,
            "findings": self.findings,
            "candidates": self.candidates,
            "sources_scanned": self.sources_scanned,
            "sources_skipped": self.sources_skipped,
            "replayed_verdicts": self.replayed_verdicts,
            "smt_queries": self.smt_queries,
            "unknown_queries": self.unknown_queries,
            "region_nodes": self.region_nodes,
            "region_edges": self.region_edges,
            "pdg_nodes": self.pdg_nodes,
            "pdg_edges": self.pdg_edges,
            "from_cache": self.from_cache,
        }


def cached_verdict(verdict: Verdict) -> Verdict:
    """The memo-hit copy of a verdict."""
    return replace(verdict, from_cache=True)


def _select_sources(view, sink_indices: frozenset,
                    def_indices: Optional[frozenset]) -> tuple[list, int]:
    """The demand walk's sources: the view's live sources, def-site
    filtered, then pre-filtered by reachability to a sink over the
    view's kept edges.  Returns (selected, skipped)."""
    reaching = view.reaching(sink_indices)
    selected = [source for source in view.live_sources
                if source.index in reaching and
                (def_indices is None or source.index in def_indices)]
    return selected, len(view.live_sources) - len(selected)


def pair_region(pdg: ProgramDependenceGraph,
                candidates: list[BugCandidate]) -> set[int]:
    """The pair's region: everything a decision on these candidates can
    read — path vertices, their governing-branch chains, the root
    frame's parameters — backward-closed over data edges.

    The set is pred-closed (closure over data predecessors) and
    contained in the pair's backward slice (the differential suite
    asserts this).
    """
    seeds: set[int] = set()
    root_functions: set[str] = set()
    for candidate in candidates:
        for step in candidate.path.steps:
            seeds.add(step.vertex.index)
            for branch in pdg.control_chain(step.vertex):
                seeds.add(branch.index)
        root_functions.add(candidate.path.root_frame().function)
    for function in root_functions:
        for param in pdg.param_vertices(function):
            seeds.add(param.index)
    return pdg.backward_closure(seeds)


def _region_edge_count(pdg: ProgramDependenceGraph,
                       region: set[int]) -> int:
    return sum(1 for index in region
               for edge in pdg.data_succs(pdg.vertices[index])
               if edge.dst.index in region)


def run_demand_query(engine, checker: Checker, sink_indices,
                     def_indices=None, *, telemetry: Telemetry, store=None,
                     deadline_s: Optional[float] = None) -> Verdict:
    """Resolve one (def sites, sink sites) pair against a hot engine.

    ``engine`` is a :class:`~repro.engine.base.PathSensitiveEngine`
    (the infer baseline has no per-candidate solve path and is rejected
    by :meth:`repro.engine.AnalysisSession.query`).  ``sink_indices`` /
    ``def_indices`` are PDG vertex index collections; ``def_indices``
    of None means "any source".  The returned verdict's findings are
    byte-identical to the corresponding entries of a full ``analyze``.
    """
    from repro.engine.core import findings_payload

    pdg: ProgramDependenceGraph = engine.pdg
    sinks = frozenset(sink_indices)
    defs = frozenset(def_indices) if def_indices is not None else None
    view = engine.checker_view(checker, telemetry)

    selected, skipped = _select_sources(view, sinks, defs)
    walked = collect_candidates(pdg, checker, view=view, sources=selected)
    matched = [candidate for candidate in walked
               if candidate.sink.index in sinks
               and (defs is None or candidate.source.index in defs)]

    region = pair_region(pdg, matched)

    # The demand-query contract: a deadline overrun is UNKNOWN, any
    # other error propagates.  One job: the inline rung runs on this
    # engine.  An empty pair has nothing to replay or commit, so it
    # binds no store.
    faults = FaultPolicy(on_error="abort", query_timeout=deadline_s)
    tally = engine.decide(checker, matched, ExecConfig(faults=faults),
                          telemetry, store if matched else None)
    verdict = Verdict(
        checker=checker.name,
        reachable=bool(matched),
        feasible=bool(tally.bugs),
        findings=findings_payload(tally),
        candidates=len(matched),
        sources_scanned=len(selected),
        sources_skipped=skipped,
        replayed_verdicts=tally.replayed_verdicts,
        smt_queries=tally.smt_queries,
        unknown_queries=tally.unknown_queries,
        region_nodes=len(region),
        region_edges=_region_edge_count(pdg, region),
        pdg_nodes=pdg.num_vertices,
        pdg_edges=pdg.num_data_edges,
        region_indices=frozenset(region))
    telemetry.add(
        "query", demand_queries=1,
        region_nodes=verdict.region_nodes,
        region_edges=verdict.region_edges,
        pdg_nodes=verdict.pdg_nodes,
        pdg_edges=verdict.pdg_edges)
    return verdict


__all__ = ["Verdict", "run_demand_query", "pair_region",
           "cached_verdict"]
