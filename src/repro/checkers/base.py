"""Checker protocol and bug reporting types.

A checker configures the sparse analysis: which statements create the
tracked data-flow fact (*sources*), across which data-dependence edges the
fact survives (*transfer*), and which edges complete a bug pattern
(*sinks*).  This is the paper's point (3) in Section 3.3: with the fused
design, a checker author only writes the abstract domain and transfer
functions and never touches path conditions.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional

from typing import TYPE_CHECKING

from repro.pdg.graph import (DataEdge, EdgeKind, ProgramDependenceGraph,
                             Vertex)
from repro.smt.solver import DecidedBy

if TYPE_CHECKING:  # avoid a package-level import cycle with repro.sparse
    from repro.sparse.paths import DependencePath


@dataclass(frozen=True)
class CheckerFootprint:
    """What a checker can observe — the contract behind sparsification.

    ``repro.pdg.reduce`` builds per-checker pruned PDG views from this
    declaration.

    ``version`` participates in artifact-store fingerprints: bump it
    whenever the checker's observation semantics change, so warm-cache
    replay never mixes artifacts across footprint generations.
    """

    checker: str
    version: int = 1
    #: Extern symbols whose calls create the tracked fact.
    source_symbols: frozenset = frozenset()
    #: Extern symbols whose calls complete the bug pattern.
    sink_symbols: frozenset = frozenset()
    #: Data-edge kinds ``propagates``/``is_sink_edge`` may return True
    #: for; other kinds are skipped without consulting the checker.
    edge_kinds: frozenset = frozenset(EdgeKind)
    #: The checker treats ``null`` literal assignments as sources.
    null_literal_sources: bool = False
    #: Sources are value-dependent (div-zero's come from a constant
    #: fold), so the view finds them by walking backward from the sink
    #: sites.
    volatile_sources: bool = False

    def key(self) -> tuple:
        """Stable fingerprint component (artifact-store keying)."""
        return (self.checker, self.version,
                tuple(sorted(self.source_symbols)),
                tuple(sorted(self.sink_symbols)),
                self.null_literal_sources, self.volatile_sources)


class Checker(abc.ABC):
    """Defines one data-flow bug pattern over the PDG."""

    #: Short identifier used in reports ("null-deref", "cwe-23", ...).
    name: str = "checker"

    @abc.abstractmethod
    def sources(self, pdg: ProgramDependenceGraph) -> list[Vertex]:
        """Statements that generate the tracked fact."""

    @abc.abstractmethod
    def propagates(self, edge: DataEdge) -> bool:
        """Whether the fact survives flowing across ``edge``."""

    @abc.abstractmethod
    def is_sink_edge(self, edge: DataEdge) -> bool:
        """Whether reaching ``edge.dst`` via ``edge`` completes the bug."""

    def footprint(self) -> CheckerFootprint:
        """This checker's observation footprint.

        The default is maximally conservative — volatile sources, all
        edge kinds — which keeps sparsification sound
        for third-party checkers that declare nothing."""
        return CheckerFootprint(checker=self.name, volatile_sources=True)

    def sink_sites(self, pdg: ProgramDependenceGraph) -> list[Vertex]:
        """Every vertex a sink edge can end at.  A view of a checker
        with volatile sources walks backward from these; the default,
        every vertex, is always sound."""
        return pdg.vertices

    def sources_for(self, pdg: ProgramDependenceGraph,
                    view) -> list[Vertex]:
        """Sources restricted to a sparse ``view``, in ``sources`` order.

        The default keeps exactly the observable sources (those from
        which a sink edge is reachable over propagating edges); elided
        sources cannot produce candidates, so the pruned walk stays
        byte-identical to the full one."""
        return [vertex for vertex in self.sources(pdg)
                if view.observable(vertex)]


@dataclass
class BugCandidate:
    """A source-to-sink dependence path awaiting a feasibility verdict."""

    checker: str
    path: DependencePath

    @property
    def source(self) -> Vertex:
        return self.path.source.vertex

    @property
    def sink(self) -> Vertex:
        return self.path.sink.vertex

    def key(self) -> tuple:
        """Dedup key: one report per (source stmt, sink stmt) pair."""
        return (self.checker, self.source.index, self.sink.index)

    def group_key(self) -> tuple:
        """The candidate's poison group for the circuit breaker
        (:mod:`repro.exec.breaker`).

        Candidates with the same checker and sink function share almost
        all of their sliced condition (the per-function local conditions
        of Algorithm 6), so a query that keeps failing tends to fail for
        the whole group.  The key is picklable and stable across workers.
        """
        return (self.checker, self.sink.function)

    def __repr__(self) -> str:
        return (f"candidate[{self.checker}: {self.source!r} ~> "
                f"{self.sink!r}]")


@dataclass
class BugReport:
    """A candidate the analysis decided to report."""

    candidate: BugCandidate
    feasible: bool
    #: The stage that settled the verdict in this run (``store`` when it
    #: was replayed from a persistent artifact store); None when the
    #: engine decides no candidate on its own (the Infer baseline).
    decided_by: Optional[DecidedBy] = None
    #: A concrete satisfying assignment for the path condition
    #: (variable name -> value), when the engine was asked to extract one.
    witness: dict[str, int] = field(default_factory=dict)

    @property
    def checker(self) -> str:
        return self.candidate.checker

    @property
    def source(self) -> Vertex:
        return self.candidate.source

    @property
    def sink(self) -> Vertex:
        return self.candidate.sink

    def __repr__(self) -> str:
        tag = "BUG" if self.feasible else "infeasible"
        return f"[{tag}] {self.candidate!r}"


@dataclass
class AnalysisResult:
    """Everything one engine run produces, plus its resource footprint."""

    engine: str
    checker: str
    reports: list[BugReport] = field(default_factory=list)
    candidates: int = 0
    #: Queries that ended UNKNOWN.  Soundy bug-finding still reports them
    #: as feasible, but they are tracked separately so budget-sensitivity
    #: sweeps can tell "proven" from "assumed" bugs.
    unknown_queries: int = 0
    wall_time: float = 0.0
    #: Deterministic memory model: live term-DAG nodes, cached summary
    #: nodes, and graph size (see repro.limits.Budget for rationale).
    memory_units: int = 0
    condition_memory_units: int = 0  # the Figure 1(c) numerator
    failure: Optional[str] = None    # "memory"/"time" when budget exceeded

    @property
    def bugs(self) -> list[BugReport]:
        return [r for r in self.reports if r.feasible]

    def _decided_by(self, *values: Optional[DecidedBy]) -> int:
        return sum(report.decided_by in values for report in self.reports)

    @property
    def smt_queries(self) -> int:
        """Verdicts decided, not replayed, in this run."""
        return len(self.reports) - self._decided_by(DecidedBy.STORE, None)

    @property
    def decided_in_preprocess(self) -> int:
        return self._decided_by(DecidedBy.PREPROCESS)

    @property
    def error_queries(self) -> int:
        """Queries isolated to UNKNOWN (exception, deadline overrun, open
        breaker) instead of aborting the run; see docs/robustness.md."""
        return self._decided_by(DecidedBy.TIMEOUT, DecidedBy.ERROR,
                                DecidedBy.BREAKER)

    @property
    def replayed_verdicts(self) -> int:
        """Verdicts replayed from the artifact store (warm run)."""
        return self._decided_by(DecidedBy.STORE)

    def summary(self) -> str:
        status = self.failure if self.failure else "ok"
        unknown = f", {self.unknown_queries} unknown" \
            if self.unknown_queries else ""
        errors = f", {self.error_queries} errored" \
            if self.error_queries else ""
        replayed = f", {self.replayed_verdicts} replayed" \
            if self.replayed_verdicts else ""
        return (f"{self.engine}/{self.checker}: {len(self.bugs)} bugs / "
                f"{self.candidates} candidates, {self.smt_queries} queries"
                f"{unknown}{errors}{replayed}, "
                f"{self.wall_time:.2f}s, "
                f"{self.memory_units} mem units [{status}]")
