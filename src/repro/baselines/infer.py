"""An Infer-style baseline: compositional, summary-based, path-insensitive.

Models the analyzer the paper compares against in Section 5.2:

* **Non-sparse** — a dense abstract interpretation that visits every
  statement and stores a fact set at every program point (the Figure 6(a)
  style the paper contrasts with sparse propagation), which is where the
  memory overhead comes from;
* **Compositional** — bottom-up function summaries describing which
  parameters/sources flow to returns and sinks, cached for every function
  (the paper: "it generates and caches many function summaries");
* **Path-insensitive** — facts join at merge points with no branch
  conditions, so infeasible-path reports are emitted as-is (the 66.1%
  false-positive rate of Table 5);
* **Depth-bounded** — flows spanning more than :data:`MAX_HOPS` call levels
  are dropped, modelling the "limited capability of detecting cross-file
  bugs" that costs Infer recall.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.checkers.base import (AnalysisResult, BugCandidate, BugReport,
                                 Checker)
from repro.collector import paused
from repro.exec.telemetry import Telemetry
from repro.lang.ir import (Assign, Binary, Call, Identity, IfThenElse,
                           Return, Var)
from repro.limits import Budget, MemoryBudgetExceeded, TimeBudgetExceeded
from repro.pdg.graph import ProgramDependenceGraph, Vertex
from repro.sparse.paths import DependencePath, FrameTable, PathStep

if TYPE_CHECKING:
    from repro.exec.scheduler import ExecConfig

#: A fact is ("param", i, hops) or ("src", vertex_index, hops).
Fact = tuple

#: Call levels a flow may span before it is dropped (the depth bound).
MAX_HOPS = 3


@dataclass
class FunctionSummary:
    """Which inputs reach the return value and which reach sinks."""

    returns: set[Fact] = field(default_factory=set)
    #: (fact, sink vertex index) — param-origin facts are re-instantiated
    #: at each call site.
    sink_hits: set[tuple[Fact, int]] = field(default_factory=set)

    def entries(self) -> int:
        return len(self.returns) + len(self.sink_hits)


@dataclass
class InferConfig:
    budget: Optional[Budget] = None


class InferEngine:
    """The abduction-flavoured dense baseline."""

    name = "infer"

    def __init__(self, pdg: ProgramDependenceGraph,
                 config: Optional[InferConfig] = None) -> None:
        self.pdg = pdg
        self.config = config if config is not None else InferConfig()
        self.summaries: dict[str, FunctionSummary] = {}
        self.state_units = 0      # dense per-statement fact storage
        self.summary_units = 0

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #

    @paused
    def analyze(self, checker: Checker,
                exec_config: Optional["ExecConfig"] = None,
                telemetry: Optional[Telemetry] = None,
                store=None) -> AnalysisResult:
        """``exec_config`` and ``store`` are accepted for interface
        parity with the path-sensitive engines but ignored: the summary
        computation is a bottom-up fixpoint over the call DAG, not a bag
        of independent feasibility queries, so there is nothing to batch
        and no per-candidate verdict to cache.  Telemetry still records
        the ``engine.analyze`` span and memory."""
        from repro.pdg.callgraph import CallGraph

        start = time.perf_counter()
        budget = self.config.budget if self.config.budget is not None \
            else Budget()
        budget.restart_clock()
        result = AnalysisResult(self.name, checker.name)
        telemetry = telemetry if telemetry is not None else Telemetry()
        telemetry.annotate(engine=self.name, checker=checker.name,
                           jobs=1, backend="inline")

        source_ids = {v.index for v in checker.sources(self.pdg)}
        sink_names = self._sink_names(checker)
        sanitizer_names = frozenset(getattr(checker, "sanitizers",
                                            frozenset()))
        through_binary = self._taints_through_binary(checker)

        reports: set[tuple[int, int]] = set()
        try:
            order = CallGraph(self.pdg.program).topological_order()
            for fn_name in order:
                self.summaries[fn_name] = self._analyze_function(
                    fn_name, source_ids, sink_names, sanitizer_names,
                    through_binary, reports)
                self.summary_units += self.summaries[fn_name].entries()
                budget.check_memory(self._memory_units())
                budget.check_time()
        except MemoryBudgetExceeded:
            result.failure = "memory"
        except TimeBudgetExceeded:
            result.failure = "time"

        for src_index, sink_index in sorted(reports):
            candidate = BugCandidate(checker.name, _stub_path(
                self.pdg.vertices[src_index], self.pdg.vertices[sink_index]))
            result.reports.append(BugReport(candidate, feasible=True))
        result.candidates = len(result.reports)
        result.memory_units = self._memory_units()
        telemetry.peak("memory", peak_units=result.memory_units,
                       peak_condition_units=result.condition_memory_units)
        result.wall_time = time.perf_counter() - start
        telemetry.add_span("engine.analyze", result.wall_time)
        return result

    # ------------------------------------------------------------------ #
    # Per-function dense data flow
    # ------------------------------------------------------------------ #

    def _analyze_function(self, fn_name: str, source_ids: set[int],
                          sink_names: frozenset[str],
                          sanitizers: frozenset[str], through_binary: bool,
                          reports: set[tuple[int, int]]) -> FunctionSummary:
        fn = self.pdg.program.functions[fn_name]
        summary = FunctionSummary()
        env: dict[str, set[Fact]] = {}
        param_index = {p.name: i for i, p in enumerate(fn.params)}

        def facts_of(operand) -> set[Fact]:
            if isinstance(operand, Var):
                return env.get(operand.name, set())
            return set()

        for vertex in self.pdg.function_vertices(fn_name):
            stmt = vertex.stmt
            facts: set[Fact] = set()
            if isinstance(stmt, Identity):
                index = param_index.get(stmt.result.name)
                if index is not None:
                    facts.add(("param", index, 0))
            elif isinstance(stmt, (Assign, Return)):
                facts |= facts_of(stmt.source)
            elif isinstance(stmt, IfThenElse):
                # Path-insensitive join: both branch values merge.
                facts |= facts_of(stmt.then_value)
                facts |= facts_of(stmt.else_value)
            elif isinstance(stmt, Binary) and through_binary:
                facts |= facts_of(stmt.lhs)
                facts |= facts_of(stmt.rhs)
            elif isinstance(stmt, Call):
                facts |= self._call_facts(stmt, vertex, facts_of,
                                          sink_names, sanitizers, reports)
            if vertex.index in source_ids:
                facts.add(("src", vertex.index, 0))
            env[stmt.result.name] = facts
            # Dense storage: the engine keeps the fact set at every point.
            self.state_units += max(1, len(facts))
            if isinstance(stmt, Return):
                summary.returns |= facts
        return summary

    def _call_facts(self, stmt: Call, vertex: Vertex, facts_of,
                    sink_names: frozenset[str], sanitizers: frozenset[str],
                    reports: set[tuple[int, int]]) -> set[Fact]:
        if stmt.callee in sanitizers:
            return set()
        if stmt.callee in sink_names:
            for arg in stmt.args:
                for fact in facts_of(arg):
                    if fact[0] == "src":
                        reports.add((fact[1], vertex.index))
            return set()
        callee_summary = self.summaries.get(stmt.callee)
        if callee_summary is None:
            return set()  # extern (non-sink): fresh value

        out: set[Fact] = set()
        for fact in callee_summary.returns:
            out |= self._instantiate(fact, stmt, facts_of)
        for fact, sink_index in callee_summary.sink_hits:
            for instantiated in self._instantiate(fact, stmt, facts_of):
                if instantiated[0] == "src":
                    reports.add((instantiated[1], sink_index))
        # Record the callee's own source-to-sink hits unconditionally.
        for fact, sink_index in callee_summary.sink_hits:
            if fact[0] == "src":
                reports.add((fact[1], sink_index))
        return out

    def _instantiate(self, fact: Fact, stmt: Call, facts_of) -> set[Fact]:
        kind, payload, hops = fact
        if hops + 1 > MAX_HOPS:
            return set()  # the depth bound: deep flows are lost
        if kind == "src":
            return {("src", payload, hops + 1)}
        if payload < len(stmt.args):
            return {(k, p, h + 1) for (k, p, h) in facts_of(
                stmt.args[payload]) if h + 1 <= MAX_HOPS}
        return set()

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _sink_names(checker: Checker) -> frozenset[str]:
        for attr in ("sink_calls", "sinks"):
            names = getattr(checker, attr, None)
            if names:
                return frozenset(names)
        return frozenset()

    @staticmethod
    def _taints_through_binary(checker: Checker) -> bool:
        # Taint survives arithmetic; nullness does not.  Mirrors each
        # checker's propagates() on Binary statements.
        return checker.name.startswith("cwe")

    def _memory_units(self) -> int:
        graph = self.pdg.num_vertices + self.pdg.num_edges
        return graph + self.state_units + self.summary_units


def _stub_path(source: Vertex, sink: Vertex) -> DependencePath:
    """Infer reports carry no witness path; fabricate a two-step stub so
    BugReport plumbing stays uniform."""
    frames = FrameTable()
    root = frames.root(source.function)
    sink_frame = root if sink.function == source.function \
        else frames.root(sink.function)
    return DependencePath([PathStep(source, root),
                           PathStep(sink, sink_frame)])
