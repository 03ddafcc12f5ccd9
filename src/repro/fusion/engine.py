"""The Fusion analyzer: Algorithm 5 + ir_based_smt_solve.

"In this algorithm, we do not compute any φ" — the sparse phase only
collects Π; feasibility is decided by the graph solver without ever
materialising (let alone caching) cloned path conditions.  The engine's
memory footprint is therefore the PDG plus the per-function preprocessed
templates, which is what Table 3's 5x-33x memory gap against Pinpoint
comes from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.checkers.base import BugCandidate
from repro.engine.base import PathSensitiveEngine
from repro.fusion.graph_solver import GraphSolverConfig, IrBasedSmtSolver
from repro.fusion.transform import ConditionTransformer
from repro.lang.ir import Program
from repro.limits import Budget, Deadline
from repro.pdg.builder import build_pdg
from repro.pdg.graph import ProgramDependenceGraph
from repro.pdg.slicing import Slice
from repro.smt.solver import SmtResult, SolverConfig


@dataclass
class FusionConfig:
    solver: GraphSolverConfig = field(default_factory=GraphSolverConfig)
    budget: Optional[Budget] = None


def prepare_pdg(program: Program, previous: Optional[
        ProgramDependenceGraph] = None) -> ProgramDependenceGraph:
    """Validate the program, unroll recursion and build the
    whole-program dependence graph, walking only the functions that are
    not ``previous``'s (:func:`repro.pdg.builder.build_pdg`)."""
    return build_pdg(program, unroll=True, previous=previous)


class FusionEngine(PathSensitiveEngine):
    """The fused path-sensitive sparse analyzer."""

    name = "fusion"

    def __init__(self, program_or_pdg, config: Optional[FusionConfig] = None
                 ) -> None:
        pdg = program_or_pdg \
            if isinstance(program_or_pdg, ProgramDependenceGraph) \
            else prepare_pdg(program_or_pdg)
        super().__init__(pdg, config if config is not None
                         else FusionConfig())
        self.transformer = ConditionTransformer(self.pdg)
        self.solver = IrBasedSmtSolver(self.pdg, self.transformer,
                                       self.config.solver)

    @property
    def solver_config(self) -> SolverConfig:
        return self.config.solver.solver

    def solve_one(self, candidate: BugCandidate, the_slice: Slice,
                  deadline: Optional[Deadline]) -> SmtResult:
        return self.solver.solve([candidate.path], the_slice,
                                 deadline=deadline)

    def _fingerprint_extras(self) -> dict:
        solver = self.config.solver
        return {
            "optimized": solver.optimized,
            "use_quickpaths": solver.use_quickpaths,
            # Resolved, so that a store written while ``None`` meant
            # every pass (Gaussian elimination included) cannot replay.
            "local_passes": list(solver.template_passes),
            "want_model": solver.want_model,
        }

    def _memory_snapshot(self) -> tuple[int, int]:
        """(total units, condition-cache units).

        Fusion caches no path conditions; its footprint is the graph, the
        preprocessed local templates, and the largest in-flight query.
        """
        graph = self.pdg.num_vertices + self.pdg.num_edges
        templates = self.solver.stats.template_nodes
        peak_query = self.solver.stats.peak_condition_nodes
        return graph + templates + peak_query, 0
