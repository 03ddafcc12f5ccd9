"""Candidate triage: decide feasibility graph-side, before any SMT.

The triage contract (see ``docs/absint.md``) is a three-way verdict per
:class:`~repro.checkers.base.BugCandidate`:

* ``PROVEN_INFEASIBLE`` — the candidate's slice requirements are jointly
  unsatisfiable (backward refinement reached an empty interval).  The
  driver drops the candidate without building a condition; the seed
  engines would have returned UNSAT.
* ``PROVEN_FEASIBLE`` — every requirement's condition is a *forward
  singleton* equal to its required value (vacuously so for requirement-
  free paths).  The remaining SMT fragment is purely definitional and
  always satisfiable, so the driver reports the bug with an abstract
  witness instead of querying; the seed engines would have returned SAT.
* ``NEEDS_SMT`` — anything else falls through to the normal query path.

Both PROVEN verdicts must agree with what the engines would have
concluded — the differential suite (``tests/test_triage_differential.py``)
pins bug sets with and without triage to identity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.absint.domains import AbsValue, TaintSpec, TriageStats
from repro.absint.fixpoint import (AbstractState, FixpointConfig,
                                   analyze_pdg)
from repro.absint.refine import SliceRefiner
from repro.checkers.base import BugCandidate
from repro.lang.ir import Const
from repro.pdg.graph import ProgramDependenceGraph
from repro.pdg.slicing import Slice, compute_slice


class TriageVerdict(enum.Enum):
    PROVEN_INFEASIBLE = "proven-infeasible"
    PROVEN_FEASIBLE = "proven-feasible"
    NEEDS_SMT = "needs-smt"


@dataclass(frozen=True)
class TriageDecision:
    verdict: TriageVerdict
    #: For PROVEN_FEASIBLE: root-frame argument picks that drive the
    #: source fact to the sink (every requirement is constant-true, so
    #: any in-interval assignment works).
    witness: dict[str, int] = field(default_factory=dict)
    reason: str = ""

    @property
    def decided(self) -> bool:
        return self.verdict is not TriageVerdict.NEEDS_SMT


@dataclass(frozen=True)
class TriageConfig:
    """Knobs for the triage stage."""

    max_refinement_steps: int = 20000
    widen_after: int = 12


class CandidateTriage:
    """One fixpoint per PDG, one cheap decision per candidate.

    The whole-graph fixpoint is computed lazily on the first
    :meth:`decide` call and shared across all candidates of the run;
    per-candidate work is a slice plus a bounded backward refinement.
    """

    def __init__(self, pdg: ProgramDependenceGraph, checker=None,
                 config: Optional[TriageConfig] = None,
                 view=None) -> None:
        self.pdg = pdg
        self.config = config if config is not None else TriageConfig()
        self.taint_spec = (TaintSpec.from_checker(checker)
                           if checker is not None else TaintSpec.default())
        self.stats = TriageStats()
        self.view = view
        self._state: Optional[AbstractState] = None

    @property
    def state(self) -> AbstractState:
        if self._state is None:
            if self.view is not None:
                # Restricted to the view's pred-closed covered set: every
                # vertex a decision reads (path vertices, requirement
                # condition defs, refinement's backward walk, root-frame
                # parameters) carries its full-run value there.
                self._state = self.view.fixpoint_state(
                    self.taint_spec, self.config.widen_after)
            else:
                self._state = analyze_pdg(
                    self.pdg, self.taint_spec,
                    FixpointConfig(widen_after=self.config.widen_after))
            self.stats.fixpoint = self._state.stats
        return self._state

    def decide(self, candidate: BugCandidate) -> TriageDecision:
        the_slice = compute_slice(self.pdg, [candidate.path])
        refiner = SliceRefiner(self.pdg, self.state,
                               max_steps=self.config.max_refinement_steps)
        if refiner.proves_infeasible(the_slice):
            self.stats.refinement_steps += refiner.steps_taken
            self.stats.decided_infeasible += 1
            return TriageDecision(
                TriageVerdict.PROVEN_INFEASIBLE,
                reason="slice requirements meet to an empty interval")
        self.stats.refinement_steps += refiner.steps_taken
        if self._forward_satisfied(the_slice):
            self.stats.decided_feasible += 1
            return TriageDecision(
                TriageVerdict.PROVEN_FEASIBLE,
                witness=self._abstract_witness(candidate),
                reason="all requirement conditions are forward-constant")
        self.stats.sent_to_smt += 1
        return TriageDecision(TriageVerdict.NEEDS_SMT)

    # ------------------------------------------------------------------ #
    # PROVEN_FEASIBLE side
    # ------------------------------------------------------------------ #

    def _forward_satisfied(self, the_slice: Slice) -> bool:
        """Every requirement condition is a constant with the required
        truth value under the (context-insensitive, parameter-free)
        forward fixpoint — so every context satisfies it."""
        for req in the_slice.requirements:
            cond = req.vertex.stmt.cond
            if isinstance(cond, Const):
                if bool(cond.value) != req.value:
                    return False
                continue
            vertex = self.pdg.def_of_operand(req.vertex.function, cond)
            if vertex is None:
                return False
            value = self.state.values[vertex.index]
            if value.is_bottom or not value.interval.is_singleton:
                return False
            if bool(value.interval.lo) != req.value:
                return False
        return True

    def _abstract_witness(self, candidate: BugCandidate) -> dict[str, int]:
        """Concrete entry arguments for the path's root function.

        With every requirement constant-true, running the root function
        with *any* in-interval arguments drives the fact to the sink;
        we pick 0 when allowed, else the interval's low bound.  The
        root is the path's outermost enclosing activation (sink-side:
        a fact that escapes its birth function through a return edge
        roots at the escaped-into caller, whose execution actually
        reaches the sink — see ``DependencePath.root_frame``).
        """
        root = candidate.path.root_frame()
        witness: dict[str, int] = {}
        for vertex in self.pdg.param_vertices(root.function):
            value: AbsValue = self.state.values[vertex.index]
            if value.is_bottom:
                witness[vertex.var.name] = 0
            elif value.interval.contains(0):
                witness[vertex.var.name] = 0
            else:
                witness[vertex.var.name] = value.interval.lo
        return witness


def make_triage(pdg: ProgramDependenceGraph, checker,
                spec, view=None) -> Optional[CandidateTriage]:
    """Coerce an engine's ``triage=`` argument to a triage instance.

    Accepts ``None``/``False`` (off), ``True`` (default config), a
    :class:`TriageConfig`, or a prebuilt :class:`CandidateTriage` (reused
    as-is, fixpoint and all; a ``view`` is only attached to instances
    built here).
    """
    if spec is None or spec is False:
        return None
    if isinstance(spec, CandidateTriage):
        return spec
    if isinstance(spec, TriageConfig):
        return CandidateTriage(pdg, checker, spec, view=view)
    if spec is True:
        return CandidateTriage(pdg, checker, view=view)
    raise TypeError(f"triage must be a bool, TriageConfig or "
                    f"CandidateTriage, not {spec!r}")


__all__ = ["TriageVerdict", "TriageDecision", "TriageConfig",
           "CandidateTriage", "make_triage"]
