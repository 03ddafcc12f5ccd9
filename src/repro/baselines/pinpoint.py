"""The conventional baseline: Pinpoint and its QE/LFS/HFS/AR variants.

Pinpoint follows the non-fused design of Figure 2(a) / Algorithm 2: path
conditions are computed eagerly by *cloning* every callee's condition at
every call site, and the expanded conditions are *cached* as function
summaries.  Both costs are real here — the expansion actually builds the
cloned term DAGs and the cache actually holds them — so the time/memory
gap against Fusion in the benchmarks emerges from genuine work, not from
hard-coded constants.

The variants, named by :attr:`PinpointConfig.variant`, arm the same
engine with the formula-level tactics the paper evaluates in Section 5.1:

* ``+QE``  — quantifier-eliminate callee-local variables from each cached
  summary (Z3's ``qe``); explodes and memory-outs on all but tiny inputs.
* ``+LFS`` — lightweight simplification of each cached summary (``simplify``).
* ``+HFS`` — heavyweight contextual simplification (``ctx-solver-simplify``),
  which issues extra SMT queries per summary.
* ``+AR``  — abstraction refinement: start from an intra-procedural
  condition and extend it level by level, re-querying the solver each time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.checkers.base import BugCandidate
from repro.engine.base import PathSensitiveEngine
from repro.fusion.instantiate import assemble_condition
from repro.fusion.transform import ConditionTransformer
from repro.limits import Budget, Deadline
from repro.pdg.graph import ProgramDependenceGraph
from repro.pdg.slicing import Slice
from repro.smt.preprocess import constraint_set_size
from repro.smt.solver import SmtResult, SmtSolver, SmtStatus, SolverConfig
from repro.smt.tactics import eliminate_quantifier, hfs_simplify, lfs_simplify
from repro.smt.terms import Term


@dataclass
class PinpointConfig:
    solver: SolverConfig = field(default_factory=SolverConfig)
    budget: Optional[Budget] = None
    #: ``""`` (plain), or one of the variants ``"qe"``, ``"lfs"``,
    #: ``"hfs"`` (each a summary tactic in :data:`_TACTICS`) and ``"ar"``
    #: (solve by iterative condition extension instead of one shot).
    variant: str = ""

    def __post_init__(self) -> None:
        if self.variant not in _TACTICS:
            raise ValueError(f"unknown Pinpoint variant {self.variant!r}")


class PinpointEngine(PathSensitiveEngine):
    """Conventional path-sensitive sparse analysis (Algorithm 2)."""

    def __init__(self, pdg: ProgramDependenceGraph,
                 config: Optional[PinpointConfig] = None) -> None:
        super().__init__(pdg, config if config is not None
                         else PinpointConfig())
        self.transformer = ConditionTransformer(pdg)
        self.smt = SmtSolver(self.transformer.manager, self.config.solver)
        self._expanded_summaries: dict[tuple, list[Term]] = {}
        self.cached_condition_nodes = 0
        self.peak_condition_nodes = 0
        #: The in-flight query's deadline; set by :meth:`solve_one` so
        #: the recursive expansion helpers can observe it.
        self._deadline: Optional[Deadline] = None

    @property
    def name(self) -> str:
        variant = self.config.variant
        return f"pinpoint+{variant.upper()}" if variant else "pinpoint"

    @property
    def solver_config(self) -> SolverConfig:
        return self.config.solver

    # ------------------------------------------------------------------ #
    # Summary expansion: condition cloning + condition caching
    # ------------------------------------------------------------------ #

    def expanded_summary(self, fn: str, needed_of) -> list[Term]:
        """The fully expanded path-condition summary of ``fn`` (cached)."""
        key = (fn, needed_of(fn))
        cached = self._expanded_summaries.get(key)
        if cached is not None:
            return cached
        constraints = self._expand(fn, needed_of, frozenset())
        tactic = _TACTICS[self.config.variant]
        if tactic is not None:
            constraints = tactic(self, fn, constraints)
        self._expanded_summaries[key] = constraints
        self.cached_condition_nodes += constraint_set_size(constraints)
        self._check_memory()
        return constraints

    def _expand(self, fn: str, needed_of, skip: frozenset[int],
                depth: Optional[int] = None) -> list[Term]:
        """``fn``'s condition with every callee cloned in, from the
        cached summaries; with a ``depth``, expansion stops that many
        call levels down (callees beyond the bound are left
        unconstrained — AR's coarse abstraction)."""
        if self._deadline is not None:
            self._deadline.check("summary expansion")
        template = self.transformer.template(fn, needed_of(fn))
        out = list(template.constraints)
        if depth is not None and depth <= 0:
            return out
        for binding in template.calls:
            if binding.callsite in skip:
                continue
            if depth is None:
                child = self.expanded_summary(binding.callee, needed_of)
            else:
                child = self._expand(binding.callee, needed_of,
                                     frozenset(), depth - 1)
            out.extend(self.transformer.clone_at(fn, binding, child))
        return out

    def _check_memory(self) -> None:
        budget = self.config.budget
        if budget is not None:
            budget.check_memory(self._memory_snapshot()[0])
            budget.check_time()

    # ------------------------------------------------------------------ #
    # Solving (called by the PathSensitiveEngine skeleton)
    # ------------------------------------------------------------------ #

    def _fingerprint_extras(self) -> dict:
        """The summary tactic is keyed by name: the tactics are pure
        formula transforms, so equal names mean equal verdicts."""
        tactic = _TACTICS[self.config.variant]
        return {
            "summary_tactic": None if tactic is None else tactic.__name__,
            "abstraction_refinement": self.config.variant == "ar",
        }

    def solve_one(self, candidate: BugCandidate, the_slice: Slice,
                  deadline: Optional[Deadline]) -> SmtResult:
        self._deadline = deadline
        try:
            if self.config.variant == "ar":
                return self._solve_with_refinement(candidate, the_slice,
                                                   deadline=deadline)
            constraints = self._full_condition(candidate, the_slice)
            return self.smt.check(constraints, deadline=deadline)
        finally:
            self._deadline = None

    def _full_condition(self, candidate: BugCandidate,
                        the_slice: Slice,
                        max_depth: Optional[int] = None) -> list[Term]:
        needed = {fn: self.transformer.needed_key(the_slice, fn)
                  for fn in the_slice.needed}

        def needed_of(fn: str) -> frozenset[int]:
            return needed.get(fn, frozenset())

        def instance(fn: str, skip: frozenset[int],
                     suffix: str) -> list[Term]:
            if not skip and max_depth is None:
                summary = self.expanded_summary(fn, needed_of)
            else:
                summary = self._expand(fn, needed_of, skip, max_depth)
            rename = self.transformer.manager.rename
            return [rename(c, suffix) for c in summary]

        constraints = assemble_condition(
            self.transformer, [candidate.path], the_slice, instance)
        self.peak_condition_nodes = max(self.peak_condition_nodes,
                                        constraint_set_size(constraints))
        self._check_memory()
        return constraints

    # ------------------------------------------------------------------ #
    # Abstraction refinement (Pinpoint+AR)
    # ------------------------------------------------------------------ #

    def _solve_with_refinement(self, candidate: BugCandidate,
                               the_slice: Slice,
                               max_rounds: int = 8,
                               deadline: Optional[Deadline] = None
                               ) -> SmtResult:
        """Solve with a growing abstraction: an UNSAT verdict at any level
        is final; SAT verdicts trigger deeper expansion (each round is a
        fresh SMT query — the cost the paper observes for AR).  All
        rounds share the one per-query deadline."""
        result: Optional[SmtResult] = None
        constraints = self._full_condition(candidate, the_slice,
                                           max_depth=0)
        for depth in range(max_rounds):
            result = self.smt.check(constraints, deadline=deadline)
            self._check_memory()
            if result.status is SmtStatus.UNSAT:
                return result
            deeper = self._full_condition(candidate, the_slice,
                                          max_depth=depth + 1)
            if constraint_set_size(deeper) \
                    == constraint_set_size(constraints):
                return result  # abstraction is already exact
            constraints = deeper
        assert result is not None
        return result

    # ------------------------------------------------------------------ #
    # Memory model
    # ------------------------------------------------------------------ #

    def _memory_snapshot(self) -> tuple[int, int]:
        graph = self.pdg.num_vertices + self.pdg.num_edges
        conditions = self.cached_condition_nodes + self.peak_condition_nodes
        return graph + conditions, conditions


# --------------------------------------------------------------------- #
# Variants
# --------------------------------------------------------------------- #


def _qe_tactic(engine: PinpointEngine, fn: str,
               constraints: list[Term]) -> list[Term]:
    mgr = engine.transformer.manager
    formula = mgr.conj(constraints)
    interface = {v.name for v in engine.transformer.interface_vars(
        fn, frozenset())}
    local_vars = [v for v in formula.free_vars()
                  if v.name.startswith(f"{fn}::") and v.name not in interface]
    budget = engine.config.budget
    max_size = budget.max_memory_units if budget is not None \
        and budget.max_memory_units is not None else 200_000
    eliminated = eliminate_quantifier(mgr, formula, local_vars,
                                      max_size=max_size)
    return [eliminated]


def _lfs_tactic(engine: PinpointEngine, fn: str,
                constraints: list[Term]) -> list[Term]:
    mgr = engine.transformer.manager
    return [lfs_simplify(mgr, c) for c in constraints]


def _hfs_tactic(engine: PinpointEngine, fn: str,
                constraints: list[Term]) -> list[Term]:
    mgr = engine.transformer.manager
    # Each contextual query gets a tight budget of its own; HFS's cost is
    # the *number* of solver round-trips, which is what the paper blames.
    inner = SolverConfig(
        enabled_passes=engine.config.solver.enabled_passes,
        conflict_limit=20_000, time_limit=1.0)
    simplified, _queries = hfs_simplify(mgr, mgr.conj(constraints), inner,
                                        max_queries=8)
    return [simplified]


#: Per variant, the tactic applied to each freshly expanded summary before
#: caching (None: the summary is cached as expanded).
_TACTICS = {"": None, "qe": _qe_tactic, "lfs": _lfs_tactic,
            "hfs": _hfs_tactic, "ar": None}


def make_pinpoint(pdg: ProgramDependenceGraph, variant: str = "",
                  budget: Optional[Budget] = None,
                  solver: Optional[SolverConfig] = None) -> PinpointEngine:
    """Factory for ``""`` (plain), ``"qe"``, ``"lfs"``, ``"hfs"``, ``"ar"``."""
    return PinpointEngine(pdg, PinpointConfig(
        solver=solver if solver is not None else SolverConfig(),
        budget=budget, variant=variant))
