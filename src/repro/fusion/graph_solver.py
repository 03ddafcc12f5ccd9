"""IR-based SMT solving (Algorithms 4 and 6).

``ir_based_smt_solve`` decides the feasibility of a path set Π directly
from the program dependence graph:

* **Unoptimized (Algorithm 4)** — slice, clone every callee at every call
  site, translate, hand the full formula to the conventional solver.  No
  summaries are cached (that is the difference from the conventional
  engine), but the cloning cost is still paid per query.
* **Optimized (Algorithm 6)** — per-function local conditions are
  preprocessed *once* (``TEMPLATE_PASSES``: constant/equality
  propagation, unconstrained-variable elimination, strength reduction,
  probing — with interface variables protected), call bindings are
  resolved through quick-path summaries whenever the callee's return
  value is constant, affine in a parameter, or unconstrained, and only
  *opaque* callees are cloned.  Cloning is thereby delayed until after
  preprocessing, the paper's key optimization.

Both build each instance directly at its final name: the frame suffix
``#f<fid>`` is threaded down the call tree, a callee is cloned at
``@<site>`` + its caller's suffix, and every template constraint is
renamed exactly once.  No term is renamed twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.fusion.instantiate import assemble_condition
from repro.fusion.quickpath import QuickPathTable, Shape
from repro.fusion.transform import CallBinding, ConditionTransformer
from repro.limits import Deadline
from repro.pdg.graph import ProgramDependenceGraph
from repro.pdg.slicing import Slice
from repro.smt.preprocess import Preprocessor, Verdict, constraint_set_size
from repro.smt.solver import SmtResult, SmtSolver, SolverConfig
from repro.smt.terms import Term
from repro.sparse.paths import DependencePath


#: The passes Algorithm 6 runs on per-function templates: every pass but
#: Gaussian elimination.  On a template it rewrites rows between
#: interface variables, such as ``ret = x + c``, into ``k = sum(c_i *
#: v_i)``, which query-level equality propagation cannot consume and the
#: bit-blaster turns into multiplier circuits (docs/solver.md, "Template
#: passes").  Query preprocessing still runs every pass.
TEMPLATE_PASSES = tuple(name for name in Preprocessor.ALL_PASSES
                        if name != "gaussian")


@dataclass
class GraphSolverConfig:
    optimized: bool = True                 # Algorithm 6 vs Algorithm 4
    use_quickpaths: bool = True
    local_passes: Optional[Sequence[str]] = None  # None = TEMPLATE_PASSES
    solver: SolverConfig = field(default_factory=SolverConfig)
    #: Extract a satisfying model per feasible query (a concrete witness
    #: for the bug report); costs model completion time.
    want_model: bool = False

    def __post_init__(self) -> None:
        Preprocessor.check_names(self.local_passes)

    @property
    def template_passes(self) -> tuple[str, ...]:
        """The passes run on templates, ``local_passes`` resolved."""
        return TEMPLATE_PASSES if self.local_passes is None \
            else tuple(self.local_passes)


@dataclass
class GraphSolverStats:
    queries: int = 0
    clones: int = 0
    quickpath_resolutions: int = 0
    template_nodes: int = 0        # cached preprocessed-template memory
    peak_condition_nodes: int = 0  # largest assembled constraint set


class IrBasedSmtSolver:
    """``ir_based_smt_solve(Π)`` over a fixed PDG."""

    def __init__(self, pdg: ProgramDependenceGraph,
                 transformer: Optional[ConditionTransformer] = None,
                 config: Optional[GraphSolverConfig] = None) -> None:
        self.pdg = pdg
        self.transformer = transformer if transformer is not None \
            else ConditionTransformer(pdg)
        self.config = config if config is not None else GraphSolverConfig()
        self.quickpaths = QuickPathTable(pdg)
        self.stats = GraphSolverStats()
        self.smt = SmtSolver(self.transformer.manager, self.config.solver)
        self._local_cache: dict[tuple, list[Term]] = {}
        #: The in-flight query's deadline; set by :meth:`solve` so the
        #: recursive cloning/template helpers can observe it without
        #: threading a parameter through every closure.
        self._deadline: Optional[Deadline] = None

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #

    def solve(self, paths: Sequence[DependencePath],
              the_slice: Slice,
              deadline: Optional[Deadline] = None) -> SmtResult:
        """Decide Π's feasibility, bounded by the per-query deadline.

        ``deadline`` defaults to a fresh one from the solver config's
        ``time_limit``.  An overrun raises while the condition is
        assembled, and yields a ``timeout`` UNKNOWN in ``smt.check``.
        """
        self.stats.queries += 1
        if deadline is None:
            deadline = Deadline.after(self.config.solver.time_limit)
        constraints = self.condition_of(paths, the_slice, deadline=deadline)
        result = self.smt.check(constraints,
                                want_model=self.config.want_model,
                                deadline=deadline)
        self.stats.peak_condition_nodes = max(
            self.stats.peak_condition_nodes, result.condition_nodes)
        return result

    def condition_of(self, paths: Sequence[DependencePath],
                     the_slice: Slice,
                     deadline: Optional[Deadline] = None) -> list[Term]:
        """The assembled path condition of Π, as a constraint set: the
        formula ``solve`` hands to ``smt.check``."""
        self._deadline = deadline
        needed = {fn: self.transformer.needed_key(the_slice, fn)
                  for fn in the_slice.needed}

        def needed_of(fn: str) -> frozenset[int]:
            return needed.get(fn, frozenset())

        def instance(fn: str, skip: frozenset[int],
                     suffix: str) -> list[Term]:
            return self._instance(fn, needed_of, skip, suffix)

        return assemble_condition(self.transformer, paths, the_slice,
                                  instance)

    def _instance(self, fn: str, needed_of, skip: frozenset[int],
                  suffix: str) -> list[Term]:
        """``fn``'s instance named by ``suffix``, call sites in ``skip``
        left out.  Algorithm 6 starts from the preprocessed template and
        binds a callee through its quick path where it can; Algorithm 4
        starts from the raw template.  Any other callee is cloned by
        Rules (7)/(8), as its own instance at ``@<site>`` + ``suffix``."""
        rename = self.transformer.manager.rename
        template = self.transformer.template(fn, needed_of(fn))
        local = self._local_template(fn, needed_of(fn)) \
            if self.config.optimized else template.constraints
        out = [rename(c, suffix) for c in local]
        for binding in template.calls:
            if binding.callsite in skip:
                continue
            if self.config.optimized:
                resolved = self._resolve_quickpath(fn, binding, suffix)
                if resolved is not None:
                    self.stats.quickpath_resolutions += 1
                    out.extend(resolved)
                    continue
            self.stats.clones += 1
            if self._deadline is not None:
                self._deadline.check("condition cloning")
            child_suffix = f"@{binding.callsite}{suffix}"
            out.extend(self._instance(binding.callee, needed_of,
                                      frozenset(), child_suffix))
            out.extend(self.transformer.binding_constraints(
                fn, suffix, binding, child_suffix))
        return out

    # ------------------------------------------------------------------ #
    # Algorithm 6: locally preprocessed templates + quick paths
    # ------------------------------------------------------------------ #

    def _local_template(self, fn: str,
                        needed: frozenset[int]) -> list[Term]:
        """Intra-procedurally preprocessed local condition (cached)."""
        key = (fn, needed)
        cached = self._local_cache.get(key)
        if cached is not None:
            return cached
        if self._deadline is not None:
            self._deadline.check("condition transformation")
        template = self.transformer.template(fn, needed)
        protected = self.transformer.interface_vars(fn, needed)
        pre = Preprocessor(self.transformer.manager,
                           enabled=self.config.template_passes,
                           protected=protected).run(template.constraints)
        constraints = [self.transformer.manager.false] \
            if pre.verdict is Verdict.UNSAT else pre.constraints
        self._local_cache[key] = constraints
        self.stats.template_nodes += constraint_set_size(constraints)
        return constraints

    def _resolve_quickpath(self, caller: str, binding: CallBinding,
                           suffix: str) -> Optional[list[Term]]:
        """Bind the receiver through the callee's quick-path summary, in
        the caller's instance ``suffix``; None means the callee is
        opaque and must be cloned."""
        if not self.config.use_quickpaths:
            return None
        mgr = self.transformer.manager
        summary = self.quickpaths.summary(binding.callee)
        receiver = self._receiver_term(caller, binding, suffix)
        if receiver is None:
            return None
        if summary.shape is Shape.CONST:
            return [mgr.eq(receiver,
                           mgr.bv_const(summary.offset,
                                        self.transformer.width))]
        if summary.shape is Shape.HAVOC:
            return []  # unconstrained result: no binding needed
        if summary.shape is Shape.AFFINE:
            if summary.param_index >= len(binding.args):
                return None
            actual = self.transformer.operand_term(
                caller, binding.args[summary.param_index], suffix)
            if not actual.sort.is_bv:
                return None
            value = actual
            if summary.scale != 1:
                value = mgr.bvmul(
                    mgr.bv_const(summary.scale, self.transformer.width),
                    value)
            if summary.offset != 0:
                value = mgr.bvadd(
                    value, mgr.bv_const(summary.offset,
                                        self.transformer.width))
            return [mgr.eq(receiver, value)]
        return None

    def _receiver_term(self, caller: str, binding: CallBinding,
                       suffix: str) -> Optional[Term]:
        callee_ret = self.pdg.return_vertex(binding.callee)
        if callee_ret is None:
            return None
        from repro.lang.ir import Var

        receiver = Var(binding.receiver, callee_ret.var.type)
        if receiver.type.value != "int":
            return None  # quick paths summarise integer returns only
        return self.transformer.var_term(caller, receiver, suffix)
