"""The conventional SMT solution (Algorithm 3 of the paper).

``SmtSolver.check`` is the paper's ``smt_solve``.  It first runs the
equisatisfiable preprocessing pipeline; if that decides the formula (the
paper reports this settles 21% of instances) it returns immediately, otherwise the residual constraints are bit-blasted
and handed to the CDCL SAT back end — exactly the structure of Algorithm 3
("preprocess; if true return sat; if false return unsat; specific_solve").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.limits import Deadline, QueryDeadlineExceeded
from repro.smt.bitblast import BitBlaster
from repro.smt.preprocess import (Preprocessor, PreprocessStats, Verdict,
                                  constraint_set_size)
from repro.smt.sat import SatStatus
from repro.smt.terms import Term, TermManager


class SmtStatus(enum.Enum):
    """Outcome of an SMT query."""
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"   # resource limit hit (the paper's 10 s budget)


class DecidedBy(enum.Enum):
    """Which stage settled a verdict: Figure 11's preprocess/solver split,
    plus how a run replays or gives up on a query (docs/analysis.md)."""
    STORE = "store"            # replayed from the artifact store
    PREPROCESS = "preprocess"  # Algorithm 3's preprocessing decided it
    SAT = "sat"                # the SAT search (conflict-limit UNKNOWN too)
    TIMEOUT = "timeout"        # the query's deadline or time limit ran out
    BREAKER = "breaker"        # an open circuit breaker short-circuited it
    ERROR = "error"            # the query raised, or its batch was lost


@dataclass
class SmtResult:
    status: SmtStatus
    model: dict[Term, int] = field(default_factory=dict)
    decided_by: DecidedBy = DecidedBy.SAT
    preprocess_stats: Optional[PreprocessStats] = None
    sat_conflicts: int = 0
    #: Distinct term-DAG nodes in the queried constraint set (the size of
    #: the path condition this query decided; feeds Figure 11's scatter).
    condition_nodes: int = 0
    #: Clauses in the SAT database after this query's search (0 when
    #: preprocessing decided the query): the bit-blasted problem clauses
    #: plus the clauses the search learned.  Every query bit-blasts into
    #: a fresh database, so no other query's clauses count.
    sat_clauses: int = 0

    @property
    def decided_in_preprocess(self) -> bool:
        return self.decided_by is DecidedBy.PREPROCESS

    @property
    def is_sat(self) -> bool:
        return self.status is SmtStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is SmtStatus.UNSAT


@dataclass
class SolverConfig:
    """Knobs shared by the conventional and graph-based solvers."""

    enabled_passes: Optional[Sequence[str]] = None  # None = all passes
    conflict_limit: Optional[int] = 200_000
    #: The paper's per-query budget.  This bounds the *whole* query —
    #: slicing, condition transformation, preprocessing and the SAT
    #: search share one :class:`~repro.limits.Deadline` derived from it
    #: (or from the run's ``FaultPolicy.query_timeout``, when set).
    time_limit: Optional[float] = 10.0

    def __post_init__(self) -> None:
        Preprocessor.check_names(self.enabled_passes)


class SmtSolver:
    """A standalone, general-purpose solver over a :class:`TermManager`.

    This plays the role of "the default solver of Z3" in the paper's
    Figure 11 comparison: it sees only the final formula, with all program
    structure lost.  Each :meth:`check` bit-blasts into a fresh SAT
    solver, so no query carries state into the next (docs/solver.md,
    "Why there are no solver sessions").
    """

    def __init__(self, manager: TermManager,
                 config: Optional[SolverConfig] = None) -> None:
        self.manager = manager
        self.config = config if config is not None else SolverConfig()
        self.queries = 0

    def check(self, constraints: Iterable[Term],
              want_model: bool = False,
              deadline: Optional[Deadline] = None) -> SmtResult:
        """Decide satisfiability of the conjunction of ``constraints``.

        ``deadline`` is the query's shared wall clock (already covering
        its slicing/transform stages); when absent, a fresh deadline is
        derived from ``config.time_limit``.  A tripped deadline anywhere
        in the pipeline yields a ``timeout`` UNKNOWN, never an exception.
        """
        self.queries += 1
        constraints = list(constraints)
        condition_nodes = constraint_set_size(constraints)
        if deadline is None:
            deadline = Deadline.after(self.config.time_limit)

        def result(status: SmtStatus, pre_stats=None, model=None,
                   decided_by: DecidedBy = DecidedBy.SAT, conflicts: int = 0,
                   sat_clauses: int = 0) -> SmtResult:
            return SmtResult(status, model or {}, decided_by, pre_stats,
                             conflicts,
                             condition_nodes=condition_nodes,
                             sat_clauses=sat_clauses)

        try:
            deadline.check()
            pre = Preprocessor(self.manager,
                               enabled=self.config.enabled_passes
                               ).run(constraints, deadline=deadline)
            if pre.verdict is Verdict.UNSAT:
                return result(SmtStatus.UNSAT, pre.stats,
                              decided_by=DecidedBy.PREPROCESS)
            if pre.verdict is Verdict.SAT:
                return result(SmtStatus.SAT, pre.stats,
                              pre.complete_model({}) if want_model
                              else None, DecidedBy.PREPROCESS)
            blaster = BitBlaster()
            for constraint in pre.constraints:
                deadline.check("bit-blasting")
                blaster.assert_true(constraint)
            sat_result = blaster.solve(
                conflict_limit=self.config.conflict_limit,
                deadline=deadline)
        except QueryDeadlineExceeded:
            return result(SmtStatus.UNKNOWN, decided_by=DecidedBy.TIMEOUT)

        conflicts = sat_result.conflicts
        sat_clauses = blaster.solver.num_clauses
        if sat_result.status is not SatStatus.SAT:
            # An UNKNOWN search stopped on its conflict limit or a clock.
            limit = self.config.conflict_limit
            clock = sat_result.status is SatStatus.UNKNOWN \
                and (limit is None or conflicts < limit)
            return result(SmtStatus(sat_result.status.value), pre.stats,
                          None, DecidedBy.TIMEOUT if clock else DecidedBy.SAT,
                          conflicts=conflicts, sat_clauses=sat_clauses)
        answer = result(SmtStatus.SAT, pre.stats, conflicts=conflicts,
                        sat_clauses=sat_clauses)
        if want_model:
            seen_vars: set[Term] = set()
            for constraint in pre.constraints:
                seen_vars.update(constraint.free_vars())
            answer.model = pre.complete_model(
                {var: blaster.model_value(var, sat_result.model)
                 for var in seen_vars})
        return answer

