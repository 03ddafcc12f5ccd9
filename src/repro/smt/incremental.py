"""Incremental assumption-based solving sessions.

Fusion's candidates in one function share almost all of their sliced
condition (Algorithm 6 computes per-function local conditions once), yet
the one-shot :class:`~repro.smt.solver.SmtSolver` re-bit-blasts and
re-solves that shared prefix from scratch for every query.  A
:class:`SolverSession` keeps one persistent :class:`SatSolver` +
:class:`BitBlaster` pair alive across the queries of a group, so:

* Tseitin encodings are cached per interned term id — a term already
  bit-blasted by an earlier query costs nothing (``encoder_hits``);
* each query is decided under **assumption literals** rather than
  asserted clauses, so an UNSAT answer never poisons the database;
* learned clauses survive between queries.  This is sound because every
  learned clause is a resolution consequence of the clause database
  alone: assumptions enter the search as pseudo-decisions at levels
  ``1..k`` and first-UIP analysis only ever resolves on *reason
  clauses*, never on decisions, so no assumption can leak into a
  learned clause as a premise.  Tseitin definitions are globally valid
  equivalences, hence also safe to persist.

A session is a :class:`~repro.smt.solver.SmtSolver` that overrides only
the search step of Algorithm 3: preprocessing stays **per query** and
runs on each query's own constraint set exactly as in the fresh solver,
so ``decided_in_preprocess`` and all verdicts match the fresh-solver
behaviour bit for bit.  Only the residual constraints reach the shared
CNF.  Sessions are opened by their owning solver, one per query group,
when ``SolverConfig.incremental`` is set.

Models under assumptions may differ from fresh-solver models (both are
valid; the search explores a different order), so engines keep sessions
opt-in via their config and the CLI enables them per run.
"""

from __future__ import annotations

from typing import Optional

from repro.limits import Deadline
from repro.smt.bitblast import BitBlaster
from repro.smt.sat import SatResult, SatSolver
from repro.smt.solver import SessionStats, SmtSolver, SolverConfig
from repro.smt.terms import Term, TermManager

__all__ = ["SessionStats", "SolverSession"]


class SolverSession(SmtSolver):
    """A persistent CNF context deciding queries under assumptions.

    :meth:`check` is :meth:`SmtSolver.check` unchanged; only the search
    step differs.  The session owns a :class:`SatSolver` and a
    :class:`BitBlaster` over the engine's shared :class:`TermManager`;
    hash-consed term ids key the encoder cache, so structural sharing
    between queries turns directly into skipped bit-blasting.
    ``stats`` is the owning solver's ``session_stats``.
    """

    def __init__(self, manager: TermManager,
                 config: Optional[SolverConfig] = None,
                 stats: Optional[SessionStats] = None) -> None:
        super().__init__(manager, config)
        if stats is not None:
            self.session_stats = stats
        self.solver = SatSolver()
        self.blaster = BitBlaster(self.solver)
        self._solves = 0  # SAT searches run in this session
        self.session_stats.sessions += 1

    def _search(self, residual: list[Term], deadline: Deadline
                ) -> tuple[SatResult, BitBlaster, int]:
        """Encode each residual constraint into the kept database and
        solve under those literals as assumptions."""
        stats = self.session_stats
        # Only solves after the first can reuse anything; count what the
        # database carries into them (original + learned clauses).
        if self._solves > 0:
            stats.reused_clauses += self.solver.num_clauses
            stats.learned_kept += self.solver.learned_clauses
        hits_before = self.blaster.encoder_hits
        assumptions: list[int] = []
        for constraint in residual:
            deadline.check("bit-blasting")
            assumptions.append(self.blaster.literal(constraint))
        stats.encoder_hits += self.blaster.encoder_hits - hits_before
        stats.assumption_solves += 1
        self._solves += 1
        conflicts_before = self.solver.conflicts
        sat_result = self.solver.solve(
            conflict_limit=self.config.conflict_limit,
            time_limit=self.config.time_limit,
            deadline=deadline, assumptions=assumptions)
        return (sat_result, self.blaster,
                sat_result.conflicts - conflicts_before)
