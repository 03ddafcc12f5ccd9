"""Kept only because ``perf/tracing.py`` patches
``SolverSession.check``; delete with that patch point (ROADMAP item 1's
perf change).  There are no solver sessions: every query is decided by a
fresh :class:`~repro.smt.solver.SmtSolver` search (docs/solver.md)."""

from repro.smt.solver import SmtSolver

SolverSession = SmtSolver
