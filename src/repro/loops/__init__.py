"""Solver-driven loop summaries (path focusing).

Instead of expanding every ``while`` into ``loop_unroll`` nested
``if``s before the PDG exists, the summarizer executes the loop body
*symbolically* over hash-consed SMT terms, uses the in-house
bit-blasting stack to enumerate only the **feasible** iteration
sequences (path focusing in the style of Henry, Monniaux & Moy,
*Succinct Representations for Abstract Interpretation*), and emits one
compact summary region per loop: the merged exit values plus the
division observables each checker needs, under their exact guards.

The summary is *semantically equivalent* to ``loop_unroll``-bounded
unrolling — infeasible sequences contribute nothing, truncated
sequences exit with their current state exactly like a truncated
unroll — but its size is driven by the number of feasible paths, not
by the unroll factor.  Loops the summarizer cannot prove itself exact
on (bodies with calls, returns, nested loops or null literals; path
budgets exceeded) fall back to classic unrolling per loop.

See docs/loops.md for the strategy/budget/fallback contract.
"""

from repro.loops.summarize import (LoopShape, LoopStats, SummaryCache,
                                   SummaryRecipe, loop_shape, summarize_loop)
from repro.loops.emit import emit_summary

#: Valid ``--loop-strategy`` values, in precedence order.
LOOP_STRATEGIES = ("summaries", "unroll")

__all__ = [
    "LOOP_STRATEGIES", "LoopShape", "LoopStats", "SummaryCache",
    "SummaryRecipe", "emit_summary", "loop_shape", "summarize_loop",
]
