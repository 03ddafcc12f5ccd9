"""Test oracle: model completion with one fresh evaluation per step.

``PreprocessResult.complete_model`` replays the completion steps with
one evaluation memo, and ``_eval_with_defaults`` walks a definition
once, defaulting unassigned variables as it goes and stopping at nodes
already evaluated.  Before, every step collected the definition's free
variables (``free_vars``), defaulted them to zero and then evaluated the
definition with ``evaluate``, each walk with its own cache.
:func:`oracle_complete_model` replays a result that way;
:func:`checked_completions` makes every ``complete_model`` call inside it
also run the oracle and require the same model.
"""

from __future__ import annotations

import contextlib
from typing import Iterator
from unittest import mock

from repro.smt import preprocess, semantics
from repro.smt.preprocess import PreprocessResult
from repro.smt.terms import Term


def oracle_eval_with_defaults(term: Term, model: dict[Term, int],
                              memo: dict[int, int]) -> int:
    """The per-step evaluation: ``memo`` is ignored."""
    for var in term.free_vars():
        model.setdefault(var, 0)
    return semantics.evaluate(term, model)


def oracle_complete_model(result: PreprocessResult,
                          model: dict[Term, int]) -> dict[Term, int]:
    extended = dict(model)
    with mock.patch.object(preprocess, "_eval_with_defaults",
                           oracle_eval_with_defaults):
        for step in reversed(result.completions):
            step.assign(extended, {})
    return extended


@contextlib.contextmanager
def checked_completions() -> Iterator[list[int]]:
    """Check every ``complete_model`` call in the block against the
    oracle.  Yields a one-item list counting the calls checked."""
    checked = [0]
    memoized = PreprocessResult.complete_model

    def complete_model(self: PreprocessResult,
                       model: dict[Term, int]) -> dict[Term, int]:
        got = memoized(self, model)
        assert got == oracle_complete_model(self, model), \
            [step.description for step in self.completions]
        checked[0] += 1
        return got

    with mock.patch.object(PreprocessResult, "complete_model",
                           complete_model):
        yield checked
