"""Constant and equality propagation as they were before occurrence lists.

Both passes used to rescan the whole constraint set after every step:
constant propagation collected bindings from every constraint,
substituted them into every constraint that mentions one (the bindings
themselves included) and renormalized the whole set, once per batch;
equality propagation restarted its search for an equation from the
front of the list after every elimination and substituted through
``_substitute_all``.  :func:`rescan_passes` swaps these loops back in,
so ``tests/test_propagation_oracle.py`` can require the same
eliminations in the same order from the indexed passes.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional
from unittest import mock

from repro.smt.preprocess import (CompletionStep, Preprocessor,
                                  _eval_with_defaults)
from repro.smt.terms import Op, Term


def oracle_propagate_constants(self: Preprocessor, work: list[Term],
                               completions: list[CompletionStep], stats,
                               run) -> Optional[list[Term]]:
    mgr = self.manager
    changed = True
    while changed:
        changed = False
        bindings: dict[Term, Term] = {}
        for c in work:
            if c.op is Op.EQ:
                lhs, rhs = c.args
                if lhs.is_var and rhs.is_const and \
                        not self._is_protected(lhs):
                    bindings.setdefault(lhs, rhs)
                elif rhs.is_var and lhs.is_const and \
                        not self._is_protected(rhs):
                    bindings.setdefault(rhs, lhs)
            elif c.is_var and c.sort.is_bool and not self._is_protected(c):
                bindings.setdefault(c, mgr.true)
            elif c.op is Op.NOT and c.args[0].is_var and \
                    not self._is_protected(c.args[0]):
                bindings.setdefault(c.args[0], mgr.false)
        if not bindings:
            break
        stats.constants_propagated += len(bindings)
        snapshot = dict(bindings)

        def assign(model: dict[Term, int], memo: dict[int, int],
                   fixed: dict[Term, Term] = snapshot) -> None:
            for var, const in fixed.items():
                model[var] = const.value

        completions.append(CompletionStep("constant bindings", assign))
        work = self._substitute_all(work, bindings, run)
        normalized = self._normalize(work, run)
        if normalized is None:
            return None
        if len(normalized) != len(work) or any(
                a.tid != b.tid for a, b in zip(normalized, work)):
            changed = True
        work = normalized
    return work


def oracle_propagate_equalities(self: Preprocessor, work: list[Term],
                                completions: list[CompletionStep], stats,
                                run) -> list[Term]:
    progress = True
    while progress:
        run.check_deadline()
        progress = False
        for i, c in enumerate(work):
            if c.op is not Op.EQ:
                continue
            lhs, rhs = c.args
            var, definition = None, None
            if lhs.is_var and not self._is_protected(lhs) \
                    and lhs not in run.free_vars(rhs):
                var, definition = lhs, rhs
            elif rhs.is_var and not self._is_protected(rhs) \
                    and rhs not in run.free_vars(lhs):
                var, definition = rhs, lhs
            if var is None:
                continue
            stats.equalities_propagated += 1

            def assign(model: dict[Term, int], memo: dict[int, int],
                       v: Term = var, d: Term = definition) -> None:
                model[v] = _eval_with_defaults(d, model, memo)

            completions.append(
                CompletionStep(f"equality {var.name}", assign))
            work = self._substitute_all(work[:i] + work[i + 1:],
                                        {var: definition}, run)
            progress = True
            break
    return work


@contextlib.contextmanager
def rescan_passes() -> Iterator[None]:
    """Run the block with the rescanning passes in place of the indexed
    ones."""
    with mock.patch.object(Preprocessor, "_propagate_constants",
                           oracle_propagate_constants), \
            mock.patch.object(Preprocessor, "_propagate_equalities",
                              oracle_propagate_equalities):
        yield
