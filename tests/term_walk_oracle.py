"""Test oracle: the term walks the one-walk term operations replaced.

``Term.iter_dag`` builds a list with a ``None`` marker on its stack;
``TermManager.rename`` collects the free variables and rebuilds over
that one list; ``constraint_set_size`` walks the whole set with one
stack; ``Preprocessor._substitute_all`` tests a lone variable key by
membership; ``simplify`` walks with the same ``None`` marker and
orders two commutative arguments by one comparison.  This module keeps
what they replaced: the generator walk that pushes a ``(term,
expanded)`` pair per node (for ``iter_dag`` and ``simplify`` alike),
the rename that walks twice (``free_vars``, then ``substitute``), the
size that starts a fresh walk per constraint, the subset test for
every mapping and the ``sorted`` call that ordered commutative
arguments.
``tests/test_term_walk_oracle.py`` requires the two to agree term id
for term id.

:func:`parent_walks` swaps all of them in, so a ``Preprocessor.run``
inside it is the old pipeline.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional, Sequence
from unittest import mock

from repro.smt import preprocess, rewriter
from repro.smt.preprocess import Preprocessor
from repro.smt.terms import Term, TermManager


def oracle_iter_dag(term: Term) -> Iterator[Term]:
    """Yield every distinct sub-term once, children before parents."""
    seen: set[int] = set()
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if node.tid in seen:
            continue
        if expanded:
            seen.add(node.tid)
            yield node
        else:
            stack.append((node, True))
            for arg in node.args:
                if arg.tid not in seen:
                    stack.append((arg, False))


def oracle_simplify(manager: TermManager, term: Term,
                    memo: Optional[dict[int, Term]] = None) -> Term:
    """``rewriter.simplify`` with a ``(term, expanded)`` pair per push."""
    cache: dict[int, Term] = {} if memo is None else memo
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if node.tid in cache:
            continue
        if expanded:
            new_args = tuple(cache[a.tid] for a in node.args)
            cache[node.tid] = rewriter._simplify_node(manager, node,
                                                      new_args)
        else:
            stack.append((node, True))
            for arg in node.args:
                if arg.tid not in cache:
                    stack.append((arg, False))
    return cache[term.tid]


def oracle_sort_commutative(args: tuple[Term, ...]) -> tuple[Term, ...]:
    return tuple(sorted(args, key=lambda t: (not t.is_const, t.tid)))


def oracle_free_vars(term: Term) -> set[Term]:
    return {t for t in oracle_iter_dag(term) if t.is_var}


def oracle_substitute(manager: TermManager, term: Term,
                      mapping: dict[Term, Term]) -> Term:
    cache: dict[int, Term] = {}
    for node in oracle_iter_dag(term):
        replacement = mapping.get(node)
        if replacement is not None:
            cache[node.tid] = replacement
            continue
        if not node.args:
            cache[node.tid] = node
            continue
        new_args = tuple(cache[a.tid] for a in node.args)
        cache[node.tid] = manager.rebuild(node, new_args)
    return cache[term.tid]


def oracle_rename(manager: TermManager, term: Term, suffix: str) -> Term:
    mapping = {v: manager.var(v.name + suffix, v.sort)
               for v in oracle_free_vars(term)}
    return oracle_substitute(manager, term, mapping)


def oracle_constraint_set_size(constraints: Sequence[Term]) -> int:
    seen: set[int] = set()
    total = 0
    for c in constraints:
        for node in oracle_iter_dag(c):
            if node.tid not in seen:
                seen.add(node.tid)
                total += 1
    return total


def oracle_substitute_all(self: Preprocessor, work: list[Term],
                          mapping: dict[Term, Term], run) -> list[Term]:
    key_vars = [run.free_vars(key) for key in mapping]
    out: list[Term] = []
    for c in work:
        support = run.free_vars(c)
        if any(kv <= support for kv in key_vars):
            c = run.simplify(oracle_substitute(self.manager, c, mapping))
        out.append(c)
    return out


@contextlib.contextmanager
def parent_walks() -> Iterator[None]:
    """Run the block with the old walks in place of the one-walk ones.

    ``iter_dag`` stays a list to its callers, as it is now; the list is
    drained from the old generator.
    """
    with mock.patch.object(Term, "iter_dag",
                           lambda self: list(oracle_iter_dag(self))), \
            mock.patch.object(Term, "free_vars", oracle_free_vars), \
            mock.patch.object(TermManager, "substitute", oracle_substitute), \
            mock.patch.object(TermManager, "rename", oracle_rename), \
            mock.patch.object(preprocess, "constraint_set_size",
                              oracle_constraint_set_size), \
            mock.patch.object(Preprocessor, "_substitute_all",
                              oracle_substitute_all), \
            mock.patch.object(preprocess, "simplify", oracle_simplify), \
            mock.patch.object(rewriter, "_sort_commutative",
                              oracle_sort_commutative):
        yield
