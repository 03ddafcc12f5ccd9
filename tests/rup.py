"""A RUP proof checker for the CDCL solver's UNSAT answers.

A clause is *RUP* (reverse unit propagation) with respect to a clause
set when asserting the negation of each of its literals and running
unit propagation reaches a conflict.  Every clause that first-UIP
learning derives is RUP with respect to the problem clauses and the
clauses learned before it, and a solve that ends in UNSAT has refuted
its database once the empty clause is RUP as well.  This is the DRUP
check of DRAT-trim (Wetzler, Heule and Hunt, SAT 2014), without
deletions: ``repro.smt.sat.SatSolver`` never deletes a learned clause.

The checker keeps its own root-level assignment and propagates over two
watched literals per clause, so checking a proof costs about what the
search's propagation cost.  A literal false at the root stays false, so
a clause is stored without its root-false literals, and a clause the
root satisfies is not stored at all.  It shares no code with the solver.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class ProofError(AssertionError):
    """A lemma, or the final empty clause, does not follow by unit
    propagation.  ``index`` is the lemma's position in the proof, or
    ``None`` for the empty clause."""

    def __init__(self, index, lemma) -> None:
        where = "the empty clause" if index is None else f"lemma {index}"
        super().__init__(f"{where} is not RUP: {list(lemma)}")
        self.index = index
        self.lemma = lemma


class RupChecker:
    """A clause database under unit propagation at the root."""

    def __init__(self, clauses: Iterable[Sequence[int]] = ()) -> None:
        self._true: set[int] = set()
        self._trail: list[int] = []
        self._head = 0
        self._clauses: list[list[int]] = []
        self._watches: dict[int, list[int]] = {}
        #: The root assignment conflicts: every clause now follows.
        self.refuted = False
        for clause in clauses:
            self.add(clause)

    def add(self, clause: Sequence[int]) -> None:
        """Add ``clause`` to the database and propagate at the root."""
        if self.refuted:
            return
        true = self._true
        lits: list[int] = []
        for lit in clause:
            if lit in true:
                return
            if -lit not in true and lit not in lits:
                lits.append(lit)
        if not lits:
            self.refuted = True
        elif len(lits) == 1:
            self._assign(lits[0])
            self.refuted = self._propagate()
        else:
            index = len(self._clauses)
            self._clauses.append(lits)
            for lit in lits[:2]:
                self._watches.setdefault(lit, []).append(index)

    def implies(self, lemma: Sequence[int]) -> bool:
        """Whether ``lemma`` is RUP with respect to the database.  The
        root assignment is left as it was."""
        if self.refuted:
            return True
        mark = len(self._trail)
        conflict = False
        for lit in lemma:
            if lit in self._true:
                conflict = True
                break
            if -lit not in self._true:
                self._assign(-lit)
        if not conflict:
            conflict = self._propagate()
        for lit in self._trail[mark:]:
            self._true.discard(lit)
        del self._trail[mark:]
        self._head = mark
        return conflict

    def _assign(self, lit: int) -> None:
        self._true.add(lit)
        self._trail.append(lit)

    def _propagate(self) -> bool:
        """Propagate the trail to a fixpoint; True on a conflict."""
        true, trail, clauses = self._true, self._trail, self._clauses
        watches = self._watches
        while self._head < len(trail):
            false_lit = -trail[self._head]
            self._head += 1
            watching = watches.get(false_lit)
            if not watching:
                continue
            kept: list[int] = []
            for n, index in enumerate(watching):
                clause = clauses[index]
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], false_lit
                other = clause[0]
                if other in true:
                    kept.append(index)
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if -lit not in true:
                        clause[1], clause[k] = lit, false_lit
                        watches.setdefault(lit, []).append(index)
                        break
                else:
                    kept.append(index)
                    if -other in true:
                        watches[false_lit] = kept + watching[n + 1:]
                        return True
                    self._assign(other)
            watches[false_lit] = kept
        return False


def check_refutation(clauses: Iterable[Sequence[int]],
                     lemmas: Iterable[Sequence[int]]) -> None:
    """Raise :class:`ProofError` unless every lemma in order, and then
    the empty clause, is RUP with respect to ``clauses`` and the lemmas
    before it."""
    checker = RupChecker(clauses)
    for index, lemma in enumerate(lemmas):
        if not checker.implies(lemma):
            raise ProofError(index, lemma)
        checker.add(lemma)
    if not checker.refuted:
        raise ProofError(None, [])
