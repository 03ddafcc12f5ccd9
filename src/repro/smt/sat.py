"""A CDCL SAT solver.

The paper's specific solver is "Z3's bit-blaster ... Z3's SAT solver"
(Section 4).  Since the reproduction environment has no Z3, this module
provides the SAT back end: conflict-driven clause learning with two-watched
literals, VSIDS decision heuristic, phase saving, first-UIP conflict
analysis with non-chronological backjumping, and Luby restarts.

Literals use the DIMACS convention: variables are positive integers and a
negative integer denotes negation.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.limits import Deadline


class SatStatus(enum.Enum):
    """Outcome of a SAT search (UNKNOWN = resource budget exhausted)."""
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SatResult:
    status: SatStatus
    model: dict[int, bool] = field(default_factory=dict)
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0

    @property
    def is_sat(self) -> bool:
        return self.status is SatStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is SatStatus.UNSAT


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence."""
    while True:
        k = i.bit_length()
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class SatSolver:
    """Incremental clause database with a CDCL search loop."""

    def __init__(self) -> None:
        self._num_vars = 0
        self._clauses: list[list[int]] = []
        # watches[lit] lists clause indices in which `lit` is watched.
        self._watches: dict[int, list[int]] = {}
        self._assign: list[int] = [0]  # 1-indexed; 0 unassigned, +1/-1.
        self._level: list[int] = [0]
        self._reason: list[Optional[int]] = [None]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [False]
        self._var_inc = 1.0
        self._var_decay = 0.95
        # Indexed max-heap over variable activities (the VSIDS order).
        self._heap: list[int] = []
        self._heap_pos: list[int] = [-1]
        self._unsat = False
        self._pending_units: list[int] = []
        # Clauses appended after a solve may watch literals that are
        # already false on the level-0 trail; the next solve must rescan.
        self._needs_rescan = False
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.minimized_literals = 0
        self.learned_clauses = 0

    # ------------------------------------------------------------------ #
    # Clause database
    # ------------------------------------------------------------------ #

    def new_var(self) -> int:
        self._num_vars += 1
        self._assign.append(0)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        self._heap_pos.append(-1)
        self._heap_insert(self._num_vars)
        return self._num_vars

    # ------------------------------------------------------------------ #
    # VSIDS order heap (indexed max-heap on activity)
    # ------------------------------------------------------------------ #

    def _heap_sift_up(self, i: int) -> None:
        # Hot path (every activity bump): local bindings + inlined
        # activity compares instead of _heap_less/_heap_swap calls.
        heap = self._heap
        pos = self._heap_pos
        act = self._activity
        var = heap[i]
        key = act[var]
        while i > 0:
            parent = (i - 1) // 2
            pvar = heap[parent]
            if act[pvar] >= key:
                break
            heap[i] = pvar
            pos[pvar] = i
            i = parent
        heap[i] = var
        pos[var] = i

    def _heap_sift_down(self, i: int) -> None:
        heap = self._heap
        pos = self._heap_pos
        act = self._activity
        size = len(heap)
        var = heap[i]
        key = act[var]
        while True:
            left = 2 * i + 1
            if left >= size:
                break
            best = left
            right = left + 1
            if right < size and act[heap[left]] < act[heap[right]]:
                best = right
            bvar = heap[best]
            if key >= act[bvar]:
                break
            heap[i] = bvar
            pos[bvar] = i
            i = best
        heap[i] = var
        pos[var] = i

    def _heap_insert(self, var: int) -> None:
        if self._heap_pos[var] >= 0:
            return
        self._heap.append(var)
        self._heap_pos[var] = len(self._heap) - 1
        self._heap_sift_up(len(self._heap) - 1)

    def _heap_pop_max(self) -> Optional[int]:
        while self._heap:
            top = self._heap[0]
            last = self._heap.pop()
            self._heap_pos[top] = -1
            if self._heap:
                self._heap[0] = last
                self._heap_pos[last] = 0
                self._heap_sift_down(0)
            elif last != top:
                # Heap had one element which we already returned.
                pass
            if self._assign[top] == 0:
                return top
        return None

    def _ensure_var(self, var: int) -> None:
        while self._num_vars < var:
            self.new_var()

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause; duplicates removed, tautologies dropped."""
        lits: list[int] = []
        seen: set[int] = set()
        for lit in literals:
            if lit == 0:
                raise ValueError("literal 0 is not allowed")
            if lit in seen:
                continue
            if -lit in seen:
                return  # tautology
            seen.add(lit)
            lits.append(lit)
            self._ensure_var(abs(lit))
        if not lits:
            self._unsat = True
            return
        if len(lits) == 1:
            self._pending_units.append(lits[0])
            return
        idx = len(self._clauses)
        self._clauses.append(lits)
        self._watch(lits[0], idx)
        self._watch(lits[1], idx)
        if self._trail:
            # A literal watched here may already be false on the
            # retained level-0 trail; force a full rescan next solve.
            self._needs_rescan = True

    def _watch(self, lit: int, clause_idx: int) -> None:
        self._watches.setdefault(lit, []).append(clause_idx)

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    # ------------------------------------------------------------------ #
    # Assignment helpers
    # ------------------------------------------------------------------ #

    def _value(self, lit: int) -> int:
        """+1 if lit is true, -1 if false, 0 if unassigned."""
        v = self._assign[abs(lit)]
        return v if lit > 0 else -v

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        var = abs(lit)
        current = self._value(lit)
        if current == 1:
            return True
        if current == -1:
            return False
        self._assign[var] = 1 if lit > 0 else -1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = lit > 0
        self._trail.append(lit)
        return True

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    # ------------------------------------------------------------------ #
    # Unit propagation (two-watched literals)
    # ------------------------------------------------------------------ #

    def _propagate(self) -> Optional[int]:
        """Propagate until fixpoint; return a conflicting clause index or None."""
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            false_lit = -lit
            watch_list = self._watches.get(false_lit)
            if not watch_list:
                continue
            kept: list[int] = []
            i = 0
            n = len(watch_list)
            while i < n:
                cidx = watch_list[i]
                i += 1
                clause = self._clauses[cidx]
                # Normalise: watched literals are clause[0] and clause[1].
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == 1:
                    kept.append(cidx)
                    continue
                # Find a replacement watch.
                moved = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watch(clause[1], cidx)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(cidx)
                if self._value(first) == -1:
                    # Conflict: keep remaining watches intact.
                    kept.extend(watch_list[i:n])
                    self._watches[false_lit] = kept
                    return cidx
                self.propagations += 1
                self._enqueue(first, cidx)
            self._watches[false_lit] = kept
        return None

    # ------------------------------------------------------------------ #
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------ #

    def _bump(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
        if self._heap_pos[var] >= 0:
            self._heap_sift_up(self._heap_pos[var])

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """Return (learned clause, backjump level)."""
        learned: list[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self._num_vars + 1)
        counter = 0
        pivot = 0  # literal whose reason clause is being resolved
        clause = self._clauses[conflict]
        index = len(self._trail)
        level = self._decision_level()

        while True:
            for q in clause:
                if q == pivot:
                    continue
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self._level[var] >= level:
                        counter += 1
                    else:
                        learned.append(q)
            # Pick the next trail literal to resolve on.
            while True:
                index -= 1
                pivot = self._trail[index]
                if seen[abs(pivot)]:
                    break
            seen[abs(pivot)] = False
            counter -= 1
            if counter == 0:
                break
            clause = self._clauses[self._reason[abs(pivot)]]  # type: ignore[index]
        learned[0] = -pivot
        learned = self._minimize(learned)

        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the learned clause.
        max_i = 1
        for i in range(2, len(learned)):
            if self._level[abs(learned[i])] > self._level[abs(learned[max_i])]:
                max_i = i
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, self._level[abs(learned[1])]

    def _minimize(self, learned: list[int]) -> list[int]:
        """Self-subsumption minimization of the learned clause.

        A non-asserting literal is redundant when its reason clause's
        other literals are all either in the learned clause already or
        assigned at level 0 — the cheap (non-recursive) variant of
        MiniSat's clause minimization.  Keeps learned clauses short,
        which matters for the watched-literal traffic on the bit-blasted
        circuits this solver spends its time in.
        """
        keep = {abs(lit) for lit in learned}
        minimized = [learned[0]]
        for lit in learned[1:]:
            reason_idx = self._reason[abs(lit)]
            if reason_idx is None:
                minimized.append(lit)
                continue
            reason = self._clauses[reason_idx]
            if all(abs(other) in keep or self._level[abs(other)] == 0
                   for other in reason if abs(other) != abs(lit)):
                self.minimized_literals += 1
                continue
            minimized.append(lit)
        return minimized

    def _backjump(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        limit = self._trail_lim[level]
        for lit in reversed(self._trail[limit:]):
            var = abs(lit)
            self._assign[var] = 0
            self._reason[var] = None
            self._heap_insert(var)
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------ #
    # Decisions
    # ------------------------------------------------------------------ #

    def _pick_branch_var(self) -> int:
        var = self._heap_pop_max()
        return var if var is not None else 0

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def solve(self, conflict_limit: Optional[int] = None,
              time_limit: Optional[float] = None,
              deadline: Optional[Deadline] = None,
              assumptions: Optional[Sequence[int]] = None) -> SatResult:
        """Run CDCL search, optionally under ``assumptions``.

        ``conflict_limit``/``time_limit`` bound the search and yield
        ``UNKNOWN`` on exhaustion — the reproduction's analogue of the
        paper's 10-second per-query solver budget.  ``deadline`` is an
        absolute cap (the query's shared clock across slicing/preprocess/
        search); the tighter of the two bounds applies.

        ``assumptions`` are literals asserted as pseudo-decisions at
        levels 1..k (MiniSat-style).  An UNSAT answer under assumptions
        is *not* permanent: the solver backtracks to level 0 on every
        exit, keeps all learned clauses (they are resolution consequences
        of the clause database alone, never of the assumptions), and can
        be re-solved under a different assumption set.  Only a conflict
        at level 0 marks the database itself unsatisfiable.
        """
        if self._unsat:
            return SatResult(SatStatus.UNSAT)
        assumptions = list(assumptions) if assumptions else []
        for lit in assumptions:
            if lit == 0:
                raise ValueError("literal 0 is not allowed")
            self._ensure_var(abs(lit))

        stop_at = time.monotonic() + time_limit \
            if time_limit is not None else None
        if deadline is not None and deadline.expires_at is not None:
            stop_at = deadline.expires_at if stop_at is None \
                else min(stop_at, deadline.expires_at)

        # Install root-level units.
        for lit in self._pending_units:
            if not self._enqueue(lit, None):
                self._unsat = True
                return SatResult(SatStatus.UNSAT)
        self._pending_units.clear()
        if self._needs_rescan:
            # Clauses added since the last solve may watch literals that
            # were already false on the retained level-0 trail and would
            # otherwise never be visited; replay the trail through the
            # watch lists so they propagate (or conflict) now.
            self._needs_rescan = False
            self._qhead = 0

        restart_count = 0
        restart_budget = luby(restart_count + 1) * 64

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                if self._decision_level() == 0:
                    self._unsat = True
                    return self._finish(SatStatus.UNSAT)
                learned, back_level = self._analyze(conflict)
                self._backjump(back_level)
                if len(learned) == 1:
                    self._enqueue(learned[0], None)
                else:
                    idx = len(self._clauses)
                    self._clauses.append(learned)
                    self.learned_clauses += 1
                    self._watch(learned[0], idx)
                    self._watch(learned[1], idx)
                    self._enqueue(learned[0], idx)
                self._var_inc /= self._var_decay
                restart_budget -= 1
                if conflict_limit is not None and self.conflicts >= conflict_limit:
                    return self._finish(SatStatus.UNKNOWN)
                if stop_at is not None and time.monotonic() > stop_at:
                    return self._finish(SatStatus.UNKNOWN)
                if restart_budget <= 0:
                    restart_count += 1
                    restart_budget = luby(restart_count + 1) * 64
                    self._backjump(0)
            else:
                # Conflict-free searches must observe the clock too (a
                # huge propagation-bound instance never takes the branch
                # above); check every 64 decisions to keep this cheap.
                if stop_at is not None and self.decisions & 0x3F == 0 \
                        and time.monotonic() > stop_at:
                    return self._finish(SatStatus.UNKNOWN)
                level = self._decision_level()
                if level < len(assumptions):
                    # Assert the next assumption as a pseudo-decision.
                    lit = assumptions[level]
                    value = self._value(lit)
                    if value == -1:
                        # Falsified by the database plus the prior
                        # assumptions: UNSAT under this assumption set
                        # only — leave self._unsat clear.
                        return self._finish(SatStatus.UNSAT)
                    self._trail_lim.append(len(self._trail))
                    if value == 0:
                        self._enqueue(lit, None)
                    continue
                var = self._pick_branch_var()
                if var == 0:
                    return self._finish(SatStatus.SAT)
                self.decisions += 1
                self._trail_lim.append(len(self._trail))
                lit = var if self._phase[var] else -var
                self._enqueue(lit, None)

    def _finish(self, status: SatStatus) -> SatResult:
        """Build the result, then backtrack to level 0 (trail-safe exit).

        Extracting the model *before* the backjump and always leaving
        the solver at decision level 0 is what makes back-to-back
        ``solve`` calls on one instance safe: only root-level facts
        survive between solves, while phase saving keeps the model
        polarity hints.
        """
        result = self._result(status)
        self._backjump(0)
        return result

    def _result(self, status: SatStatus) -> SatResult:
        model: dict[int, bool] = {}
        if status is SatStatus.SAT:
            model = {v: self._assign[v] == 1
                     for v in range(1, self._num_vars + 1)}
        return SatResult(status, model, self.conflicts, self.decisions,
                         self.propagations)

