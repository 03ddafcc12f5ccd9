"""A CDCL SAT solver.

The paper's specific solver is "Z3's bit-blaster ... Z3's SAT solver"
(Section 4).  Since the reproduction environment has no Z3, this module
provides the SAT back end: conflict-driven clause learning with two-watched
literals, VSIDS decision heuristic, phase saving, first-UIP conflict
analysis with non-chronological backjumping, and Luby restarts.

VSIDS starts every activity at 0.  ``seed_activity`` raises a set of
variables to 1.0 before the search; the bit-blaster seeds the circuit's
input bits, so the search branches on inputs first and propagation
fixes the Tseitin gates (docs/solver.md, "Branching order").

Literals use the DIMACS convention: variables are positive integers and a
negative integer denotes negation.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

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
    """A clause database and the CDCL search over it.

    The program builds one instance per query, lets the bit-blaster fill
    it and solves it once (docs/solver.md).  An instance is not reused:
    there are no assumptions, and no clauses are added after ``solve``.

    The hot paths (``_propagate``, ``_analyze``, ``_backjump`` and the
    search loop in ``solve``) bind the solver's arrays to locals and
    read and assign literal values inline.  Witnesses and
    ``sat_clauses`` depend on the exact search, down to the order of
    every watch list and of the trail, so
    ``tests/test_sat_pinned_search.py`` pins its counters and models.
    """

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
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.minimized_literals = 0
        self.learned_clauses = 0

    # ------------------------------------------------------------------ #
    # Clause database
    # ------------------------------------------------------------------ #

    def new_var(self) -> int:
        var = self._num_vars + 1
        self._num_vars = var
        self._assign.append(0)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        self._heap_pos.append(-1)
        self._heap_insert(var)
        return var

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
        pos = self._heap_pos
        if pos[var] >= 0:
            return
        heap = self._heap
        pos[var] = len(heap)
        heap.append(var)
        # Activities are never negative, so a variable whose activity is
        # still 0 (every new one) already sits where sifting would leave it.
        if self._activity[var]:
            self._heap_sift_up(pos[var])

    def _heap_pop_max(self) -> Optional[int]:
        heap = self._heap
        pos = self._heap_pos
        assign = self._assign
        while heap:
            top = heap[0]
            last = heap.pop()
            pos[top] = -1
            if heap:
                heap[0] = last
                pos[last] = 0
                self._heap_sift_down(0)
            if assign[top] == 0:
                return top
        return None

    def seed_activity(self, variables: Iterable[int]) -> None:
        """Set each variable's VSIDS activity to 1.0 before the search.

        Every other activity is still 0, so the first decisions fall on
        these variables until conflicts bump others past them.  The order
        given breaks their ties.  The bit-blaster seeds the circuit's
        input bits.
        """
        activity = self._activity
        heap_pos = self._heap_pos
        for var in variables:
            activity[var] = 1.0
            if heap_pos[var] >= 0:
                self._heap_sift_up(heap_pos[var])

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
        self.add_gate_clause(lits)

    def add_gate_clause(self, lits: list[int]) -> None:
        """Append a clause of two or more distinct, non-complementary
        literals over existing variables, as ``add_clause`` would.

        The bit-blaster's Tseitin gates guarantee what ``add_clause``
        checks, so they skip it.  The solver keeps ``lits`` itself (its
        watched literals are swapped in place): pass a fresh list.
        """
        clauses = self._clauses
        idx = len(clauses)
        clauses.append(lits)
        watches = self._watches
        watching = watches.get(lits[0])
        if watching is None:
            watches[lits[0]] = [idx]
        else:
            watching.append(idx)
        watching = watches.get(lits[1])
        if watching is None:
            watches[lits[1]] = [idx]
        else:
            watching.append(idx)

    def _watch(self, lit: int, clause_idx: int) -> None:
        self._watches.setdefault(lit, []).append(clause_idx)

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        """Assign ``lit`` true at the current level, unless it already
        has a value; False when that value is false."""
        var = abs(lit)
        value = self._assign[var] if lit > 0 else -self._assign[var]
        if value:
            return value == 1
        self._assign[var] = 1 if lit > 0 else -1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = lit > 0
        self._trail.append(lit)
        return True

    # ------------------------------------------------------------------ #
    # Unit propagation (two-watched literals)
    # ------------------------------------------------------------------ #

    def _propagate(self) -> Optional[int]:
        """Propagate until fixpoint; return a conflicting clause index or None."""
        trail = self._trail
        watches = self._watches
        clauses = self._clauses
        assign = self._assign
        level = self._level
        reason = self._reason
        phase = self._phase
        current = len(self._trail_lim)
        qhead = self._qhead
        propagations = 0
        conflict = None
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watch_list = watches.get(false_lit)
            if not watch_list:
                continue
            kept: list[int] = []
            for i, cidx in enumerate(watch_list):
                clause = clauses[cidx]
                # Normalise: watched literals are clause[0] and clause[1],
                # with the falsified one second.
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                value = assign[first] if first > 0 else -assign[-first]
                if value == 1:
                    kept.append(cidx)
                    continue
                # Find a replacement watch.
                for k in range(2, len(clause)):
                    other = clause[k]
                    if (assign[other] if other > 0 else -assign[-other]) != -1:
                        clause[1] = other
                        clause[k] = false_lit
                        watching = watches.get(other)
                        if watching is None:
                            watches[other] = [cidx]
                        else:
                            watching.append(cidx)
                        break
                else:
                    kept.append(cidx)
                    if value == -1:
                        # Conflict: keep the remaining watches intact.
                        kept.extend(watch_list[i + 1:])
                        conflict = cidx
                        break
                    propagations += 1
                    var = first if first > 0 else -first
                    assign[var] = 1 if first > 0 else -1
                    level[var] = current
                    reason[var] = cidx
                    phase[var] = first > 0
                    trail.append(first)
            watches[false_lit] = kept
            if conflict is not None:
                break
        self._qhead = qhead
        self.propagations += propagations
        return conflict

    # ------------------------------------------------------------------ #
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------ #

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """Return (learned clause, backjump level)."""
        clauses = self._clauses
        level = self._level
        trail = self._trail
        activity = self._activity
        heap_pos = self._heap_pos
        sift_up = self._heap_sift_up
        var_inc = self._var_inc
        learned: list[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self._num_vars + 1)
        counter = 0
        pivot = 0  # literal whose reason clause is being resolved
        clause = clauses[conflict]
        index = len(trail)
        current = len(self._trail_lim)

        while True:
            for q in clause:
                if q == pivot:
                    continue
                var = q if q > 0 else -q
                if seen[var] or not level[var]:
                    continue
                seen[var] = True
                # VSIDS bump, rescaling every activity near overflow.
                bumped = activity[var] + var_inc
                activity[var] = bumped
                if bumped > 1e100:
                    for v in range(1, self._num_vars + 1):
                        activity[v] *= 1e-100
                    var_inc *= 1e-100
                    self._var_inc = var_inc
                if heap_pos[var] >= 0:
                    sift_up(heap_pos[var])
                if level[var] >= current:
                    counter += 1
                else:
                    learned.append(q)
            # Pick the next trail literal to resolve on.
            while True:
                index -= 1
                pivot = trail[index]
                var = pivot if pivot > 0 else -pivot
                if seen[var]:
                    break
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            clause = clauses[self._reason[var]]  # type: ignore[index]
        learned[0] = -pivot
        learned = self._minimize(learned)

        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the learned clause.
        max_i = 1
        max_level = level[abs(learned[1])]
        for i in range(2, len(learned)):
            lit_level = level[abs(learned[i])]
            if lit_level > max_level:
                max_i, max_level = i, lit_level
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, max_level

    def _minimize(self, learned: list[int]) -> list[int]:
        """Self-subsumption minimization of the learned clause.

        A non-asserting literal is redundant when its reason clause's
        other literals are all either in the learned clause already or
        assigned at level 0 — the cheap (non-recursive) variant of
        MiniSat's clause minimization.  Keeps learned clauses short,
        which matters for the watched-literal traffic on the bit-blasted
        circuits this solver spends its time in.
        """
        clauses = self._clauses
        reason = self._reason
        level = self._level
        keep = {abs(lit) for lit in learned}
        minimized = [learned[0]]
        for lit in learned[1:]:
            var = abs(lit)
            reason_idx = reason[var]
            if reason_idx is not None:
                for other in clauses[reason_idx]:
                    other_var = abs(other)
                    if other_var != var and other_var not in keep \
                            and level[other_var]:
                        break
                else:
                    self.minimized_literals += 1
                    continue
            minimized.append(lit)
        return minimized

    def _backjump(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        assign = self._assign
        reason = self._reason
        heap_pos = self._heap_pos
        heap_insert = self._heap_insert
        limit = trail_lim[level]
        for lit in reversed(trail[limit:]):
            var = lit if lit > 0 else -lit
            assign[var] = 0
            reason[var] = None
            if heap_pos[var] < 0:
                heap_insert(var)
        del trail[limit:]
        del trail_lim[level:]
        self._qhead = len(trail)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def solve(self, conflict_limit: Optional[int] = None,
              deadline: Optional[Deadline] = None) -> SatResult:
        """Run the CDCL search over the clause database, once.

        ``conflict_limit`` and ``deadline`` bound the search and yield
        ``UNKNOWN`` on exhaustion.  ``deadline`` is the query's one
        clock, started before slicing (the paper's 10-second per-query
        budget); the search keeps no clock of its own.
        """
        if self._unsat:
            return SatResult(SatStatus.UNSAT)

        stop_at = deadline.expires_at if deadline is not None else None

        # Install root-level units.
        for lit in self._pending_units:
            if not self._enqueue(lit, None):
                return SatResult(SatStatus.UNSAT)
        self._pending_units.clear()

        propagate = self._propagate
        analyze = self._analyze
        backjump = self._backjump
        pop_max = self._heap_pop_max
        clauses = self._clauses
        assign = self._assign
        level = self._level
        reason = self._reason
        phase = self._phase
        trail = self._trail
        trail_lim = self._trail_lim
        restart_count = 0
        restart_budget = luby(restart_count + 1) * 64

        while True:
            conflict = propagate()
            if conflict is not None:
                self.conflicts += 1
                if not trail_lim:
                    return self._result(SatStatus.UNSAT)
                learned, back_level = analyze(conflict)
                backjump(back_level)
                lit = learned[0]
                cause = None
                if len(learned) > 1:
                    cause = len(clauses)
                    clauses.append(learned)
                    self.learned_clauses += 1
                    self._watch(lit, cause)
                    self._watch(learned[1], cause)
                # The asserting literal was assigned above the backjump
                # level, so it is unassigned now.
                var = lit if lit > 0 else -lit
                assign[var] = 1 if lit > 0 else -1
                level[var] = len(trail_lim)
                reason[var] = cause
                phase[var] = lit > 0
                trail.append(lit)
                self._var_inc /= self._var_decay
                restart_budget -= 1
                if conflict_limit is not None and self.conflicts >= conflict_limit:
                    return self._result(SatStatus.UNKNOWN)
                if stop_at is not None and time.monotonic() > stop_at:
                    return self._result(SatStatus.UNKNOWN)
                if restart_budget <= 0:
                    restart_count += 1
                    restart_budget = luby(restart_count + 1) * 64
                    backjump(0)
            else:
                # Conflict-free searches must observe the clock too (a
                # huge propagation-bound instance never takes the branch
                # above); check every 64 decisions to keep this cheap.
                if stop_at is not None and self.decisions & 0x3F == 0 \
                        and time.monotonic() > stop_at:
                    return self._result(SatStatus.UNKNOWN)
                var = pop_max()
                if not var:
                    return self._result(SatStatus.SAT)
                self.decisions += 1
                trail_lim.append(len(trail))
                # Decide the saved phase.
                positive = phase[var]
                assign[var] = 1 if positive else -1
                level[var] = len(trail_lim)
                reason[var] = None
                trail.append(var if positive else -var)

    def _result(self, status: SatStatus) -> SatResult:
        model: dict[int, bool] = {}
        if status is SatStatus.SAT:
            model = {v: self._assign[v] == 1
                     for v in range(1, self._num_vars + 1)}
        return SatResult(status, model, self.conflicts, self.decisions,
                         self.propagations)
