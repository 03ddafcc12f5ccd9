"""Equisatisfiable preprocessing passes for conjunctions of constraints.

Section 4 of the paper lists the preprocessing procedures implemented in
Fusion's solver: "forward and backward constant propagation, equality
propagation, unconstrained-variable elimination, Gaussian elimination, and
strength reduction".  This module implements all of them over a
*constraint set* (a list of Boolean terms understood conjunctively), the
same representation both the conventional solver (Algorithm 3) and the
graph-based solver (Algorithms 4/6) feed.

Every pass preserves satisfiability (some, like unconstrained-variable
elimination, are not equivalence-preserving), and every elimination logs a
completion step so a model of the residual constraint set can be extended
to a model of the original one — which is how the property tests validate
the whole pipeline against brute-force evaluation.

The paper reports that 21% of its SMT instances are decided during this
phase alone (Section 5.1); the pipeline therefore returns a definite
verdict whenever the constraint set collapses to true/false.
"""

from __future__ import annotations

import enum
import heapq
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.limits import Deadline
from repro.smt import semantics
from repro.smt.rewriter import simplify
from repro.smt.terms import Op, Term, TermManager

#: Operators f(v, t) (or unary f(v)) that are invertible in v: for any value
#: of t and any desired output, some input v produces it.
_INVERTIBLE_BINARY = frozenset({Op.BVADD, Op.BVSUB, Op.BVXOR, Op.XOR})
_INVERTIBLE_UNARY = frozenset({Op.BVNOT, Op.BVNEG, Op.NOT})
_COMPARISONS = frozenset({Op.ULT, Op.ULE, Op.SLT, Op.SLE})

#: Most rounds of all enabled passes one :meth:`Preprocessor.run` makes
#: before it gives up on a fixpoint.
MAX_ROUNDS = 8


class Verdict(enum.Enum):
    """Preprocessing outcome: decided (SAT/UNSAT) or residual (UNKNOWN)."""
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class CompletionStep:
    """Extends a model of the residual formula to the original formula.

    ``assign`` receives the mutable model (Term var -> int) and must add the
    entries for the variables this step eliminated.  Its second argument
    is the replay's evaluation memo (term id -> value), which a step
    passes to :func:`_eval_with_defaults`.
    """

    description: str
    assign: Callable[[dict[Term, int], dict[int, int]], None]


@dataclass
class PreprocessStats:
    rounds: int = 0
    constants_propagated: int = 0
    equalities_propagated: int = 0
    unconstrained_eliminated: int = 0
    gaussian_solved: int = 0
    strength_reduced: int = 0
    probed: int = 0
    initial_size: int = 0
    final_size: int = 0


@dataclass
class PreprocessResult:
    verdict: Verdict
    constraints: list[Term]
    completions: list[CompletionStep]
    stats: PreprocessStats

    def complete_model(self, model: dict[Term, int]) -> dict[Term, int]:
        """Extend ``model`` (for the residual) to the original constraints.

        The steps replay in reverse, sharing one evaluation memo, so a
        node that several definitions share is evaluated once.  A memoized
        value never goes stale: a step's definition was recorded after
        every variable eliminated before it had been substituted out, so
        no step replayed later assigns a variable that an earlier-replayed
        step has read (docs/solver.md, "Preprocessing").
        """
        extended = dict(model)
        memo: dict[int, int] = {}
        for step in reversed(self.completions):
            step.assign(extended, memo)
        return extended


def _twos_valuation(value: int, width: int) -> int:
    """Largest k with 2^k dividing ``value`` (mod 2^width); width if zero."""
    value %= 1 << width
    if value == 0:
        return width
    return (value & -value).bit_length() - 1


def _eval_with_defaults(term: Term, model: dict[Term, int],
                        memo: dict[int, int]) -> int:
    """Evaluate ``term``, defaulting unassigned variables to zero.

    One walk in :meth:`Term.iter_dag` order that stops at nodes already
    in ``memo`` (term id -> value) and adds the ones it evaluates.
    """
    stack: list[Optional[Term]] = [term]
    pop, push = stack.pop, stack.append
    eval_node = semantics.eval_node
    while stack:
        node = pop()
        if node is None:
            node = pop()
            memo[node.tid] = eval_node(node, model, memo)
            continue
        if node.tid in memo:
            continue
        if not node.args:
            if node.is_var and node not in model:
                model[node] = 0
            memo[node.tid] = eval_node(node, model, memo)
            continue
        push(node)
        push(None)
        for arg in node.args:
            if arg.tid not in memo:
                push(arg)
    return memo[term.tid]


def constraint_set_size(constraints: Sequence[Term]) -> int:
    """Total distinct DAG nodes across the constraint set."""
    seen: set[int] = set()
    stack = list(constraints)
    while stack:
        term = stack.pop()
        if term.tid not in seen:
            seen.add(term.tid)
            stack.extend(term.args)
    return len(seen)


def flatten_conjunction(constraints: Iterable[Term]) -> list[Term]:
    """Split top-level conjunctions into individual constraints."""
    out: list[Term] = []
    stack = list(constraints)
    stack.reverse()
    while stack:
        term = stack.pop()
        if term.op is Op.AND:
            stack.extend(reversed(term.args))
        else:
            out.append(term)
    return out


class _RunState:
    """What one :meth:`Preprocessor.run` shares across its passes: the
    query's deadline and two tables.

    Terms are hash-consed and immutable, so a term's simplified form and
    its free variables depend on the term alone: ``simplified`` maps a term
    id to its ``simplify`` result, ``free`` to its variables.  The
    constant and equality passes index constraints by these variables
    (:class:`_Occurrences`), so eliminating one variable visits and
    rewrites only the constraints that mention it.  The tables die with
    the run; nothing is kept on the preprocessor or the term manager.
    """

    __slots__ = ("manager", "deadline", "simplified", "free")

    def __init__(self, manager: TermManager,
                 deadline: Optional[Deadline]) -> None:
        self.manager = manager
        self.deadline = deadline
        self.simplified: dict[int, Term] = {}
        self.free: dict[int, frozenset[Term]] = {}

    def simplify(self, term: Term) -> Term:
        return simplify(self.manager, term, self.simplified)

    def free_vars(self, term: Term) -> frozenset[Term]:
        found = self.free.get(term.tid)
        if found is None:
            found = self.free[term.tid] = frozenset(term.free_vars())
        return found

    def check_deadline(self) -> None:
        if self.deadline is not None:
            self.deadline.check("preprocessing")


class _Occurrences:
    """For each free variable, the keys of the constraints that mention
    it, kept up to date as a pass rewrites constraints.

    A pass keys its constraints by list position, so :meth:`of` returns
    hits in list order.  This is the occurrence list of SAT preprocessors
    such as SatELite: a substitution visits the occurrences of the
    variables it replaces instead of testing every constraint.  The lists
    are keyed by variable id, which hashes in C.
    """

    __slots__ = ("run", "keys")

    def __init__(self, run: _RunState, items: Iterable[tuple]) -> None:
        self.run = run
        self.keys: dict[int, set] = {}
        for key, constraint in items:
            self.add(key, constraint)

    def add(self, key, constraint: Term) -> None:
        for var in self.run.free_vars(constraint):
            found = self.keys.get(var.tid)
            if found is None:
                self.keys[var.tid] = {key}
            else:
                found.add(key)

    def remove(self, key, constraint: Term) -> None:
        for var in self.run.free_vars(constraint):
            self.keys[var.tid].discard(key)

    def of(self, variables: Iterable[Term]) -> list:
        """Keys of the constraints that mention any of ``variables``, in
        order."""
        hits: set = set()
        for var in variables:
            hits.update(self.keys.get(var.tid, ()))
        return sorted(hits)


class Preprocessor:
    """The configurable preprocessing pipeline.

    ``enabled`` selects which passes run — the ablation benchmarks switch
    passes off individually to measure each one's contribution.
    """

    ALL_PASSES = ("constants", "equalities", "strength", "gaussian",
                  "unconstrained", "probing")

    def __init__(self, manager: TermManager,
                 enabled: Optional[Sequence[str]] = None,
                 protected: Optional[Iterable[Term]] = None) -> None:
        self.manager = manager
        self.enabled = tuple(enabled) if enabled is not None else self.ALL_PASSES
        self.check_names(self.enabled)
        # Interface variables that outer contexts may reference (Algorithm 6
        # preprocesses per-function templates, whose params/returns/receivers
        # are bound externally): never eliminate or fix these.
        self.protected: set[int] = {t.tid for t in protected} \
            if protected is not None else set()

    @classmethod
    def check_names(cls, passes: Optional[Iterable[str]]) -> None:
        """Raise ``ValueError`` if ``passes`` names a pass that does not
        exist.  ``None`` stands for a caller's default list."""
        unknown = set(passes or ()) - set(cls.ALL_PASSES)
        if unknown:
            raise ValueError(f"unknown preprocessing passes: {sorted(unknown)}")

    def _is_protected(self, var: Term) -> bool:
        return var.tid in self.protected

    # ------------------------------------------------------------------ #
    # Pipeline driver
    # ------------------------------------------------------------------ #

    def run(self, constraints: Iterable[Term],
            deadline: Optional[Deadline] = None) -> PreprocessResult:
        """Run the enabled passes to a fixpoint (at most
        :data:`MAX_ROUNDS`).

        ``deadline`` is checked once per round, once per batch of constant
        bindings, once per other eliminated variable (a solved Gaussian
        pivot included) and once per probed constraint, so no single
        round can overrun it by much.

        Each round's DAG size is computed once, at its end: it is the
        next round's size before, and the last one is ``final_size``.
        """
        run = _RunState(self.manager, deadline)
        stats = PreprocessStats()
        completions: list[CompletionStep] = []
        work = [run.simplify(c) for c in flatten_conjunction(constraints)]
        size = stats.initial_size = constraint_set_size(work)

        for _ in range(MAX_ROUNDS):
            run.check_deadline()
            stats.rounds += 1
            before = (len(work), size)
            work = self._normalize(work, run)
            if work is None:
                stats.final_size = 0
                return PreprocessResult(Verdict.UNSAT, [], completions, stats)
            if "constants" in self.enabled:
                work = self._propagate_constants(work, completions, stats,
                                                 run)
                if work is None:
                    stats.final_size = 0
                    return PreprocessResult(Verdict.UNSAT, [], completions, stats)
            if "equalities" in self.enabled:
                work = self._propagate_equalities(work, completions, stats,
                                                  run)
            if "strength" in self.enabled:
                work = self._strength_reduce(work, stats, run)
            if "gaussian" in self.enabled:
                result = self._gaussian_eliminate(work, completions, stats,
                                                  run)
                if result is None:
                    stats.final_size = 0
                    return PreprocessResult(Verdict.UNSAT, [], completions, stats)
                work = result
            if "unconstrained" in self.enabled:
                work = self._eliminate_unconstrained(work, completions, stats,
                                                     run)
            if "probing" in self.enabled:
                work = self._probe_isolated(work, completions, stats, run)
            work_check = self._normalize(work, run)
            if work_check is None:
                stats.final_size = 0
                return PreprocessResult(Verdict.UNSAT, [], completions, stats)
            work = work_check
            size = constraint_set_size(work)
            if (len(work), size) == before:
                break

        stats.final_size = size
        verdict = Verdict.SAT if not work else Verdict.UNKNOWN
        return PreprocessResult(verdict, work, completions, stats)

    # ------------------------------------------------------------------ #
    # Normalisation
    # ------------------------------------------------------------------ #

    def _normalize(self, work: list[Term],
                   run: _RunState) -> Optional[list[Term]]:
        """Simplify, flatten, dedupe; None signals UNSAT."""
        out: list[Term] = []
        seen: set[int] = set()
        for c in flatten_conjunction(work):
            c = run.simplify(c)
            if c.op is Op.FALSE:
                return None
            if c.op is Op.TRUE or c.tid in seen:
                continue
            seen.add(c.tid)
            out.append(c)
        return out

    def _substitute_all(self, work: list[Term], mapping: dict[Term, Term],
                        run: _RunState) -> list[Term]:
        """Substitute ``mapping`` into every constraint and simplify.

        A key can occur in a constraint only if all of the key's variables
        do, so a constraint lacking them is returned as is: work items are
        already simplified, and ``simplify`` is idempotent.  Variable keys
        need only one disjointness test per constraint.
        """
        mgr = self.manager
        if all(key.op is Op.VAR for key in mapping):
            keyset = frozenset(mapping)
            hits = [not keyset.isdisjoint(run.free_vars(c)) for c in work]
        else:
            key_vars = [run.free_vars(key) for key in mapping]
            hits = [any(kv <= run.free_vars(c) for kv in key_vars)
                    for c in work]
        return [run.simplify(mgr.substitute(c, mapping)) if hit else c
                for c, hit in zip(work, hits)]

    # ------------------------------------------------------------------ #
    # Constant propagation (forward and backward)
    # ------------------------------------------------------------------ #

    def _binding(self, c: Term) -> Optional[tuple[Term, Term]]:
        """``(var, const)`` if ``c`` fixes an unprotected variable."""
        # Forward: v = const appearing as a constraint.
        if c.op is Op.EQ:
            lhs, rhs = c.args
            if lhs.is_var and rhs.is_const and not self._is_protected(lhs):
                return lhs, rhs
            if rhs.is_var and lhs.is_const and not self._is_protected(rhs):
                return rhs, lhs
        # Backward: an asserted Boolean variable (or its negation) is
        # forced to a truth value.
        elif c.is_var and c.sort.is_bool and not self._is_protected(c):
            return c, self.manager.true
        elif c.op is Op.NOT and c.args[0].is_var and \
                not self._is_protected(c.args[0]):
            return c.args[0], self.manager.false
        return None

    def _propagate_constants(self, work: list[Term],
                             completions: list[CompletionStep],
                             stats: PreprocessStats,
                             run: _RunState) -> Optional[list[Term]]:
        """Substitute constant bindings in batches until none is left.

        A batch takes the first binding per variable in list order and
        substitutes them all into the constraints that mention them, then
        normalizes what it rewrote as :meth:`_normalize` would.  Every
        binding present before a batch has its variable bound by it, so
        the batch removes it; the next batch therefore looks for bindings
        only among what this one rewrote.  A binding is not substituted
        into: it is dropped if it agrees with its variable's constant and
        is a conflict (UNSAT) if not.

        Constraints are keyed by tuples: a rewrite into a conjunction
        gives each conjunct its key extended by the conjunct's index, so
        sorted keys are list order.  ``first`` maps each constraint to
        its key, so a duplicate keeps only its earliest copy.  Neither it
        nor the occurrence lists are built before the first binding.
        """
        mgr = self.manager
        at: dict[tuple, Term] = {(i,): c for i, c in enumerate(work)}
        candidates = list(at)
        occurrences: Optional[_Occurrences] = None
        while True:
            run.check_deadline()
            bindings: dict[Term, Term] = {}
            for key in candidates:
                found = self._binding(at[key])
                if found is not None:
                    bindings.setdefault(*found)
            if not bindings:
                return work if occurrences is None \
                    else [at[key] for key in sorted(at)]
            if occurrences is None:
                first = {c.tid: key for key, c in at.items()}
                occurrences = _Occurrences(run, at.items())
            stats.constants_propagated += len(bindings)

            def assign(model: dict[Term, int],
                       memo: dict[int, int],
                       fixed: dict[Term, Term] = bindings) -> None:
                for var, const in fixed.items():
                    model[var] = const.value

            completions.append(
                CompletionStep("constant bindings", assign))
            rewrites: list[tuple[tuple, list[Term]]] = []
            conflict = False
            for key in occurrences.of(bindings):
                c = at[key]
                found = self._binding(c)
                if found is not None:
                    var, const = found
                    conflict = conflict or bindings[var] is not const
                    rewrites.append((key, []))
                    continue
                c = run.simplify(mgr.substitute(c, bindings))
                rewrites.append((key, [c] if c.op is not Op.AND else
                                 [run.simplify(part) for part in
                                  flatten_conjunction([c])]))
            # A conflict is reported only after the whole batch: its
            # rewrites intern terms that later queries on the same manager
            # may reuse, and ids must follow the rescanning loop's order.
            if conflict:
                return None
            for key, _ in rewrites:
                c = at.pop(key)
                occurrences.remove(key, c)
                del first[c.tid]
            candidates = []
            for key, parts in rewrites:
                for j, c in enumerate(parts):
                    if c.op is Op.FALSE:
                        return None
                    if c.op is Op.TRUE:
                        continue
                    place = key if len(parts) == 1 else key + (j,)
                    other = first.get(c.tid)
                    if other is not None:
                        if other < place:
                            continue
                        del at[other]
                        occurrences.remove(other, c)
                    at[place] = c
                    first[c.tid] = place
                    occurrences.add(place, c)
                    candidates.append(place)

    # ------------------------------------------------------------------ #
    # Equality propagation (solve-eqs)
    # ------------------------------------------------------------------ #

    def _solved_form(self, c: Optional[Term],
                     run: _RunState) -> Optional[tuple[Term, Term]]:
        """``(var, definition)`` if ``c`` is ``var = definition`` with
        ``var`` unprotected and not free in ``definition``."""
        if c is None or c.op is not Op.EQ:
            return None
        lhs, rhs = c.args
        if lhs.is_var and not self._is_protected(lhs) \
                and lhs not in run.free_vars(rhs):
            return lhs, rhs
        if rhs.is_var and not self._is_protected(rhs) \
                and rhs not in run.free_vars(lhs):
            return rhs, lhs
        return None

    def _propagate_equalities(self, work: list[Term],
                              completions: list[CompletionStep],
                              stats: PreprocessStats,
                              run: _RunState) -> list[Term]:
        """Eliminate ``var = definition`` equations one at a time, always
        the first in list order, substituting each definition into the
        occurrences of its variable.

        Whether a constraint is such an equation depends on the constraint
        alone, so a position before ``cursor`` needs another look only
        after a substitution rewrote it (``revisit``, a heap).  The
        occurrence lists are built at the first elimination.
        """
        mgr = self.manager
        slots: list[Optional[Term]] = list(work)
        occurrences: Optional[_Occurrences] = None
        revisit: list[int] = []
        cursor = 0
        while True:
            run.check_deadline()
            found = None
            while revisit and found is None:
                i = heapq.heappop(revisit)
                found = self._solved_form(slots[i], run)
            while cursor < len(slots) and found is None:
                i = cursor
                cursor += 1
                found = self._solved_form(slots[i], run)
            if found is None:
                return work if occurrences is None \
                    else [c for c in slots if c is not None]
            if occurrences is None:
                occurrences = _Occurrences(run, enumerate(slots))
            var, definition = found
            occurrences.remove(i, slots[i])
            slots[i] = None
            stats.equalities_propagated += 1

            def assign(model: dict[Term, int],
                       memo: dict[int, int],
                       v: Term = var, d: Term = definition) -> None:
                model[v] = _eval_with_defaults(d, model, memo)

            completions.append(
                CompletionStep(f"equality {var.name}", assign))
            mapping = {var: definition}
            for p in occurrences.of(mapping):
                old = slots[p]
                new = run.simplify(mgr.substitute(old, mapping))
                if new is not old:
                    occurrences.remove(p, old)
                    occurrences.add(p, new)
                    slots[p] = new
                    if p < cursor:
                        heapq.heappush(revisit, p)

    # ------------------------------------------------------------------ #
    # Strength reduction
    # ------------------------------------------------------------------ #

    def _strength_reduce(self, work: list[Term], stats: PreprocessStats,
                         run: _RunState) -> list[Term]:
        mgr = self.manager

        def reduce_node(node: Term, args: tuple[Term, ...]) -> Term:
            if node.op in (Op.BVMUL, Op.BVUDIV, Op.BVUREM) and len(args) == 2:
                a, b = args
                const, other = None, None
                if b.op is Op.CONST:
                    const, other = b, a
                elif a.op is Op.CONST and node.op is Op.BVMUL:
                    const, other = a, b
                if const is not None and const.value > 0 and \
                        const.value & (const.value - 1) == 0:
                    shift = const.value.bit_length() - 1
                    amount = mgr.bv_const(shift, node.sort.width)
                    stats.strength_reduced += 1
                    if node.op is Op.BVMUL:
                        return mgr.bvshl(other, amount)
                    if node.op is Op.BVUDIV:
                        return mgr.bvlshr(other, amount)
                    mask = mgr.bv_const(const.value - 1, node.sort.width)
                    return mgr.bvand(other, mask)
            return mgr.rebuild(node, args)

        out: list[Term] = []
        for c in work:
            cache: dict[int, Term] = {}
            for node in c.iter_dag():
                new_args = tuple(cache[a.tid] for a in node.args)
                cache[node.tid] = reduce_node(node, new_args)
            out.append(run.simplify(cache[c.tid]))
        return out

    # ------------------------------------------------------------------ #
    # Gaussian elimination over Z_{2^w}
    # ------------------------------------------------------------------ #

    def _linearize(self, term: Term) -> Optional[tuple[dict[Term, int], int]]:
        """Decompose a bit-vector term into sum(coeff*var) + const, or None."""
        width = term.sort.width
        return self._linear(term, width, 1 << width)

    def _linear(self, t: Term, width: int, modulus: int
                ) -> Optional[tuple[dict[Term, int], int]]:
        """:meth:`_linearize` of ``t`` (a method, not a nested function:
        a recursive closure is a reference cycle, left for the collector
        on every call)."""
        if t.op is Op.VAR:
            return {t: 1}, 0
        if t.op is Op.CONST:
            return {}, t.value
        if t.op is Op.BVNEG:
            inner = self._linear(t.args[0], width, modulus)
            if inner is None:
                return None
            coeffs, const = inner
            return ({v: (-c) % modulus for v, c in coeffs.items()},
                    (-const) % modulus)
        if t.op in (Op.BVADD, Op.BVSUB):
            left = self._linear(t.args[0], width, modulus)
            right = self._linear(t.args[1], width, modulus)
            if left is None or right is None:
                return None
            sign = 1 if t.op is Op.BVADD else -1
            coeffs = dict(left[0])
            for v, c in right[0].items():
                coeffs[v] = (coeffs.get(v, 0) + sign * c) % modulus
            return ({v: c for v, c in coeffs.items() if c},
                    (left[1] + sign * right[1]) % modulus)
        if t.op is Op.BVMUL:
            a, b = t.args
            if a.op is Op.CONST:
                scale, operand = a.value, b
            elif b.op is Op.CONST:
                scale, operand = b.value, a
            else:
                return None
            inner = self._linear(operand, width, modulus)
            if inner is None:
                return None
            coeffs, const = inner
            return ({v: (c * scale) % modulus
                     for v, c in coeffs.items() if (c * scale) % modulus},
                    (const * scale) % modulus)
        if t.op is Op.BVSHL and t.args[1].op is Op.CONST:
            shift = t.args[1].value
            if shift >= width:
                return {}, 0
            inner = self._linear(t.args[0], width, modulus)
            if inner is None:
                return None
            coeffs, const = inner
            scale = 1 << shift
            return ({v: (c * scale) % modulus
                     for v, c in coeffs.items() if (c * scale) % modulus},
                    (const * scale) % modulus)
        return None

    def _linear_to_term(self, coeffs: dict[Term, int], const: int,
                        width: int) -> Term:
        mgr = self.manager
        acc: Optional[Term] = None
        for var in sorted(coeffs, key=lambda v: v.tid):
            coeff = coeffs[var]
            piece = var if coeff == 1 else mgr.bvmul(
                mgr.bv_const(coeff, width), var)
            acc = piece if acc is None else mgr.bvadd(acc, piece)
        const_term = mgr.bv_const(const, width)
        if acc is None:
            return const_term
        if const == 0:
            return acc
        return mgr.bvadd(acc, const_term)

    def _gaussian_eliminate(self, work: list[Term],
                            completions: list[CompletionStep],
                            stats: PreprocessStats,
                            run: _RunState) -> Optional[list[Term]]:
        mgr = self.manager
        # Group linear equations by width.
        rows_by_width: dict[int, list[tuple[dict[Term, int], int]]] = {}
        others: list[Term] = []
        for c in work:
            row = None
            if c.op is Op.EQ and c.args[0].sort.is_bv:
                left = self._linearize(c.args[0])
                right = self._linearize(c.args[1])
                if left is not None and right is not None:
                    width = c.args[0].sort.width
                    modulus = 1 << width
                    coeffs = dict(left[0])
                    for v, coef in right[0].items():
                        coeffs[v] = (coeffs.get(v, 0) - coef) % modulus
                    coeffs = {v: coef for v, coef in coeffs.items() if coef}
                    const = (right[1] - left[1]) % modulus
                    row = (coeffs, const)
                    rows_by_width.setdefault(width, []).append(row)
            if row is None:
                others.append(c)

        substitution: dict[Term, Term] = {}
        residual_rows: list[Term] = []
        for width, rows in rows_by_width.items():
            modulus = 1 << width
            solved: list[tuple[Term, dict[Term, int], int]] = []
            pending = rows
            progress = True
            while progress and pending:
                progress = False
                next_pending: list[tuple[dict[Term, int], int]] = []
                for coeffs, const in pending:
                    # Apply already-solved variables.
                    for var, vcoeffs, vconst in solved:
                        if var in coeffs:
                            scale = coeffs.pop(var)
                            for v2, c2 in vcoeffs.items():
                                coeffs[v2] = (coeffs.get(v2, 0)
                                              + scale * c2) % modulus
                            const = (const - scale * vconst) % modulus
                    coeffs = {v: c for v, c in coeffs.items() if c}
                    if not coeffs:
                        if const % modulus != 0:
                            return None  # 0 = nonzero: contradiction
                        continue
                    pivot = next((v for v, c in coeffs.items()
                                  if c % 2 == 1 and not self._is_protected(v)),
                                 None)
                    if pivot is None:
                        next_pending.append((coeffs, const))
                        continue
                    inv = pow(coeffs[pivot], -1, modulus)
                    # pivot = inv*const - sum(inv*c * v)  (mod 2^w)
                    rest = {v: (-inv * c) % modulus
                            for v, c in coeffs.items() if v is not pivot}
                    rest = {v: c for v, c in rest.items() if c}
                    pconst = (inv * const) % modulus
                    solved.append((pivot, rest, pconst))
                    stats.gaussian_solved += 1
                    progress = True
                pending = next_pending
            # Back-substitute solved definitions first (later pivots may
            # mention earlier ones; resolve right-to-left).  These steps are
            # appended before the exact-row assignments below so that model
            # completion — which replays steps in reverse — fixes exact
            # values before evaluating pivot definitions that use them.
            for i in range(len(solved) - 1, -1, -1):
                run.check_deadline()
                var, coeffs, const = solved[i]
                definition = self._linear_to_term(coeffs, const, width)
                definition = mgr.substitute(definition, substitution)
                substitution[var] = run.simplify(definition)
                the_var, the_def = var, substitution[var]

                def assign(model: dict[Term, int],
                           memo: dict[int, int],
                           v: Term = the_var, d: Term = the_def) -> None:
                    model[v] = _eval_with_defaults(d, model, memo)

                completions.append(
                    CompletionStep(f"gaussian {var.name}", assign))

            # Rows without an odd pivot: check divisibility by the common
            # power of two (UNSAT if violated), solve isolated single-variable
            # rows exactly, keep the rest as residual constraints.  Usage is
            # counted in ``others`` as they will be after the pivot
            # substitution: a variable that reaches them only through a
            # pivot's definition is still constrained there.
            var_usage: dict[Term, int] = {}
            for c in others:
                used: set[Term] = set()
                for v in run.free_vars(c):
                    definition = substitution.get(v)
                    if definition is None:
                        used.add(v)
                    else:
                        used |= run.free_vars(definition)
                for v in used:
                    var_usage[v] = var_usage.get(v, 0) + 1
            for coeffs, _ in pending:
                for v in coeffs:
                    var_usage[v] = var_usage.get(v, 0) + 1
            for coeffs, const in pending:
                valuation = min(_twos_valuation(c, width)
                                for c in coeffs.values())
                if const % (1 << valuation) != 0:
                    return None  # every LHS value divisible by 2^k, RHS not
                if len(coeffs) == 1:
                    (var, coeff), = coeffs.items()
                    if var_usage.get(var, 0) == 1 and \
                            not self._is_protected(var):
                        # c*v = d with c = 2^k * odd: v = (d/2^k)*odd^-1
                        # modulo 2^(w-k); any lift works since c*2^(w-k) = 0.
                        sub_mod = modulus >> valuation
                        value = ((const >> valuation)
                                 * pow(coeff >> valuation, -1, sub_mod)
                                 ) % sub_mod
                        stats.gaussian_solved += 1

                        def assign_exact(model: dict[Term, int],
                                         memo: dict[int, int],
                                         v: Term = var,
                                         val: int = value) -> None:
                            model[v] = val

                        completions.append(CompletionStep(
                            f"gaussian exact {var.name}", assign_exact))
                        continue
                residual_rows.append(
                    run.simplify(mgr.eq(
                        self._linear_to_term(coeffs, 0, width),
                        mgr.bv_const(const, width))))

        out = self._substitute_all(others, substitution, run) \
            if substitution else list(others)
        out.extend(residual_rows)
        return out

    # ------------------------------------------------------------------ #
    # Unconstrained-variable elimination
    # ------------------------------------------------------------------ #

    def _path_counts(self, work: list[Term]) -> dict[int, int]:
        """Number of root-to-node paths per DAG node, capped at 2.

        A variable with exactly one path occurs exactly once in the fully
        expanded formula, which is the soundness condition for treating a
        term built on it as unconstrained (cf. footnote 3 of the paper).
        """
        counts: dict[int, int] = {}
        for c in work:
            order = c.iter_dag()  # children before parents
            local: dict[int, int] = {c.tid: 1}
            for node in reversed(order):
                n = local.get(node.tid, 0)
                if n == 0:
                    continue
                for arg in node.args:
                    local[arg.tid] = min(2, local.get(arg.tid, 0) + n)
            for tid, n in local.items():
                counts[tid] = min(2, counts.get(tid, 0) + n)
        return counts

    def _eliminate_unconstrained(self, work: list[Term],
                                 completions: list[CompletionStep],
                                 stats: PreprocessStats,
                                 run: _RunState) -> list[Term]:
        changed = True
        while changed:
            run.check_deadline()
            changed = False
            counts = self._path_counts(work)

            def unconstrained(t: Term) -> bool:
                return t.is_var and counts.get(t.tid, 0) == 1 \
                    and not self._is_protected(t)

            replacement: Optional[tuple[Term, Term, CompletionStep]] = None
            for c in work:
                for node in c.iter_dag():
                    step = self._unconstrained_step(node, unconstrained,
                                                    run)
                    if step is not None:
                        replacement = step
                        break
                if replacement is not None:
                    break
            if replacement is None:
                break
            old, fresh, completion = replacement
            stats.unconstrained_eliminated += 1
            completions.append(completion)
            work = self._substitute_all(work, {old: fresh}, run)
            changed = True
        return work

    # ------------------------------------------------------------------ #
    # Isolated-constraint probing
    # ------------------------------------------------------------------ #

    def _probe_isolated(self, work: list[Term],
                        completions: list[CompletionStep],
                        stats: PreprocessStats, run: _RunState,
                        attempts: int = 24) -> list[Term]:
        """Discharge constraints whose variables appear nowhere else.

        If constraint C shares no variable with the rest of the set, a
        concrete witness for C alone extends any model of the rest — so we
        probe a deterministic battery of assignments and drop C on success.
        This is how conditions like the paper's Section 2 example
        (``2*x1 < 2*x2`` with both sides otherwise unused) get decided
        during preprocessing instead of reaching the SAT solver.
        """
        rng = random.Random(0xF051)
        usage: dict[Term, int] = {}
        supports = [run.free_vars(c) for c in work]
        for support in supports:
            for var in support:
                usage[var] = usage.get(var, 0) + 1

        kept: list[Term] = []
        for constraint, support in zip(work, supports):
            if not support or any(usage[v] > 1 or self._is_protected(v)
                                  for v in support):
                kept.append(constraint)
                continue
            run.check_deadline()
            variables = sorted(support, key=lambda v: v.tid)
            witness = self._find_witness(constraint, variables, rng, attempts)
            if witness is None:
                kept.append(constraint)
                continue
            stats.probed += 1
            snapshot = dict(witness)

            def assign(model: dict[Term, int],
                       memo: dict[int, int],
                       w: dict[Term, int] = snapshot) -> None:
                model.update(w)

            completions.append(CompletionStep("probed witness", assign))
        return kept

    @staticmethod
    def _find_witness(constraint: Term, variables: list[Term],
                      rng: random.Random,
                      attempts: int) -> Optional[dict[Term, int]]:
        def domain_max(v: Term) -> int:
            return 1 if v.sort.is_bool else (1 << v.sort.width) - 1

        candidates: list[dict[Term, int]] = [
            {v: 0 for v in variables},
            {v: domain_max(v) for v in variables},
            {v: min(1, domain_max(v)) for v in variables},
            {v: (i % (domain_max(v) + 1)) for i, v in enumerate(variables)},
        ]
        for _ in range(attempts):
            candidates.append(
                {v: rng.randint(0, domain_max(v)) for v in variables})
        for env in candidates:
            if semantics.evaluate(constraint, env) == 1:
                return env
        return None

    def _unconstrained_step(
            self, node: Term,
            unconstrained: Callable[[Term], bool], run: _RunState
    ) -> Optional[tuple[Term, Term, CompletionStep]]:
        """If ``node`` is unconstrained because of an operand, build the
        replacement (node, fresh var, model-completion step)."""
        mgr = self.manager
        op = node.op

        if op in _INVERTIBLE_UNARY and unconstrained(node.args[0]):
            var = node.args[0]
            fresh = mgr.fresh_var(node.sort)

            def assign_unary(model: dict[Term, int],
                             memo: dict[int, int], v: Term = var,
                             f: Term = fresh, t: Term = node) -> None:
                out = model.get(f, 0)
                width = v.sort.width
                if t.op is Op.NOT:
                    model[v] = 1 - out
                elif t.op is Op.BVNOT:
                    model[v] = (~out) % (1 << width)
                else:  # BVNEG
                    model[v] = (-out) % (1 << width)

            return node, fresh, CompletionStep("unconstrained unary",
                                               assign_unary)

        if op in _INVERTIBLE_BINARY:
            for i in (0, 1):
                var = node.args[i]
                other = node.args[1 - i]
                if unconstrained(var) and var not in run.free_vars(other):
                    fresh = mgr.fresh_var(node.sort)

                    def assign_binary(model: dict[Term, int],
                                      memo: dict[int, int], v: Term = var,
                                      f: Term = fresh, o: Term = other,
                                      t: Term = node, idx: int = i) -> None:
                        out = model.get(f, 0)
                        oval = _eval_with_defaults(o, model, memo)
                        if t.op is Op.XOR:
                            model[v] = out ^ oval
                            return
                        width = v.sort.width
                        modulus = 1 << width
                        if t.op is Op.BVXOR:
                            model[v] = out ^ oval
                        elif t.op is Op.BVADD:
                            model[v] = (out - oval) % modulus
                        elif t.op is Op.BVSUB:
                            if idx == 0:  # v - o = out
                                model[v] = (out + oval) % modulus
                            else:        # o - v = out
                                model[v] = (oval - out) % modulus

                    return node, fresh, CompletionStep("unconstrained binary",
                                                       assign_binary)

        if op is Op.BVMUL:
            # v * c with odd constant c is invertible mod 2^w.
            for i in (0, 1):
                var = node.args[i]
                other = node.args[1 - i]
                if unconstrained(var) and other.op is Op.CONST \
                        and other.value % 2 == 1:
                    fresh = mgr.fresh_var(node.sort)
                    modulus = 1 << node.sort.width
                    inv = pow(other.value, -1, modulus)

                    def assign_mul(model: dict[Term, int],
                                   memo: dict[int, int], v: Term = var,
                                   f: Term = fresh, k: int = inv,
                                   m: int = modulus) -> None:
                        model[v] = (model.get(f, 0) * k) % m

                    return node, fresh, CompletionStep("unconstrained mul",
                                                       assign_mul)

        if op is Op.EQ:
            for i in (0, 1):
                var = node.args[i]
                other = node.args[1 - i]
                if unconstrained(var) and var not in run.free_vars(other):
                    fresh = mgr.fresh_var(node.sort)

                    def assign_eq(model: dict[Term, int],
                                  memo: dict[int, int], v: Term = var,
                                  f: Term = fresh, o: Term = other) -> None:
                        want = model.get(f, 0)
                        oval = _eval_with_defaults(o, model, memo)
                        if want:
                            model[v] = oval
                        elif v.sort.is_bool:
                            model[v] = 1 - oval
                        else:
                            model[v] = (oval + 1) % (1 << v.sort.width)

                    return node, fresh, CompletionStep("unconstrained eq",
                                                       assign_eq)

        if op in _COMPARISONS:
            lhs, rhs = node.args
            if unconstrained(lhs) and unconstrained(rhs) and lhs is not rhs:
                # Both sides free: the comparison can go either way.  This is
                # the paper's Section 2 example (c < d with c, d
                # unconstrained).
                fresh = mgr.fresh_var(node.sort)
                strict = node.op in (Op.ULT, Op.SLT)

                def assign_cmp(model: dict[Term, int],
                               memo: dict[int, int], a: Term = lhs,
                               b: Term = rhs, f: Term = fresh,
                               is_strict: bool = strict) -> None:
                    want = model.get(f, 0)
                    if is_strict:
                        model[a], model[b] = (0, 1) if want else (0, 0)
                    else:
                        model[a], model[b] = (0, 0) if want else (1, 0)

                return node, fresh, CompletionStep("unconstrained cmp",
                                                   assign_cmp)

        return None
