"""Per-loop path focusing: symbolic body execution + SAT pruning.

``summarize_loop`` executes one ``while`` loop's body symbolically over
hash-consed SMT terms (``repro.smt.terms``), forking at every ``if`` and
asking the in-house bit-blaster which iteration sequences are feasible.
The result is a :class:`SummaryRecipe`: merged exit values for every
variable the loop writes, plus the division "observables" the checkers
need, each under the exact disjunction of path guards it executes under.

The recipe is *bounded-semantics exact*: with exploration depth equal to
``loop_unroll`` and truncated frontier states exiting with their current
values, the recipe denotes precisely what ``loop_unroll``-bounded
unrolling denotes — minus infeasible paths (which denote nothing) and
constant-foldable arithmetic (which denotes the same value).

Design rules that keep checker verdicts aligned with the unrolled IR:

* **No identity folding.** Only all-constant applications, Boolean
  connectives with constant arguments, and trivial ``ite``s fold.  Folds
  like ``x + 0 -> x`` would change the *syntactic* value flow the taint
  and nullness checkers model, so they are off the table.
* **Division never folds.** Every ``/`` and ``%`` evaluation is recorded
  as an observable and re-emitted as a real IR statement under its path
  guard, so the div-by-zero checker sees the same sinks unrolling gives
  it (and a constant divisor is still a constant divisor).
* **Determinism.** Feasibility checks use a conflict limit only — never
  wall-clock — so the emitted IR is a pure function of the source and
  the configuration.  UNKNOWN counts as feasible (sound).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.lang import ast_nodes as ast
from repro.lang.ir import BinOp
from repro.smt.bitblast import BitBlaster
from repro.smt.semantics import evaluate
from repro.smt.terms import Op, Term, TermManager

#: Conflict budget per feasibility check.  Deliberately a conflict count,
#: not a time limit: lowering output must not depend on the wall clock.
SAT_CONFLICT_LIMIT = 512


class _Ineligible(Exception):
    """The loop cannot be summarized; fall back to unrolling."""


class _Overflow(Exception):
    """Feasible-path count exceeded ``loop_paths``; fall back."""


@dataclass
class LoopStats:
    """Counters for the telemetry ``loops`` section (schema /10)."""

    loops_summarized: int = 0
    paths_enumerated: int = 0
    fallback_unrolls: int = 0
    summary_cache_hits: int = 0
    sat_checks: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "loops_summarized": self.loops_summarized,
            "paths_enumerated": self.paths_enumerated,
            "fallback_unrolls": self.fallback_unrolls,
            "summary_cache_hits": self.summary_cache_hits,
            "sat_checks": self.sat_checks,
        }

    def add(self, other: "LoopStats") -> None:
        for name, value in other.as_dict().items():
            setattr(self, name, getattr(self, name) + value)


@dataclass
class SummaryRecipe:
    """Everything the emitter needs to splice one loop summary into IR.

    ``placeholders`` maps the term id of each opaque input variable to
    the variable it stands for, and ``outputs`` pairs each variable the
    loop writes with its exit value; the emitter substitutes the lowering
    environment's operand for every placeholder.  The cache stores
    recipes in canonical names (``v0``, ``v1``, ... as in
    :class:`LoopShape`) and hands out :meth:`renamed` copies, so one
    recipe serves every spelling of a loop shape, every unroll copy of an
    enclosing loop and every edit that only moves the loop.
    """

    placeholders: dict[int, str]
    outputs: list[tuple[str, Term]]
    observables: list[tuple[Term, Term]]
    paths: int

    def renamed(self, names: tuple[str, ...]) -> "SummaryRecipe":
        """This canonical recipe with each ``vK`` spelled ``names[K]``.

        Outputs come back sorted by surface name: the emitter numbers its
        ``%ls`` temporaries in output order and shares subterms across
        outputs, so this order keeps the IR independent of which spelling
        of the loop filled the cache.
        """
        surface = {f"v{k}": name for k, name in enumerate(names)}
        return SummaryRecipe(
            placeholders={tid: surface[name]
                          for tid, name in self.placeholders.items()},
            outputs=sorted(((surface[name], term)
                            for name, term in self.outputs),
                           key=lambda output: output[0]),
            observables=self.observables,
            paths=self.paths,
        )


#: Seed kinds: ("ci", value) / ("cb", value) for known integer / boolean
#: constants, ("v", "int"|"bool") for opaque inputs (including ``null``
#: constants, which must stay opaque so null value-flow survives), and
#: ``None`` for loop-locals, which are not seeded.
SeedKind = Optional[tuple]


class LoopShape(NamedTuple):
    """A loop up to a consistent renaming of its variables.

    ``key`` is the loop's s-expression with every identifier, read or
    assigned, spelled by its first-appearance number, so
    ``while (i < n) { i = i + 4; }`` and ``while (j < m) { j = j + 4; }``
    share one key.  ``names`` lists the surface identifiers in that
    order: ``names[K]`` is the variable the key calls ``vK``.
    """

    stmt: ast.WhileStmt
    key: str
    names: tuple[str, ...]


def loop_shape(stmt: ast.WhileStmt) -> Optional[LoopShape]:
    """One walk over ``stmt``; ``None`` means it always unrolls (bodies
    with calls, returns, nested loops, null literals or bare expression
    statements)."""
    numbers: dict[str, int] = {}

    def name(ident: str) -> str:
        return f"v{numbers.setdefault(ident, len(numbers))}"

    def expr(node: ast.Expr) -> str:
        if isinstance(node, ast.Name):
            return f"(n {name(node.ident)})"
        if isinstance(node, ast.IntLit):
            return f"(i {node.value})"
        if isinstance(node, ast.BoolLit):
            return f"(b {int(node.value)})"
        if isinstance(node, ast.UnaryExpr):
            return f"(u{node.op} {expr(node.operand)})"
        if isinstance(node, ast.BinExpr):
            return f"({node.op.value} {expr(node.lhs)} {expr(node.rhs)})"
        raise _Ineligible  # CallExpr, NullLit

    def block(stmts: list[ast.Statement]) -> str:
        parts = []
        for node in stmts:
            if isinstance(node, ast.AssignStmt):
                parts.append(f"(= {name(node.target)} {expr(node.value)})")
            elif isinstance(node, ast.IfStmt):
                parts.append(f"(if {expr(node.cond)} "
                             f"({block(node.then_body)}) "
                             f"({block(node.else_body)}))")
            else:  # WhileStmt, ReturnStmt, ExprStmt
                raise _Ineligible
        return " ".join(parts)

    try:
        key = f"(while {expr(stmt.cond)} ({block(stmt.body)}))"
    except _Ineligible:
        return None
    return LoopShape(stmt, key, tuple(numbers))


# --------------------------------------------------------------------- #
# Symbolic execution
# --------------------------------------------------------------------- #

class _PathState:
    __slots__ = ("env", "guard")

    def __init__(self, env: dict[str, Term], guard: Term) -> None:
        self.env = env
        self.guard = guard


class _Summarizer:
    """Explores one loop in canonical names: the state maps ``vK`` (see
    :class:`LoopShape`), so the recipe it builds fits every spelling."""

    def __init__(self, manager: TermManager, shape: LoopShape,
                 kinds: tuple[SeedKind, ...], width: int, depth: int,
                 loop_paths: int) -> None:
        self.mgr = manager
        self.stmt = shape.stmt
        self.canonical = {name: f"v{k}" for k, name in enumerate(shape.names)}
        self.width = width
        self.depth = depth
        self.loop_paths = loop_paths
        self.placeholders: dict[int, str] = {}
        self.seed_terms: dict[str, Term] = {}
        for name, kind in zip(self.canonical.values(), kinds):
            if kind is None:
                continue
            if kind[0] == "ci":
                term = manager.bv_const(kind[1], width)
            elif kind[0] == "cb":
                term = manager.bool_const(bool(kind[1]))
            elif kind[1] == "bool":
                term = manager.bool_var(f"%seed:{name}")
                self.placeholders[term.tid] = name
            else:
                term = manager.bv_var(f"%seed:{name}", width)
                self.placeholders[term.tid] = name
            self.seed_terms[name] = term
        # tid -> [div term, guard]; insertion order is emission order.
        self.observables: dict[int, list[Term]] = {}
        self.sat_checks = 0
        self._blaster: Optional[BitBlaster] = None
        self._feasible_memo: dict[int, bool] = {}

    # -- guard algebra (folds before interning) ------------------------ #

    def _and(self, a: Term, b: Term) -> Term:
        if a.op is Op.TRUE:
            return b
        if b.op is Op.TRUE:
            return a
        if a.op is Op.FALSE or b.op is Op.FALSE:
            return self.mgr.false
        return self.mgr.and_(a, b)

    def _or(self, a: Term, b: Term) -> Term:
        if a.op is Op.FALSE:
            return b
        if b.op is Op.FALSE:
            return a
        if a.op is Op.TRUE or b.op is Op.TRUE:
            return self.mgr.true
        return self.mgr.or_(a, b)

    def _not(self, a: Term) -> Term:
        if a.op is Op.TRUE:
            return self.mgr.false
        if a.op is Op.FALSE:
            return self.mgr.true
        return self.mgr.not_(a)

    # -- feasibility ---------------------------------------------------- #

    def _feasible(self, guard: Term) -> bool:
        if guard.op is Op.TRUE:
            return True
        if guard.op is Op.FALSE:
            return False
        cached = self._feasible_memo.get(guard.tid)
        if cached is not None:
            return cached
        if self._blaster is None:
            self._blaster = BitBlaster()
        self.sat_checks += 1
        result = self._blaster.solve(
            conflict_limit=SAT_CONFLICT_LIMIT,
            assumptions=[self._blaster.literal(guard)])
        feasible = not result.is_unsat  # UNKNOWN counts as feasible
        self._feasible_memo[guard.tid] = feasible
        return feasible

    # -- folding -------------------------------------------------------- #

    def _fold(self, term: Term) -> Term:
        op = term.op
        args = term.args
        if args and all(a.is_const for a in args):
            value = evaluate(term, {})
            if term.sort.is_bool:
                return self.mgr.bool_const(bool(value))
            return self.mgr.bv_const(value, term.sort.width)
        if op is Op.AND:
            if any(a.op is Op.FALSE for a in args):
                return self.mgr.false
            kept = tuple(a for a in args if a.op is not Op.TRUE)
            if len(kept) != len(args):
                return self.mgr.and_(*kept)
            return term
        if op is Op.OR:
            if any(a.op is Op.TRUE for a in args):
                return self.mgr.true
            kept = tuple(a for a in args if a.op is not Op.FALSE)
            if len(kept) != len(args):
                return self.mgr.or_(*kept)
            return term
        if op is Op.ITE:
            cond, then, other = args
            if cond.op is Op.TRUE:
                return then
            if cond.op is Op.FALSE:
                return other
            if then.tid == other.tid:
                return then
        return term

    # -- expression evaluation ------------------------------------------ #

    def _eval(self, expr: ast.Expr, state: _PathState) -> Term:
        mgr = self.mgr
        if isinstance(expr, ast.IntLit):
            return mgr.bv_const(expr.value, self.width)
        if isinstance(expr, ast.BoolLit):
            return mgr.bool_const(expr.value)
        if isinstance(expr, ast.Name):
            term = state.env.get(self.canonical[expr.ident])
            if term is None:
                raise _Ineligible  # the unroll fallback reports the error
            return term
        if isinstance(expr, ast.UnaryExpr):
            inner = self._eval(expr.operand, state)
            if expr.op == "-":
                if not inner.sort.is_bv:
                    raise _Ineligible
                return self._fold(
                    mgr.bvsub(mgr.bv_const(0, self.width), inner))
            if not inner.sort.is_bool:
                raise _Ineligible
            return self._fold(mgr.eq(inner, mgr.false))
        if isinstance(expr, ast.BinExpr):
            lhs = self._eval(expr.lhs, state)
            rhs = self._eval(expr.rhs, state)
            return self._binary(expr.op, lhs, rhs, state)
        raise _Ineligible

    def _binary(self, op: BinOp, lhs: Term, rhs: Term,
                state: _PathState) -> Term:
        mgr = self.mgr
        if op.is_logical:
            if not (lhs.sort.is_bool and rhs.sort.is_bool):
                raise _Ineligible
            build = mgr.and_ if op is BinOp.AND else mgr.or_
            return self._fold(build(lhs, rhs))
        if op in (BinOp.EQ, BinOp.NE):
            if lhs.sort != rhs.sort:
                raise _Ineligible
            term = mgr.eq(lhs, rhs)
            if op is BinOp.NE:
                return self._fold(mgr.not_(self._fold(term)))
            return self._fold(term)
        if not (lhs.sort.is_bv and rhs.sort.is_bv):
            raise _Ineligible
        if op in (BinOp.DIV, BinOp.REM):
            build = mgr.bvudiv if op is BinOp.DIV else mgr.bvurem
            term = build(lhs, rhs)
            # Divisions never fold: record as an observable under the
            # current path guard (OR-widened if the same division is
            # reached on several paths) so the checker sink survives.
            entry = self.observables.get(term.tid)
            if entry is None:
                self.observables[term.tid] = [term, state.guard]
            else:
                entry[1] = self._or(entry[1], state.guard)
            return term
        builders = {
            BinOp.ADD: mgr.bvadd, BinOp.SUB: mgr.bvsub,
            BinOp.MUL: mgr.bvmul, BinOp.SHL: mgr.bvshl,
            BinOp.SHR: mgr.bvlshr, BinOp.BAND: mgr.bvand,
            BinOp.BOR: mgr.bvor, BinOp.BXOR: mgr.bvxor,
            BinOp.LT: mgr.lt, BinOp.LE: mgr.le,
            BinOp.GT: mgr.gt, BinOp.GE: mgr.ge,
        }
        return self._fold(builders[op](lhs, rhs))

    # -- statement execution (forks at ifs) ----------------------------- #

    def _run_block(self, block: list[ast.Statement],
                   states: list[_PathState]) -> list[_PathState]:
        for stmt in block:
            if isinstance(stmt, ast.AssignStmt):
                for state in states:
                    state.env[self.canonical[stmt.target]] = \
                        self._eval(stmt.value, state)
                continue
            if not isinstance(stmt, ast.IfStmt):
                raise _Ineligible
            next_states: list[_PathState] = []
            for state in states:
                cond = self._eval(stmt.cond, state)
                if not cond.sort.is_bool:
                    raise _Ineligible
                if cond.op is Op.TRUE:
                    next_states.extend(
                        self._run_block(stmt.then_body, [state]))
                    continue
                if cond.op is Op.FALSE:
                    next_states.extend(
                        self._run_block(stmt.else_body, [state]))
                    continue
                then_guard = self._and(state.guard, cond)
                else_guard = self._and(state.guard, self._not(cond))
                if self._feasible(then_guard):
                    fork = _PathState(dict(state.env), then_guard)
                    next_states.extend(
                        self._run_block(stmt.then_body, [fork]))
                if self._feasible(else_guard):
                    fork = _PathState(dict(state.env), else_guard)
                    next_states.extend(
                        self._run_block(stmt.else_body, [fork]))
            states = next_states
            if len(states) > self.loop_paths:
                raise _Overflow
        return states

    # -- exploration ----------------------------------------------------- #

    def run(self) -> Optional[SummaryRecipe]:
        mgr = self.mgr
        try:
            frontier = [_PathState(dict(self.seed_terms), mgr.true)]
            exits: list[tuple[Term, dict[str, Term]]] = []
            for _ in range(self.depth):
                if not frontier:
                    break
                next_frontier: list[_PathState] = []
                for state in frontier:
                    cond = self._eval(self.stmt.cond, state)
                    if not cond.sort.is_bool:
                        raise _Ineligible
                    if cond.op is Op.FALSE:
                        exits.append((state.guard, state.env))
                    elif cond.op is Op.TRUE:
                        next_frontier.extend(
                            self._run_block(self.stmt.body, [state]))
                    else:
                        exit_guard = self._and(state.guard, self._not(cond))
                        if self._feasible(exit_guard):
                            exits.append((exit_guard, dict(state.env)))
                        cont_guard = self._and(state.guard, cond)
                        if self._feasible(cont_guard):
                            fork = _PathState(dict(state.env), cont_guard)
                            next_frontier.extend(
                                self._run_block(self.stmt.body, [fork]))
                    if len(exits) + len(next_frontier) > self.loop_paths:
                        raise _Overflow
                frontier = next_frontier
            # Truncated frontier: states still running after `depth`
            # iterations exit with their current values, exactly like a
            # truncated unroll.
            exits.extend((state.guard, state.env) for state in frontier)
            if not exits or len(exits) > self.loop_paths:
                return None
        except (_Ineligible, _Overflow):
            return None
        except (TypeError, KeyError):
            # Sort/type mismatches surface as proper LoweringErrors on
            # the unroll fallback path.
            return None

        outputs: list[tuple[str, Term]] = []
        for name, seed in self.seed_terms.items():
            if all(env.get(name) is seed for _, env in exits):
                continue  # not written on any path
            merged = exits[-1][1][name]
            for guard, env in reversed(exits[:-1]):
                merged = self._fold(self.mgr.ite(guard, env[name], merged))
            outputs.append((name, merged))
        return SummaryRecipe(
            placeholders=self.placeholders,
            outputs=outputs,
            observables=[(entry[0], entry[1])
                         for entry in self.observables.values()],
            paths=len(exits),
        )


def summarize_loop(manager: TermManager, shape: LoopShape,
                   kinds: tuple[SeedKind, ...], *, width: int, depth: int,
                   loop_paths: int) -> tuple[Optional[SummaryRecipe], int]:
    """Summarize one loop in canonical names: (recipe, SAT checks run).
    A ``None`` recipe means "fall back to unrolling"; ``kinds[K]`` seeds
    ``shape.names[K]``."""
    summarizer = _Summarizer(manager, shape, kinds, width, depth, loop_paths)
    return summarizer.run(), summarizer.sat_checks


class SummaryCache:
    """Per-session recipe cache, hot across edits.

    Keys hold the loop's alpha-canonical shape (:class:`LoopShape`), the
    *kinds* of its seeds by canonical name (constant values matter, since
    they fold trip counts; variable spellings do not), and the
    ``(width, depth, loop_paths)`` configuration.  So a loop shape is
    explored once however its variables are spelled, after unrelated
    edits, across unroll copies of an enclosing loop, and across tenants
    sharing a session.  Failed summarizations are cached too (negative
    entries).  Recipes are stored in canonical names; every return maps
    them back to the caller's names (:meth:`SummaryRecipe.renamed`).
    """

    def __init__(self) -> None:
        self.manager = TermManager()
        self._entries: dict[tuple, Optional[SummaryRecipe]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def summarize(self, shape: LoopShape, kinds: tuple[SeedKind, ...],
                  *, width: int, depth: int, loop_paths: int,
                  stats: Optional[LoopStats] = None
                  ) -> Optional[SummaryRecipe]:
        """The recipe for ``shape`` in its surface names, or ``None``;
        ``kinds[K]`` seeds ``shape.names[K]``."""
        key = (shape.key, kinds, width, depth, loop_paths)
        with self._lock:
            if key in self._entries:
                self.hits += 1
                if stats is not None:
                    stats.summary_cache_hits += 1
                recipe = self._entries[key]
            else:
                self.misses += 1
                recipe, sat_checks = summarize_loop(
                    self.manager, shape, kinds, width=width, depth=depth,
                    loop_paths=loop_paths)
                self._entries[key] = recipe
                if stats is not None:
                    stats.sat_checks += sat_checks
                    if recipe is not None:
                        stats.paths_enumerated += recipe.paths
        return None if recipe is None else recipe.renamed(shape.names)
