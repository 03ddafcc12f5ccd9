"""Lowering: surface AST -> normalized gated-SSA IR (Figure 4 language).

The pipeline applies, in one pass over the structured AST:

* **Bounded loop unrolling** — ``while`` loops become ``k`` nested ``if``
  statements ("we often unroll loops for a fixed number of times in
  practice", Section 3.1).  Iterations beyond the bound are dropped, the
  usual bounded-model-checking soundiness trade-off.
* **Expression flattening** — expression trees become three-address
  ``Binary``/``Call``/``Assign`` statements over fresh SSA temporaries.
* **Gated SSA construction** — every variable assigned under an ``if`` is
  merged at the join with an explicit ``v = ite(c, v_then, v_else)``
  statement, the paper's replacement for φ-assignments.  ``else`` bodies
  are desugared into a second branch guarded by the negated condition, so
  control dependence follows Definition 3.1 verbatim (a statement is
  control-dependent on the branch whose condition must be *true*).
* **Early-return predication** — internal ``%retflag``/``%retval``
  variables thread the "already returned" state through the gated-SSA
  machinery; statements following a possibly-returning ``if`` are wrapped
  in an ``if (!%retflag)`` guard so calls after an early return stay
  properly control-dependent.  Each function ends in the single ``Return``
  the paper's language requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.collector import paused
from repro.lang import ast_nodes as ast
from repro.lang.ir import (Assign, Binary, BinOp, Branch, Call, Const,
                           Function, IfThenElse, Identity, Operand, Program,
                           Return, Stmt, Var, VarType)

RETFLAG = "%retflag"
RETVAL = "%retval"


class LoweringError(Exception):
    """A type or scoping error found while lowering the surface AST."""
    def __init__(self, message: str, loc: ast.SourceLoc) -> None:
        super().__init__(f"{loc}: {message}")
        self.loc = loc


@dataclass
class LoweringConfig:
    """Front-end knobs.

    ``loop_unroll`` is the fixed iteration bound; ``width`` the bit width
    of integer variables (kept small by default so pure-Python
    bit-blasting stays tractable — the paper uses the native 32).

    ``loop_strategy`` picks how ``while`` loops reach the IR:

    * ``"summaries"`` (default) — solver-driven path focusing: each
      loop becomes one compact summary region covering exactly the
      feasible iteration sequences up to ``loop_unroll``, bounded by
      ``loop_paths`` feasible paths per loop (see ``repro.loops``).
      Loops the summarizer cannot handle exactly fall back to
      unrolling, per loop.
    * ``"unroll"`` — classic bounded unrolling into nested ``if``s.

    ``summary_cache`` optionally shares a ``repro.loops.SummaryCache``
    across compilations (hot daemon sessions); when ``None`` a
    per-module cache is used so unroll copies of inner loops still hit.
    """

    loop_unroll: int = 2
    width: int = 8
    loop_strategy: str = "summaries"
    loop_paths: int = 64
    summary_cache: Optional[object] = None


def lower_module(module: ast.Module,
                 config: Optional[LoweringConfig] = None) -> Program:
    """Lower a parsed module to an IR :class:`Program` (building its PDG
    validates it)."""
    config = config if config is not None else LoweringConfig()
    from repro.loops import LOOP_STRATEGIES, LoopStats, SummaryCache
    if config.loop_strategy not in LOOP_STRATEGIES:
        raise ValueError(f"unknown loop strategy {config.loop_strategy!r}")
    loop_stats = LoopStats()
    summary_cache = config.summary_cache
    if summary_cache is None and config.loop_strategy == "summaries":
        summary_cache = SummaryCache()
    return_types = infer_return_types(
        [(decl.name, return_summary(decl)) for decl in module.functions])
    signatures = {decl.name: (return_types[decl.name], len(decl.params))
                  for decl in module.functions}
    program = Program(width=config.width)
    program.externs.update(decl.name for decl in module.externs)

    for decl in module.functions:
        lowering = _FunctionLowering(decl, config, signatures,
                                     program.externs,
                                     summary_cache=summary_cache,
                                     loop_stats=loop_stats)
        program.add(lowering.run())
    program.loop_stats = loop_stats
    program.loop_strategy = config.loop_strategy
    program.loop_paths = config.loop_paths
    return program


class ReturnSummary(NamedTuple):
    """What a function's return type depends on: whether some ``return``
    value is boolean by its own shape, and the callees whose results are
    returned directly (their types decide the rest)."""

    boolean: bool
    returned_calls: tuple[str, ...]


def return_summary(decl: ast.FunctionDecl) -> ReturnSummary:
    """The :class:`ReturnSummary` of one parsed function."""
    boolean = False
    calls: list[str] = []
    for value in _returned_values(decl.body):
        if isinstance(value, ast.CallExpr):
            calls.append(value.callee)
        elif _shape_type(value) is VarType.BOOL:
            boolean = True
    return ReturnSummary(boolean, tuple(calls))


def _returned_values(stmts: list[ast.Statement]):
    for stmt in stmts:
        if isinstance(stmt, ast.ReturnStmt) and stmt.value is not None:
            yield stmt.value
        elif isinstance(stmt, ast.IfStmt):
            yield from _returned_values(stmt.then_body)
            yield from _returned_values(stmt.else_body)
        elif isinstance(stmt, ast.WhileStmt):
            yield from _returned_values(stmt.body)


def _shape_type(expr: ast.Expr) -> VarType:
    """The type of a non-call expression from its outermost node."""
    if isinstance(expr, ast.BoolLit):
        return VarType.BOOL
    if isinstance(expr, ast.UnaryExpr):
        return VarType.BOOL if expr.op == "!" else VarType.INT
    if isinstance(expr, ast.BinExpr):
        return expr.op.result_type()
    return VarType.INT  # literals; names are approximated, lowering re-checks


def infer_return_types(summaries: list[tuple[str, ReturnSummary]]
                       ) -> dict[str, VarType]:
    """Fixpoint inference of each function's return type (INT default)
    from per-function summaries, in declaration order."""
    types: dict[str, VarType] = {name: VarType.INT for name, _ in summaries}
    for _ in range(len(summaries) + 1):
        changed = False
        for name, summary in summaries:
            inferred = VarType.BOOL if summary.boolean or any(
                types.get(callee) is VarType.BOOL
                for callee in summary.returned_calls) else VarType.INT
            if types[name] is not inferred:
                types[name] = inferred
                changed = True
        if not changed:
            break
    return types


class _FunctionLowering:
    def __init__(self, decl: ast.FunctionDecl, config: LoweringConfig,
                 signatures: dict[str, tuple[VarType, int]],
                 externs: set[str], summary_cache: Optional[object] = None,
                 loop_stats: Optional[object] = None) -> None:
        self.decl = decl
        self.config = config
        #: Each defined function's (return type, arity).
        self.signatures = signatures
        self.externs = externs
        self.summary_cache = summary_cache
        self.loop_stats = loop_stats
        self._versions: dict[str, int] = {}
        self._env: dict[str, Operand] = {}
        self._out: list[Stmt] = []
        # SSA names provably bound to literal constants; lets the loop
        # summarizer seed induction variables with their values so trip
        # counts fold and PDG size stays independent of the unroll bound.
        self._const_defs: dict[str, Const] = {}
        #: Every callee the lowering read, in first-call order, with the
        #: signature it used (None: not defined here, so an extern).
        self.callees: dict[str, Optional[tuple[VarType, int]]] = {}
        #: Loops looked up in the summary cache.
        self.summary_lookups = 0

    # ------------------------------------------------------------------ #
    # Naming
    # ------------------------------------------------------------------ #

    def _fresh(self, base: str, vtype: VarType) -> Var:
        n = self._versions.get(base, 0)
        self._versions[base] = n + 1
        name = base if n == 0 else f"{base}.{n}"
        return Var(name, vtype)

    # ------------------------------------------------------------------ #
    # Entry
    # ------------------------------------------------------------------ #

    def run(self) -> Function:
        params = tuple(Var(p, VarType.INT) for p in self.decl.params)
        for param in params:
            self._versions[param.name] = 1
            self._env[param.name] = param
            self._out.append(Identity(param))
        self._env[RETFLAG] = Const(0, VarType.BOOL)
        self._env[RETVAL] = Const(0, VarType.INT)

        self._lower_block(self.decl.body, self._out)

        retval = self._env[RETVAL]
        ret_var = self._fresh("%ret", _op_type(retval))
        self._out.append(Return(ret_var, retval))
        return Function(self.decl.name, params, self._out)

    # ------------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------------ #

    def _lower_block(self, stmts: list[ast.Statement],
                     out: list[Stmt]) -> None:
        for i, stmt in enumerate(stmts):
            if isinstance(stmt, ast.ReturnStmt):
                self._lower_return(stmt, out)
                return  # following statements are dead
            if isinstance(stmt, ast.WhileStmt):
                if self.config.loop_unroll <= 0:
                    continue  # bound 0 drops loops under either strategy
                if (self.config.loop_strategy == "summaries"
                        and self._try_summarize_while(stmt, out)):
                    continue
                if not _block_has_return(stmt.body):
                    # Fully iterative lowering: no recursion per unroll
                    # level, so large bounds cannot blow the stack.
                    self._lower_unrolled_while(stmt, out)
                    continue
                # Bodies with early returns reuse the retflag machinery
                # of the if-lowering path below.
                stmt = self._unroll(stmt, self.config.loop_unroll)
            if isinstance(stmt, ast.IfStmt):
                flag_before = self._env[RETFLAG]
                self._lower_if(stmt, out)
                flag_after = self._env[RETFLAG]
                rest = stmts[i + 1:]
                if rest and flag_after is not flag_before:
                    if _is_static_true(flag_after):
                        return  # every path has returned
                    # Guard the remainder: it only runs if no branch
                    # returned.  Reuses the if-lowering machinery so all
                    # assignments in the remainder merge correctly.
                    guard = ast.UnaryExpr("!", ast.Name(RETFLAG, stmt.loc),
                                          stmt.loc)
                    self._lower_if(ast.IfStmt(guard, rest, [], stmt.loc), out)
                    return
                continue
            if isinstance(stmt, ast.AssignStmt):
                self._lower_assign(stmt, out)
            elif isinstance(stmt, ast.ExprStmt):
                self._flatten(stmt.expr, out)
            else:
                raise LoweringError(
                    f"unsupported statement {type(stmt).__name__}", stmt.loc)

    def _unroll(self, stmt: ast.WhileStmt,
                depth: int) -> Optional[ast.IfStmt]:
        """``while (c) S`` -> ``if (c) { S; if (c) { S; ... } }``.

        Built inside-out iteratively: the unroll bound is user-facing
        (``--unroll``) and must not be capped by the Python stack.
        """
        inner: Optional[ast.IfStmt] = None
        for _ in range(depth):
            body = list(stmt.body) + ([inner] if inner is not None else [])
            inner = ast.IfStmt(stmt.cond, body, [], stmt.loc)
        return inner

    def _try_summarize_while(self, stmt: ast.WhileStmt,
                             out: list[Stmt]) -> bool:
        """Lower ``stmt`` as a solver-driven summary; False = fall back."""
        from repro import loops

        stats = self.loop_stats
        shape = loops.loop_shape(stmt)
        if shape is None:
            if stats is not None:
                stats.fallback_unrolls += 1
            return False
        kinds = tuple(self._seed_kind(name) for name in shape.names)
        cache = self.summary_cache
        if cache is None:
            from repro.loops import SummaryCache
            cache = self.summary_cache = SummaryCache()
        recipe = cache.summarize(shape, kinds,
                                 width=self.config.width,
                                 depth=self.config.loop_unroll,
                                 loop_paths=self.config.loop_paths,
                                 stats=stats)
        self.summary_lookups += 1
        if recipe is None:
            if stats is not None:
                stats.fallback_unrolls += 1
            return False
        bindings = loops.emit_summary(recipe, self._env, self._fresh, out)
        self._env.update(bindings)
        if stats is not None:
            stats.loops_summarized += 1
        return True

    def _seed_kind(self, name: str) -> Optional[tuple]:
        """How the loop summarizer seeds ``name`` (a ``SeedKind``)."""
        operand = self._env.get(name)
        if operand is None:
            return None  # loop-local; reads-before-def fail over to unroll
        const = operand if isinstance(operand, Const) else \
            self._const_defs.get(operand.name)
        if const is not None and not const.is_null:
            return ("cb" if const.type is VarType.BOOL else "ci", const.value)
        return ("v", "bool" if _op_type(operand) is VarType.BOOL else "int")

    def _lower_unrolled_while(self, stmt: ast.WhileStmt,
                              out: list[Stmt]) -> None:
        """Iteratively lower a return-free ``while`` as nested ``if``s.

        Produces statement-for-statement the same IR as lowering the
        nested :meth:`_unroll` expansion recursively, but with constant
        stack depth: conditions and bodies are lowered outside-in, then
        the ``Branch``/merge pairs are closed inside-out.
        """
        frames: list[tuple[Operand, dict[str, Operand], list[Stmt],
                           list[Stmt]]] = []
        current_out = out
        for _ in range(self.config.loop_unroll):
            cond = self._flatten(stmt.cond, current_out)
            if _op_type(cond) is not VarType.BOOL:
                raise LoweringError("branch condition must be boolean",
                                    stmt.loc)
            outer_env = dict(self._env)
            then_out: list[Stmt] = []
            frames.append((cond, outer_env, then_out, current_out))
            self._lower_block(stmt.body, then_out)
            current_out = then_out
        for cond, outer_env, then_out, parent_out in reversed(frames):
            self._close_branch(cond, outer_env, self._env, then_out,
                               dict(outer_env), [], parent_out, stmt.loc)

    def _lower_assign(self, stmt: ast.AssignStmt, out: list[Stmt]) -> None:
        if stmt.target.startswith("%"):
            raise LoweringError("identifiers may not start with '%'",
                                stmt.loc)
        operand = self._flatten(stmt.value, out, name_hint=stmt.target)
        if isinstance(operand, Var) and operand.name.startswith(stmt.target) \
                and out and out[-1].result == operand:
            # The flattener already named the defining statement after the
            # target; no extra copy needed.
            self._env[stmt.target] = operand
            return
        target = self._fresh(stmt.target, _op_type(operand))
        out.append(Assign(target, operand))
        if isinstance(operand, Const):
            # SSA: `target` has exactly this one definition, so the loop
            # summarizer may seed it with the literal value.
            self._const_defs[target.name] = operand
        self._env[stmt.target] = target

    def _lower_return(self, stmt: ast.ReturnStmt, out: list[Stmt]) -> None:
        value = self._flatten(stmt.value, out) if stmt.value is not None \
            else Const(0, VarType.INT)
        flag = self._env[RETFLAG]
        if _is_static_true(flag):
            return  # unreachable return
        if _is_static_false(flag):
            target = self._fresh("%rv", _op_type(value))
            out.append(Assign(target, value))
            self._env[RETVAL] = target
        else:
            old = self._env[RETVAL]
            if _op_type(old) is not _op_type(value):
                raise LoweringError(
                    "function mixes int and bool return values", stmt.loc)
            target = self._fresh("%rv", _op_type(value))
            out.append(IfThenElse(target, flag, old, value))
            self._env[RETVAL] = target
        self._env[RETFLAG] = Const(1, VarType.BOOL)

    def _lower_if(self, stmt: ast.IfStmt, out: list[Stmt]) -> None:
        cond = self._flatten(stmt.cond, out)
        if _op_type(cond) is not VarType.BOOL:
            raise LoweringError("branch condition must be boolean", stmt.loc)
        outer_env = dict(self._env)

        # Then branch.
        then_out: list[Stmt] = []
        self._lower_block(stmt.then_body, then_out)
        then_env = self._env

        # Else branch starts from the outer environment.
        self._env = dict(outer_env)
        else_out: list[Stmt] = []
        self._lower_block(stmt.else_body, else_out)
        else_env = self._env

        self._close_branch(cond, outer_env, then_env, then_out, else_env,
                           else_out, out, stmt.loc)

    def _close_branch(self, cond: Operand, outer_env: dict[str, Operand],
                      then_env: dict[str, Operand], then_out: list[Stmt],
                      else_env: dict[str, Operand], else_out: list[Stmt],
                      out: list[Stmt], loc: ast.SourceLoc) -> None:
        if then_out:
            out.append(Branch(self._fresh("%br", VarType.BOOL), cond,
                              then_out))
        if else_out:
            neg = self._fresh("%not", VarType.BOOL)
            out.append(Binary(neg, BinOp.EQ, cond, Const(0, VarType.BOOL)))
            out.append(Branch(self._fresh("%br", VarType.BOOL), neg,
                              else_out))

        # Merge: names visible after the if are those bound before it, plus
        # names bound in *both* branches; branch-local names go out of
        # scope at the join.
        merged: dict[str, Operand] = {}
        for name in set(then_env) | set(else_env):
            then_val = then_env.get(name, outer_env.get(name))
            else_val = else_env.get(name, outer_env.get(name))
            if then_val is None or else_val is None:
                continue
            if then_val == else_val:
                merged[name] = then_val
                continue
            if _op_type(then_val) is not _op_type(else_val):
                raise LoweringError(
                    f"variable {name} has inconsistent types across "
                    f"branches", loc)
            join = self._fresh(name if not name.startswith("%") else "%phi",
                               _op_type(then_val))
            out.append(IfThenElse(join, cond, then_val, else_val))
            merged[name] = join
        self._env = merged

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #

    def _flatten(self, expr: ast.Expr, out: list[Stmt],
                 name_hint: Optional[str] = None) -> Operand:
        if isinstance(expr, ast.IntLit):
            return Const(expr.value % (1 << self.config.width), VarType.INT)
        if isinstance(expr, ast.BoolLit):
            return Const(1 if expr.value else 0, VarType.BOOL)
        if isinstance(expr, ast.NullLit):
            return Const(0, VarType.INT, is_null=True)
        if isinstance(expr, ast.Name):
            operand = self._env.get(expr.ident)
            if operand is None:
                raise LoweringError(f"undefined variable {expr.ident}",
                                    expr.loc)
            return operand
        if isinstance(expr, ast.UnaryExpr):
            inner = self._flatten(expr.operand, out)
            if expr.op == "-":
                if _op_type(inner) is not VarType.INT:
                    raise LoweringError("unary '-' needs an integer",
                                        expr.loc)
                result = self._fresh(name_hint or "%t", VarType.INT)
                out.append(Binary(result, BinOp.SUB,
                                  Const(0, VarType.INT), inner))
                return result
            if _op_type(inner) is not VarType.BOOL:
                raise LoweringError("'!' needs a boolean", expr.loc)
            result = self._fresh(name_hint or "%t", VarType.BOOL)
            out.append(Binary(result, BinOp.EQ, inner,
                              Const(0, VarType.BOOL)))
            return result
        if isinstance(expr, ast.BinExpr):
            lhs = self._flatten(expr.lhs, out)
            rhs = self._flatten(expr.rhs, out)
            self._check_binop(expr, lhs, rhs)
            result = self._fresh(name_hint or "%t", expr.op.result_type())
            out.append(Binary(result, expr.op, lhs, rhs))
            return result
        if isinstance(expr, ast.CallExpr):
            args = tuple(self._flatten(a, out) for a in expr.args)
            for arg in args:
                if _op_type(arg) is not VarType.INT:
                    raise LoweringError(
                        f"call to {expr.callee}: arguments must be integers",
                        expr.loc)
            signature = self.signatures.get(expr.callee)
            if signature is not None:
                rtype, arity = signature
                if len(args) != arity:
                    raise LoweringError(
                        f"call to {expr.callee} with {len(args)} args, "
                        f"expected {arity}", expr.loc)
            else:
                self.externs.add(expr.callee)
                rtype = VarType.INT
            self.callees.setdefault(expr.callee, signature)
            result = self._fresh(name_hint or "%t", rtype)
            out.append(Call(result, expr.callee, args))
            return result
        raise LoweringError(f"unsupported expression {type(expr).__name__}",
                            getattr(expr, "loc", ast.SourceLoc(0, 0)))

    def _check_binop(self, expr: ast.BinExpr, lhs: Operand,
                     rhs: Operand) -> None:
        lt, rt = _op_type(lhs), _op_type(rhs)
        op = expr.op
        if op.is_logical:
            if lt is not VarType.BOOL or rt is not VarType.BOOL:
                raise LoweringError(f"'{op.value}' needs booleans", expr.loc)
        elif op in (BinOp.EQ, BinOp.NE):
            if lt is not rt:
                raise LoweringError(
                    f"'{op.value}' on mismatched types", expr.loc)
        else:
            if lt is not VarType.INT or rt is not VarType.INT:
                raise LoweringError(f"'{op.value}' needs integers", expr.loc)


def _block_has_return(stmts: list[ast.Statement]) -> bool:
    for stmt in stmts:
        if isinstance(stmt, ast.ReturnStmt):
            return True
        if isinstance(stmt, ast.IfStmt):
            if _block_has_return(stmt.then_body) \
                    or _block_has_return(stmt.else_body):
                return True
        elif isinstance(stmt, ast.WhileStmt):
            if _block_has_return(stmt.body):
                return True
    return False


def _op_type(operand: Operand) -> VarType:
    return operand.type


def _is_static_true(operand: Operand) -> bool:
    return isinstance(operand, Const) and operand.type is VarType.BOOL \
        and operand.value == 1


def _is_static_false(operand: Operand) -> bool:
    return isinstance(operand, Const) and operand.type is VarType.BOOL \
        and operand.value == 0


@paused
def compile_source(source: str,
                   config: Optional[LoweringConfig] = None) -> Program:
    """Parse and lower surface source text in one step."""
    from repro.lang.parser import parse

    return lower_module(parse(source), config)
