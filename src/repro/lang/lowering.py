"""Lowering: surface AST -> normalized gated-SSA IR (Figure 4 language).

The pipeline applies, in one pass over the structured AST:

* **Bounded loop unrolling** — ``while`` loops become ``k`` nested ``if``
  statements ("we often unroll loops for a fixed number of times in
  practice", Section 3.1).  Iterations beyond the bound are dropped, the
  usual bounded-model-checking soundiness trade-off; at ``k = 0`` every
  loop is dropped.  This is the only loop lowering (docs/loops.md).
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

# Enum members as module globals.  On Python 3.11 a ``VarType.X``
# lookup takes the metaclass's slow attribute path (``EnumType`` defines
# ``__getattr__``), and lowering tests types several times per statement.
_INT, _BOOL = VarType.INT, VarType.BOOL
_EQ, _NE, _SUB = BinOp.EQ, BinOp.NE, BinOp.SUB

# Operands are immutable, so every lowering shares one object per
# constant instead of building a frozen ``Const`` per use.
FALSE = Const(0, _BOOL)
TRUE = Const(1, _BOOL)
ZERO = Const(0, _INT)
NULL = Const(0, _INT, is_null=True)
#: Integer literals below 256 by wrapped value: every value at the
#: default 8-bit width.
_SMALL_INTS = (ZERO, *(Const(value, _INT) for value in range(1, 256)))


class LoweringError(Exception):
    """A type or scoping error found while lowering the surface AST."""
    def __init__(self, message: str, loc: ast.SourceLoc) -> None:
        super().__init__(f"{loc}: {message}")
        self.loc = loc


@dataclass
class LoweringConfig:
    """Front-end knobs.

    ``loop_unroll`` is the fixed iteration bound (0 drops every loop);
    ``width`` the bit width of integer variables (kept small by default
    so pure-Python bit-blasting stays tractable — the paper uses the
    native 32).
    """

    loop_unroll: int = 2
    width: int = 8

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(
                f"bit-vector width must be positive, got {self.width}")
        if self.loop_unroll < 0:
            raise ValueError(
                f"unroll bound must not be negative, got {self.loop_unroll}")


def lower_module(module: ast.Module,
                 config: Optional[LoweringConfig] = None) -> Program:
    """Lower a parsed module to an IR :class:`Program` (building its PDG
    validates it)."""
    config = config if config is not None else LoweringConfig()
    return_types = infer_return_types(
        [(decl.name, return_summary(decl)) for decl in module.functions])
    signatures = {decl.name: (return_types[decl.name], len(decl.params))
                  for decl in module.functions}
    program = Program(width=config.width)
    program.externs.update(decl.name for decl in module.externs)

    for decl in module.functions:
        lowering = _FunctionLowering(decl, config, signatures,
                                     program.externs)
        program.add(lowering.run())
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
                 externs: set[str]) -> None:
        self.decl = decl
        self.config = config
        #: Each defined function's (return type, arity).
        self.signatures = signatures
        self.externs = externs
        self._versions: dict[str, int] = {}
        self._env: dict[str, Operand] = {}
        self._out: list[Stmt] = []
        #: Every callee the lowering read, in first-call order, with the
        #: signature it used (None: not defined here, so an extern).
        self.callees: dict[str, Optional[tuple[VarType, int]]] = {}

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
        params = tuple(Var(p, _INT) for p in self.decl.params)
        for param in params:
            self._versions[param.name] = 1
            self._env[param.name] = param
            self._out.append(Identity(param))
        self._env[RETFLAG] = FALSE
        self._env[RETVAL] = ZERO

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
                if self.config.loop_unroll == 0:
                    continue  # bound 0 drops every loop
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
            if _op_type(cond) is not _BOOL:
                raise LoweringError("branch condition must be boolean",
                                    stmt.loc)
            outer_env = dict(self._env)
            then_out: list[Stmt] = []
            frames.append((cond, outer_env, then_out, current_out))
            self._lower_block(stmt.body, then_out)
            current_out = then_out
        for cond, outer_env, then_out, parent_out in reversed(frames):
            self._close_branch(cond, self._env, then_out, outer_env, [],
                               parent_out, stmt.loc)

    def _lower_assign(self, stmt: ast.AssignStmt, out: list[Stmt]) -> None:
        if stmt.target.startswith("%"):
            raise LoweringError("identifiers may not start with '%'",
                                stmt.loc)
        operand = self._flatten(stmt.value, out, name_hint=stmt.target)
        if isinstance(operand, Var) and out and out[-1].result == operand \
                and (operand.name == stmt.target
                     or operand.name.startswith(stmt.target + ".")):
            # The flattener already named the defining statement after the
            # target (``x`` or ``x.N``); no extra copy needed.  A name
            # that only starts with the target (``xs``) is another
            # variable, which still gets its copy.
            self._env[stmt.target] = operand
            return
        target = self._fresh(stmt.target, _op_type(operand))
        out.append(Assign(target, operand))
        self._env[stmt.target] = target

    def _lower_return(self, stmt: ast.ReturnStmt, out: list[Stmt]) -> None:
        value = self._flatten(stmt.value, out) if stmt.value is not None \
            else ZERO
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
        self._env[RETFLAG] = TRUE

    def _lower_if(self, stmt: ast.IfStmt, out: list[Stmt]) -> None:
        cond = self._flatten(stmt.cond, out)
        if _op_type(cond) is not _BOOL:
            raise LoweringError("branch condition must be boolean", stmt.loc)
        outer_env = dict(self._env)

        # Then branch.
        then_out: list[Stmt] = []
        self._lower_block(stmt.then_body, then_out)
        then_env = self._env

        # Else branch starts from the outer environment.  Closing a
        # branch never writes to an environment, so an empty else arm
        # can read ``outer_env`` itself.
        else_out: list[Stmt] = []
        else_env = outer_env
        if stmt.else_body:
            self._env = dict(outer_env)
            self._lower_block(stmt.else_body, else_out)
            else_env = self._env

        self._close_branch(cond, then_env, then_out, else_env, else_out,
                           out, stmt.loc)

    def _close_branch(self, cond: Operand, then_env: dict[str, Operand],
                      then_out: list[Stmt], else_env: dict[str, Operand],
                      else_out: list[Stmt], out: list[Stmt],
                      loc: ast.SourceLoc) -> None:
        if then_out:
            out.append(Branch(self._fresh("%br", _BOOL), cond, then_out))
        if else_out:
            neg = self._fresh("%not", _BOOL)
            out.append(Binary(neg, _EQ, cond, FALSE))
            out.append(Branch(self._fresh("%br", _BOOL), neg, else_out))

        # Merge: names visible after the if are those bound before it, plus
        # names bound in *both* branches; branch-local names go out of
        # scope at the join.  Each arm's environment starts from the one
        # before the if and only ever gains names (a join keeps every name
        # bound before its if), so a name bound in both arms is a name of
        # ``then_env`` that ``else_env`` also binds, and a name bound only
        # in the else arm never merges.  Joins follow the then-side's
        # binding order, so their order and names never depend on string
        # hashing.
        merged: dict[str, Operand] = {}
        for name, then_val in then_env.items():
            else_val = else_env.get(name)
            if else_val is None:
                continue
            if then_val is else_val or then_val == else_val:
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
            value = expr.value % (1 << self.config.width)
            return _SMALL_INTS[value] if value < 256 else Const(value, _INT)
        if isinstance(expr, ast.BoolLit):
            return TRUE if expr.value else FALSE
        if isinstance(expr, ast.NullLit):
            return NULL
        if isinstance(expr, ast.Name):
            operand = self._env.get(expr.ident)
            if operand is None:
                raise LoweringError(f"undefined variable {expr.ident}",
                                    expr.loc)
            return operand
        if isinstance(expr, ast.UnaryExpr):
            inner = self._flatten(expr.operand, out)
            if expr.op == "-":
                if _op_type(inner) is not _INT:
                    raise LoweringError("unary '-' needs an integer",
                                        expr.loc)
                result = self._fresh(name_hint or "%t", _INT)
                out.append(Binary(result, _SUB, ZERO, inner))
                return result
            if _op_type(inner) is not _BOOL:
                raise LoweringError("'!' needs a boolean", expr.loc)
            result = self._fresh(name_hint or "%t", _BOOL)
            out.append(Binary(result, _EQ, inner, FALSE))
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
                if _op_type(arg) is not _INT:
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
                rtype = _INT
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
            if lt is not _BOOL or rt is not _BOOL:
                raise LoweringError(f"'{op.value}' needs booleans", expr.loc)
        elif op in (_EQ, _NE):
            if lt is not rt:
                raise LoweringError(
                    f"'{op.value}' on mismatched types", expr.loc)
        else:
            if lt is not _INT or rt is not _INT:
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
    return isinstance(operand, Const) and operand.type is _BOOL \
        and operand.value == 1


def _is_static_false(operand: Operand) -> bool:
    return isinstance(operand, Const) and operand.type is _BOOL \
        and operand.value == 0


@paused
def compile_source(source: str,
                   config: Optional[LoweringConfig] = None) -> Program:
    """Parse and lower surface source text in one step."""
    from repro.lang.parser import parse

    return lower_module(parse(source), config)
