"""Test oracle: a concrete interpreter for the lowered IR.

Executes a program with concrete 2^w-wrapped integer arithmetic and
records the dynamic events static analysis reasons about: which extern
sinks were invoked, with which values, and whether a tracked value (a
null pointer, a tainted input) reached them.

Two uses:

* **Witness replay** — a bug report's satisfying model assigns the entry
  function's parameters; running the interpreter on those inputs must
  actually drive the null/taint into the sink.  This closes the loop
  between the solver and the program's real semantics.
* **Differential testing** — the interpreter is an independent semantics
  for the IR; property tests compare it against the SMT translation of
  the same function (see tests/test_interp.py).
* **Ground truth** — given the checkers' fact models (:class:`FactModel`),
  every value also carries the source statements its null, taint or
  zero was born at, and every extern call and every division by a
  variable records its own site, so a run yields the exact (source,
  sink) pairs it drives a fact through (:meth:`ExecutionResult.pairs`,
  tests/test_pipeline_ground_truth.py).

Loops were already unrolled by the front end, so the IR the interpreter
sees is exactly what the analysis saw; replaying a witness therefore
validates the *analysis'* semantics, bounded unrolling included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.lang.ir import (Assign, Binary, BinOp, Branch, Call, Const,
                           Function, Identity, IfThenElse, Operand, Program,
                           Return, Stmt)
from repro.smt.semantics import to_signed


class InterpError(Exception):
    pass


@dataclass(frozen=True)
class Value:
    """A runtime value: a machine integer plus the taint/null provenance
    bits the checkers track."""

    bits: int
    is_null: bool = False
    taints: frozenset = frozenset()  # source call names, e.g. {"gets"}
    #: With fact models: (checker, function, variable) of each source
    #: statement whose fact this value carries.
    origins: frozenset = frozenset()

    def as_bool(self) -> bool:
        return self.bits != 0


@dataclass
class SinkEvent:
    """One call to an extern routine, with the argument provenance."""

    callee: str
    args: tuple[Value, ...]
    #: (function, result variable) of the call statement.
    site: Optional[tuple[str, str]] = None

    @property
    def passed_null(self) -> bool:
        return any(a.is_null for a in self.args)

    def passed_taint(self, source: str) -> bool:
        return any(source in a.taints for a in self.args)


@dataclass
class DivisionEvent:
    """One executed ``/`` or ``%`` whose divisor is a variable."""

    #: (function, result variable) of the division statement.
    site: tuple[str, str]
    divisor: Value


@dataclass
class ExecutionResult:
    return_value: Value
    sink_events: list[SinkEvent] = field(default_factory=list)
    division_events: list[DivisionEvent] = field(default_factory=list)
    #: (origin, bits) for each executed definition that starts a fact
    #: of a model with ``defs``: the value that definition produced.
    births: list[tuple[tuple, int]] = field(default_factory=list)
    steps: int = 0

    def events_for(self, callee: str) -> list[SinkEvent]:
        return [e for e in self.sink_events if e.callee == callee]

    def pairs(self, model: "FactModel") -> set[tuple]:
        """The (source site, sink site) pairs this run drove one of
        ``model``'s facts through: each site is (function, variable).
        A model with ``defs`` sinks at divisions by zero, the others at
        calls to their ``sinks``."""
        if model.defs:
            hits = [(event.site, (event.divisor,))
                    for event in self.division_events
                    if event.divisor.bits == 0]
        else:
            hits = [(event.site, event.args) for event in self.sink_events
                    if event.callee in model.sinks]
        return {((function, var), sink)
                for sink, args in hits for arg in args
                for checker, function, var in arg.origins
                if checker == model.name}


#: Extern model: given (callee, args) return the result Value.
ExternModel = Callable[[str, tuple[Value, ...]], Value]

#: Sources whose results carry taint.  Written out on purpose, so the
#: oracle does not share a table with the code it checks;
#: tests/test_interp.py holds them equal to the checkers' tables.
TAINT_SOURCES = frozenset({"gets", "read_input", "recv", "getenv",
                           "getpass", "get_password", "read_key",
                           "load_secret"})
SANITIZERS = frozenset({"canonicalize", "sanitize_path", "redact",
                        "hash_secret"})


@dataclass(frozen=True)
class FactModel:
    """One checker's fact, as the interpreter tracks origins for it.

    A null fact is born at ``v = null`` and survives copies, merges,
    argument passing and returns; arithmetic and every extern result
    drop it.  A taint fact is born at a call to one of ``sources`` and
    also survives arithmetic and extern calls, except the result of a
    call to one of ``stoppers`` (the checker's sanitizers and sinks).
    A zero fact is born at each (function, variable) definition in
    ``defs`` (div-zero's sources), survives like a null, and sinks at
    the divisor of a ``/`` or ``%``.  All die in branch conditions,
    which carry no value."""

    name: str
    sinks: frozenset
    null: bool = False
    sources: frozenset = frozenset()
    stoppers: frozenset = frozenset()
    defs: frozenset = frozenset()


class Interpreter:
    """Executes lowered programs with configurable extern behaviour."""

    def __init__(self, program: Program,
                 extern_model: Optional[ExternModel] = None,
                 max_steps: int = 1_000_000,
                 facts: Sequence[FactModel] = ()) -> None:
        self.program = program
        self.width = program.width
        self.mask = (1 << program.width) - 1
        self.extern_model = extern_model
        self.max_steps = max_steps
        self._null_facts = tuple(m.name for m in facts if m.null)
        self._taint_facts = {m.name: m for m in facts if m.sources}
        self._def_facts = tuple((m.name, m.defs) for m in facts if m.defs)

    # ------------------------------------------------------------------ #
    # Entry
    # ------------------------------------------------------------------ #

    def run(self, function: str,
            args: Sequence[int] = ()) -> ExecutionResult:
        fn = self.program.functions.get(function)
        if fn is None:
            raise InterpError(f"no such function {function!r}")
        if len(args) != len(fn.params):
            raise InterpError(
                f"{function} expects {len(fn.params)} args, got {len(args)}")
        result = ExecutionResult(Value(0))
        values = tuple(Value(a & self.mask) for a in args)
        result.return_value = self._call(fn, values, result)
        return result

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _call(self, fn: Function, args: tuple[Value, ...],
              result: ExecutionResult) -> Value:
        env: dict[str, Value] = {}
        for param, value in zip(fn.params, args):
            env[param.name] = value
        returned = self._exec_block(fn.body, env, fn.name, result)
        if returned is None:
            raise InterpError(f"{fn.name}: fell off the end without return")
        return returned

    def _exec_block(self, stmts: list[Stmt], env: dict[str, Value],
                    function: str,
                    result: ExecutionResult) -> Optional[Value]:
        for stmt in stmts:
            result.steps += 1
            if result.steps > self.max_steps:
                raise InterpError("step budget exceeded")
            if isinstance(stmt, Identity):
                continue  # parameter already bound
            if isinstance(stmt, Return):
                return self._born(stmt, self._operand(stmt.source, env),
                                  function, result)
            if isinstance(stmt, Branch):
                if self._operand(stmt.cond, env).as_bool():
                    returned = self._exec_block(stmt.body, env, function,
                                                result)
                    if returned is not None:
                        return returned
                continue
            env[stmt.result.name] = self._born(
                stmt, self._eval_stmt(stmt, env, function, result),
                function, result)
        return None

    def _born(self, stmt: Stmt, value: Value, function: str,
              result: ExecutionResult) -> Value:
        """``value`` plus the origin of every ``defs`` fact that
        ``stmt`` starts, each recorded in ``result.births``."""
        if not self._def_facts:
            return value
        site = (function, stmt.result.name)
        born = [(name, *site) for name, defs in self._def_facts
                if site in defs]
        if not born:
            return value
        result.births.extend((origin, value.bits) for origin in born)
        return Value(value.bits, value.is_null, value.taints,
                     value.origins | frozenset(born))

    def _eval_stmt(self, stmt: Stmt, env: dict[str, Value], function: str,
                   result: ExecutionResult) -> Value:
        if isinstance(stmt, Assign):
            value = self._operand(stmt.source, env)
            if value.is_null and self._null_facts \
                    and isinstance(stmt.source, Const):
                value = Value(value.bits, True, value.taints, frozenset(
                    (name, function, stmt.result.name)
                    for name in self._null_facts))
            return value
        if isinstance(stmt, IfThenElse):
            if self._operand(stmt.cond, env).as_bool():
                return self._operand(stmt.then_value, env)
            return self._operand(stmt.else_value, env)
        if isinstance(stmt, Binary):
            if stmt.op in (BinOp.DIV, BinOp.REM) \
                    and not isinstance(stmt.rhs, Const):
                result.division_events.append(DivisionEvent(
                    (function, stmt.result.name),
                    self._operand(stmt.rhs, env)))
            return self._binary(stmt, env)
        if isinstance(stmt, Call):
            return self._eval_call(stmt, env, function, result)
        raise InterpError(f"cannot execute {stmt!r}")

    def _eval_call(self, stmt: Call, env: dict[str, Value], function: str,
                   result: ExecutionResult) -> Value:
        values = tuple(self._operand(a, env) for a in stmt.args)
        callee = self.program.functions.get(stmt.callee)
        if callee is not None:
            return self._call(callee, values, result)
        # Extern: record the event, then model the result.
        site = (function, stmt.result.name)
        result.sink_events.append(SinkEvent(stmt.callee, values, site))
        value = self._extern_value(stmt.callee, values)
        if self._taint_facts:
            value = Value(value.bits, value.is_null, value.taints,
                          self._extern_origins(stmt.callee, values, site))
        return value

    def _extern_value(self, callee: str, args: tuple[Value, ...]) -> Value:
        if self.extern_model is not None:
            return self.extern_model(callee, args)
        if callee in TAINT_SOURCES:
            return Value(1, taints=frozenset({callee}))
        if callee in SANITIZERS:
            # A sanitizer launders provenance but keeps the bits.
            inner = args[0] if args else Value(0)
            return Value(inner.bits)
        # Default havoc model: a fixed, boring value.
        return Value(0)

    def _extern_origins(self, callee: str, args: tuple[Value, ...],
                        site: tuple[str, str]) -> frozenset:
        """The taint origins an extern's result carries: its actuals'
        (unless the callee stops that checker's taint) and its own site
        for each checker it is a source of."""
        facts = self._taint_facts
        origins = {origin for arg in args for origin in arg.origins
                   if origin[0] in facts
                   and callee not in facts[origin[0]].stoppers}
        origins.update((name, *site) for name, model in facts.items()
                       if callee in model.sources)
        return frozenset(origins)

    def _operand(self, operand: Operand, env: dict[str, Value]) -> Value:
        if isinstance(operand, Const):
            return Value(operand.value & self.mask,
                         is_null=operand.is_null)
        value = env.get(operand.name)
        if value is None:
            raise InterpError(f"undefined variable {operand.name}")
        return value

    def _binary(self, stmt: Binary, env: dict[str, Value]) -> Value:
        left = self._operand(stmt.lhs, env)
        right = self._operand(stmt.rhs, env)
        a, b = left.bits, right.bits
        width = self.width
        op = stmt.op
        if op is BinOp.ADD:
            bits = (a + b) & self.mask
        elif op is BinOp.SUB:
            bits = (a - b) & self.mask
        elif op is BinOp.MUL:
            bits = (a * b) & self.mask
        elif op is BinOp.DIV:
            bits = self.mask if b == 0 else (a // b) & self.mask
        elif op is BinOp.REM:
            bits = a if b == 0 else (a % b) & self.mask
        elif op is BinOp.SHL:
            bits = 0 if b >= width else (a << b) & self.mask
        elif op is BinOp.SHR:
            bits = 0 if b >= width else a >> b
        elif op is BinOp.BAND:
            bits = a & b
        elif op is BinOp.BOR:
            bits = a | b
        elif op is BinOp.BXOR:
            bits = a ^ b
        elif op is BinOp.LT:
            bits = int(to_signed(a, width) < to_signed(b, width))
        elif op is BinOp.LE:
            bits = int(to_signed(a, width) <= to_signed(b, width))
        elif op is BinOp.GT:
            bits = int(to_signed(a, width) > to_signed(b, width))
        elif op is BinOp.GE:
            bits = int(to_signed(a, width) >= to_signed(b, width))
        elif op is BinOp.EQ:
            bits = int(a == b)
        elif op is BinOp.NE:
            bits = int(a != b)
        elif op is BinOp.AND:
            bits = int(bool(a) and bool(b))
        elif op is BinOp.OR:
            bits = int(bool(a) or bool(b))
        else:
            raise InterpError(f"operator {op} not executable")

        # Provenance: taint survives arithmetic; nullness only survives
        # the operations the null checker propagates through (none of
        # the binary ones).
        taints = left.taints | right.taints
        if op in (BinOp.AND, BinOp.OR, BinOp.EQ, BinOp.NE, BinOp.LT,
                  BinOp.LE, BinOp.GT, BinOp.GE):
            # Booleans do not carry taint onwards in the checker model
            # either, but keeping it is harmless; drop for symmetry.
            taints = frozenset()
        # Taint origins survive every operator (the taint checkers
        # propagate through any ``Binary``); null origins never do.
        origins = frozenset(origin for origin in left.origins | right.origins
                            if origin[0] in self._taint_facts) \
            if self._taint_facts else frozenset()
        return Value(bits, taints=taints, origins=origins)
