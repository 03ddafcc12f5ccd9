"""The normalized small-language IR (Figure 4 of the paper).

A program is a set of functions; a function body is a sequence of
statements, each defining exactly one SSA variable:

* ``Identity``   — ``v = <v>``: parameter initialisation (a tautology).
* ``Assign``     — ``v1 = v2``.
* ``Binary``     — ``v1 = v2 (+) v3``.
* ``IfThenElse`` — ``v1 = ite(v2, v3, v4)``: the gated replacement for
  SSA φ-assignments (Section 3.1).
* ``Call``       — ``v1 = f(v2, v3, ...)``.
* ``Return``     — ``return v1 = v2``: a function's single exit.
* ``Branch``     — ``if (v1 = v2) { S1; }``: statements in the body are
  control-dependent on the branch.

Operands are SSA variables or literal constants; the front end guarantees
every variable is defined exactly once per function (SSA) and that each
function ends in exactly one ``Return``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union


class VarType(enum.Enum):
    """Variable types: machine integers (bit vectors) or booleans."""
    INT = "int"
    BOOL = "bool"


class BinOp(enum.Enum):
    """The operator set (+) of Figure 4."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    REM = "%"
    SHL = "<<"
    SHR = ">>"
    BAND = "&"
    BOR = "|"
    BXOR = "^"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="
    AND = "&&"
    OR = "||"

    def __init__(self, value: str) -> None:
        # Each member's kind is stored on it once, so a test is one
        # attribute read.
        self.is_comparison = value in ("<", "<=", ">", ">=", "==", "!=")
        self.is_logical = value in ("&&", "||")
        self._result_type = VarType.BOOL \
            if self.is_comparison or self.is_logical else VarType.INT

    def result_type(self) -> VarType:
        return self._result_type


@dataclass(frozen=True, slots=True)
class Var:
    """An SSA variable operand."""

    name: str
    type: VarType = VarType.INT

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Const:
    """A literal operand.  ``is_null`` marks the ``null`` pointer literal,
    which the null-exception checker treats as a data-flow source."""

    value: int
    type: VarType = VarType.INT
    is_null: bool = False

    def __repr__(self) -> str:
        if self.is_null:
            return "null"
        if self.type is VarType.BOOL:
            return "true" if self.value else "false"
        return str(self.value)


Operand = Union[Var, Const]


class Stmt:
    """Base class for IR statements.  Every statement defines ``result``."""

    __slots__ = ()
    result: Var

    def operands(self) -> tuple[Operand, ...]:
        raise NotImplementedError


@dataclass(slots=True)
class Identity(Stmt):
    """``v = <v>``: parameter initialisation."""

    result: Var

    def operands(self) -> tuple[Operand, ...]:
        return ()

    def __repr__(self) -> str:
        return f"{self.result} = <{self.result}>"


@dataclass(slots=True)
class Assign(Stmt):
    """``v1 = v2``."""

    result: Var
    source: Operand

    def operands(self) -> tuple[Operand, ...]:
        return (self.source,)

    def __repr__(self) -> str:
        return f"{self.result} = {self.source!r}"


@dataclass(slots=True)
class Binary(Stmt):
    """``v1 = v2 (+) v3``."""

    result: Var
    op: BinOp
    lhs: Operand
    rhs: Operand

    def operands(self) -> tuple[Operand, ...]:
        return (self.lhs, self.rhs)

    def __repr__(self) -> str:
        return f"{self.result} = {self.lhs!r} {self.op.value} {self.rhs!r}"


@dataclass(slots=True)
class IfThenElse(Stmt):
    """``v1 = ite(v2, v3, v4)``: gated SSA merge."""

    result: Var
    cond: Operand
    then_value: Operand
    else_value: Operand

    def operands(self) -> tuple[Operand, ...]:
        return (self.cond, self.then_value, self.else_value)

    def __repr__(self) -> str:
        return (f"{self.result} = ite({self.cond!r}, "
                f"{self.then_value!r}, {self.else_value!r})")


@dataclass(slots=True)
class Call(Stmt):
    """``v1 = f(v2, v3, ...)``."""

    result: Var
    callee: str
    args: tuple[Operand, ...]

    def operands(self) -> tuple[Operand, ...]:
        return self.args

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        return f"{self.result} = {self.callee}({args})"


@dataclass(slots=True)
class Return(Stmt):
    """``return v1 = v2``: the single exit of a function."""

    result: Var
    source: Operand

    def operands(self) -> tuple[Operand, ...]:
        return (self.source,)

    def __repr__(self) -> str:
        return f"return {self.result} = {self.source!r}"


@dataclass(slots=True)
class Branch(Stmt):
    """``if (v1 = v2) { S1; }``: the branch condition defines ``v1``."""

    result: Var
    cond: Operand
    body: list[Stmt] = field(default_factory=list)

    def operands(self) -> tuple[Operand, ...]:
        return (self.cond,)

    def __repr__(self) -> str:
        return f"if ({self.result} = {self.cond!r}) {{ ... }}"


@dataclass
class Function:
    """A function in the small language.

    ``params`` are initialised by leading :class:`Identity` statements in
    ``body``; the final top-level statement is the single :class:`Return`
    (entry procedures analysed for bugs always have one).
    """

    name: str
    params: tuple[Var, ...]
    body: list[Stmt] = field(default_factory=list)

    def statements(self) -> Iterator[Stmt]:
        """All statements, nested branch bodies included, in program order.

        Iterative: branch nesting is proportional to the unroll bound,
        which is user-controlled and may exceed the Python stack.
        """

        stack = [iter(self.body)]
        while stack:
            for stmt in stack[-1]:
                yield stmt
                if isinstance(stmt, Branch):
                    stack.append(iter(stmt.body))
                    break
            else:
                stack.pop()

    @property
    def return_stmt(self) -> Optional[Return]:
        for stmt in self.statements():
            if isinstance(stmt, Return):
                return stmt
        return None

    def size(self) -> int:
        """Statement count (the paper's n/m in Table 1)."""
        return sum(1 for _ in self.statements())

    def defined_vars(self) -> dict[str, Stmt]:
        return {stmt.result.name: stmt for stmt in self.statements()}

    def validate(self) -> None:
        """Check SSA form, operand definedness and the single return, by
        the PDG builder's walk; raise ``ValueError`` on a violation."""
        from repro.pdg.builder import walk_function

        walk_function(self)


@dataclass
class Program:
    """A whole program: defined functions plus external declarations.

    ``externs`` model the paper's "empty functions" (third-party library
    routines): a call to one simply links actuals to the return-value
    receiver (Figure 5, last rule).  ``width`` is the bit width used when
    translating integer variables to bit vectors.
    """

    functions: dict[str, Function] = field(default_factory=dict)
    externs: set[str] = field(default_factory=set)
    width: int = 8

    def add(self, function: Function) -> None:
        if function.name in self.functions:
            raise ValueError(f"duplicate function {function.name}")
        self.functions[function.name] = function

    def function(self, name: str) -> Function:
        return self.functions[name]

    def is_extern(self, name: str) -> bool:
        return name not in self.functions

    def size(self) -> int:
        return sum(f.size() for f in self.functions.values())

    def validate(self) -> None:
        """:meth:`Function.validate` on every function."""
        for function in self.functions.values():
            function.validate()
