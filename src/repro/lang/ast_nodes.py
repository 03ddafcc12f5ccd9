"""Surface-syntax AST for the small language.

The surface language is a C-flavoured skin over the paper's Figure 4
language: structured ``if``/``else`` and ``while``, expression trees, and
early returns.  The lowering pass (``repro.lang.lowering``) desugars all of
it into the normalized gated-SSA IR of ``repro.lang.ir``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from repro.lang.ir import BinOp


class SourceLoc(NamedTuple):
    line: int
    column: int

    def __repr__(self) -> str:
        return f"{self.line}:{self.column}"


class Expr:
    __slots__ = ()
    loc: SourceLoc


@dataclass(slots=True)
class IntLit(Expr):
    value: int
    loc: SourceLoc = SourceLoc(0, 0)


@dataclass(slots=True)
class BoolLit(Expr):
    value: bool
    loc: SourceLoc = SourceLoc(0, 0)


@dataclass(slots=True)
class NullLit(Expr):
    loc: SourceLoc = SourceLoc(0, 0)


@dataclass(slots=True)
class Name(Expr):
    ident: str
    loc: SourceLoc = SourceLoc(0, 0)


@dataclass(slots=True)
class BinExpr(Expr):
    op: BinOp
    lhs: Expr
    rhs: Expr
    loc: SourceLoc = SourceLoc(0, 0)


@dataclass(slots=True)
class UnaryExpr(Expr):
    op: str  # "-" or "!"
    operand: Expr
    loc: SourceLoc = SourceLoc(0, 0)


@dataclass(slots=True)
class CallExpr(Expr):
    callee: str
    args: list[Expr] = field(default_factory=list)
    loc: SourceLoc = SourceLoc(0, 0)


class Statement:
    __slots__ = ()
    loc: SourceLoc


@dataclass(slots=True)
class AssignStmt(Statement):
    target: str
    value: Expr
    loc: SourceLoc = SourceLoc(0, 0)


@dataclass(slots=True)
class ExprStmt(Statement):
    """A bare call for its effect (e.g. ``send(c, d);``)."""

    expr: Expr
    loc: SourceLoc = SourceLoc(0, 0)


@dataclass(slots=True)
class IfStmt(Statement):
    cond: Expr
    then_body: list[Statement] = field(default_factory=list)
    else_body: list[Statement] = field(default_factory=list)
    loc: SourceLoc = SourceLoc(0, 0)


@dataclass(slots=True)
class WhileStmt(Statement):
    cond: Expr
    body: list[Statement] = field(default_factory=list)
    loc: SourceLoc = SourceLoc(0, 0)


@dataclass(slots=True)
class ReturnStmt(Statement):
    value: Optional[Expr] = None
    loc: SourceLoc = SourceLoc(0, 0)


@dataclass(slots=True)
class FunctionDecl:
    name: str
    params: list[str] = field(default_factory=list)
    body: list[Statement] = field(default_factory=list)
    loc: SourceLoc = SourceLoc(0, 0)


@dataclass(slots=True)
class ExternDecl:
    """``extern f;`` — an empty function (third-party library routine)."""

    name: str
    loc: SourceLoc = SourceLoc(0, 0)


@dataclass(slots=True)
class Module:
    functions: list[FunctionDecl] = field(default_factory=list)
    externs: list[ExternDecl] = field(default_factory=list)

    def function_names(self) -> Sequence[str]:
        return [f.name for f in self.functions]
