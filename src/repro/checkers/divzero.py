"""Division-by-zero checker.

The tracked fact is "this variable is *definitely* zero", established by
one constant fold over the SSA definitions: a vertex is a source when
its INT value folds to 0.  That covers literal zeroes and anything the
fold proves zero through arithmetic (``b = a - 4`` under ``a = 4``,
``w = x * 0``), which is precisely the numeric reasoning the value-free
checkers cannot express.  The fact then travels along value-preserving
dependence like the null fact, and a bug is the zero reaching the
divisor operand of an integer ``/`` or ``%``.

The fold gives each definition a constant or "unknown" (None), walking
each function once in statement order, callees first:

* literals, copies and returns fold; an ``ite`` folds when its
  condition is constant or both arms fold to the same constant;
* a ``Binary`` of two constants evaluates with ``repro.smt.semantics``'
  conventions (wrapping arithmetic, unsigned ``/`` and ``%``, division
  by zero gives all ones, remainder by zero the dividend, signed
  comparisons, shifting by the width or more gives 0);
* with one side unknown, a zero on either side of ``*`` or ``&``, a zero
  left operand of ``%``, ``<<`` or ``>>``, and a shift by at least the
  width still give 0;
* parameters and extern results are unknown: a candidate's formula
  leaves its root frame's parameters free, and an extern's result is a
  library value the checker never carries a zero through, so a fact
  derived from a narrower value would not hold on all its paths;
* a call to a defined function reads the callee's folded return value.
  ``prepare_pdg`` unrolls recursion, so folding callees first
  terminates.

Must-facts keep the engine contract intact: as with ``null-deref``, path
feasibility of the candidate *is* the bug condition, so the SMT stage
needs no extra "divisor == 0" obligation.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.checkers.base import Checker, CheckerFootprint
from repro.lang.ir import (Assign, Binary, BinOp, Branch, Call, Const,
                           IfThenElse, Operand, Return, Var, VarType)
from repro.pdg.graph import DataEdge, EdgeKind, ProgramDependenceGraph, Vertex
from repro.smt.semantics import to_signed


def fold_binary(op: BinOp, a: Optional[int], b: Optional[int],
                width: int) -> Optional[int]:
    """``a op b`` on unsigned ``width``-bit constants (booleans are 0 and
    1); None stands for an unknown operand or result."""
    if a is None or b is None:
        if op in (BinOp.MUL, BinOp.BAND) and 0 in (a, b):
            return 0
        if op in (BinOp.REM, BinOp.SHL, BinOp.SHR) and a == 0:
            return 0
        if op in (BinOp.SHL, BinOp.SHR) and b is not None and b >= width:
            return 0
        return None
    mask = (1 << width) - 1
    if op is BinOp.ADD:
        return (a + b) & mask
    if op is BinOp.SUB:
        return (a - b) & mask
    if op is BinOp.MUL:
        return (a * b) & mask
    if op is BinOp.DIV:
        return mask if b == 0 else a // b
    if op is BinOp.REM:
        return a if b == 0 else a % b
    if op is BinOp.SHL:
        return 0 if b >= width else (a << b) & mask
    if op is BinOp.SHR:
        return 0 if b >= width else a >> b
    if op is BinOp.BAND:
        return a & b
    if op is BinOp.BOR:
        return a | b
    if op is BinOp.BXOR:
        return a ^ b
    if op is BinOp.EQ:
        return int(a == b)
    if op is BinOp.NE:
        return int(a != b)
    if op is BinOp.AND:
        return int(bool(a) and bool(b))
    if op is BinOp.OR:
        return int(bool(a) or bool(b))
    sa, sb = to_signed(a, width), to_signed(b, width)
    if op is BinOp.LT:
        return int(sa < sb)
    if op is BinOp.LE:
        return int(sa <= sb)
    if op is BinOp.GT:
        return int(sa > sb)
    if op is BinOp.GE:
        return int(sa >= sb)
    raise ValueError(f"no fold for {op}")


class DivByZeroChecker(Checker):
    name = "div-zero"

    def __init__(self) -> None:
        #: Folded value per vertex index, for the PDG ``_fold_pdg`` only
        #: (compared by identity: an ``id()`` can be reused by a later
        #: PDG once this one is freed).
        self._values: list[Optional[int]] = []
        #: Functions of ``_fold_pdg`` folded so far.
        self._folded: set[str] = set()
        self._fold_pdg: Optional[ProgramDependenceGraph] = None

    # ------------------------------------------------------------------ #
    # Checker protocol
    # ------------------------------------------------------------------ #

    def footprint(self) -> CheckerFootprint:
        # Sources are value-dependent (any definition folding to 0), so
        # they are volatile: known only once the fold has run, which
        # makes the view walk backward from the sink sites first.
        return CheckerFootprint(
            checker=self.name,
            edge_kinds=frozenset({EdgeKind.LOCAL, EdgeKind.CALL,
                                  EdgeKind.RETURN}),
            volatile_sources=True)

    def sources(self, pdg: ProgramDependenceGraph) -> list[Vertex]:
        self._fold(pdg, pdg.functions())
        return self._zero_defs(pdg.vertices)

    def sources_for(self, pdg: ProgramDependenceGraph, view) -> list[Vertex]:
        """Observable zero definitions, folding only the functions that
        hold observable vertices (and their callees)."""
        observable = [pdg.vertices[index]
                      for index in sorted(view.observable_indices)]
        self._fold(pdg, {vertex.function for vertex in observable})
        return self._zero_defs(observable)

    def _zero_defs(self, vertices: list[Vertex]) -> list[Vertex]:
        values = self._values
        return [vertex for vertex in vertices
                if values[vertex.index] == 0
                and vertex.var.type is VarType.INT]

    def propagates(self, edge: DataEdge) -> bool:
        if edge.kind in (EdgeKind.CALL, EdgeKind.RETURN):
            return True  # argument passing and returning preserve the value
        if edge.kind is EdgeKind.EXTERN:
            return False  # a library call's result is a fresh value
        dst = edge.dst.stmt
        if isinstance(dst, (Assign, Return)):
            return True
        if isinstance(dst, IfThenElse):
            return self._feeds_value_slot(edge)
        if isinstance(dst, Call):
            return False
        return False  # arithmetic and branch conditions kill the zero

    def is_sink_edge(self, edge: DataEdge) -> bool:
        dst = edge.dst.stmt
        return (edge.kind is EdgeKind.LOCAL and isinstance(dst, Binary)
                and dst.op in (BinOp.DIV, BinOp.REM)
                and isinstance(dst.rhs, Var)
                and dst.rhs.name == edge.src.var.name)

    def sink_sites(self, pdg: ProgramDependenceGraph) -> list[Vertex]:
        """The ``/`` and ``%`` statements with a variable divisor."""
        return [vertex for vertex in pdg.sites.of_class(Binary)
                if vertex.stmt.op in (BinOp.DIV, BinOp.REM)
                and isinstance(vertex.stmt.rhs, Var)]

    # ------------------------------------------------------------------ #
    # Constant fold
    # ------------------------------------------------------------------ #

    def _fold(self, pdg: ProgramDependenceGraph,
              functions: Iterable[str]) -> None:
        """Fold ``functions`` and their callees, callees first; a
        function already folded for ``pdg`` is not walked again."""
        if self._fold_pdg is not pdg:
            self._values = [None] * pdg.num_vertices
            self._folded = set()
            self._fold_pdg = pdg
        folded = self._folded
        stack = [name for name in functions if name not in folded]
        while stack:
            name = stack[-1]
            if name in folded:
                stack.pop()
                continue
            pending = [callee for callee in self._callees(pdg, name)
                       if callee not in folded]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            self._fold_function(pdg, name)
            folded.add(name)

    @staticmethod
    def _callees(pdg: ProgramDependenceGraph, function: str) -> list[str]:
        defined = pdg.program.functions
        return [vertex.stmt.callee
                for vertex in pdg.function_vertices(function)
                if isinstance(vertex.stmt, Call)
                and vertex.stmt.callee in defined]

    def _fold_function(self, pdg: ProgramDependenceGraph,
                       function: str) -> None:
        values = self._values
        width = pdg.program.width
        for vertex in pdg.function_vertices(function):
            stmt = vertex.stmt
            if isinstance(stmt, (Assign, Return)):
                value = self._operand(pdg, function, stmt.source)
            elif isinstance(stmt, Binary):
                value = fold_binary(
                    stmt.op, self._operand(pdg, function, stmt.lhs),
                    self._operand(pdg, function, stmt.rhs), width)
            elif isinstance(stmt, IfThenElse):
                cond = self._operand(pdg, function, stmt.cond)
                then_value = self._operand(pdg, function, stmt.then_value)
                else_value = self._operand(pdg, function, stmt.else_value)
                if cond is not None:
                    value = then_value if cond else else_value
                else:
                    value = then_value if then_value == else_value else None
            elif isinstance(stmt, Branch):
                value = self._operand(pdg, function, stmt.cond)
            elif isinstance(stmt, Call) \
                    and stmt.callee in pdg.program.functions:
                ret = pdg.return_vertex(stmt.callee)
                value = None if ret is None else values[ret.index]
            else:  # parameters and extern results
                value = None
            values[vertex.index] = value

    def _operand(self, pdg: ProgramDependenceGraph, function: str,
                 operand: Operand) -> Optional[int]:
        if isinstance(operand, Const):
            return operand.value & ((1 << pdg.program.width) - 1)
        vertex = pdg.def_of_operand(function, operand)
        return None if vertex is None else self._values[vertex.index]

    @staticmethod
    def _feeds_value_slot(edge: DataEdge) -> bool:
        ite = edge.dst.stmt
        name = edge.src.var.name
        for slot in (ite.then_value, ite.else_value):
            if isinstance(slot, Var) and slot.name == name:
                return True
        return False
