"""Division-by-zero checker — the first checker built on the interval
domain.

The tracked fact is "this variable is *definitely* zero", established by
the absint fixpoint: a vertex is a source when its interval is exactly
``[0, 0]``.  That covers literal zeroes and anything constant-folding
proves zero through arithmetic (``b = a - 4`` under ``a = 4``), which is
precisely the numeric reasoning the value-free checkers cannot express.
The fact then travels along value-preserving dependence like the null
fact, and a bug is the zero reaching the divisor operand of an integer
``/`` or ``%``.

Must-facts keep the engine contract intact: as with ``null-deref``, path
feasibility of the candidate *is* the bug condition, so the SMT stage
needs no extra "divisor == 0" obligation.
"""

from __future__ import annotations

from typing import Optional

from repro.checkers.base import Checker, CheckerFootprint
from repro.lang.ir import (Assign, Binary, BinOp, Call, IfThenElse, Return,
                           Var, VarType)
from repro.pdg.graph import DataEdge, EdgeKind, ProgramDependenceGraph, Vertex


class DivByZeroChecker(Checker):
    name = "div-zero"

    def __init__(self) -> None:
        self._state = None  # lazy absint fixpoint, keyed to one PDG
        #: The PDG ``_state`` belongs to, compared by identity (an
        #: ``id()`` can be reused by a later PDG once this one is freed).
        self._state_pdg: Optional[ProgramDependenceGraph] = None

    # ------------------------------------------------------------------ #
    # Checker protocol
    # ------------------------------------------------------------------ #

    def footprint(self) -> CheckerFootprint:
        # Sources are value-dependent (any interval proven [0, 0]), so
        # they are volatile: known only once the fixpoint has run, which
        # makes the view walk backward from the sink sites first.
        return CheckerFootprint(
            checker=self.name,
            edge_kinds=frozenset({EdgeKind.LOCAL, EdgeKind.CALL,
                                  EdgeKind.RETURN}),
            volatile_sources=True)

    def sources(self, pdg: ProgramDependenceGraph) -> list[Vertex]:
        return self._zero_defs(pdg.vertices, self._fixpoint(pdg))

    def sources_for(self, pdg: ProgramDependenceGraph, view) -> list[Vertex]:
        """Observable zero definitions, via the view's *restricted*
        fixpoint: values at observable vertices equal the full run's
        (the covered set is pred-closed)."""
        observable = [pdg.vertices[index]
                      for index in sorted(view.observable_indices)]
        return self._zero_defs(observable, view.fixpoint_state())

    @staticmethod
    def _zero_defs(vertices: list[Vertex], state) -> list[Vertex]:
        out = []
        for vertex in vertices:
            if vertex.var.type is not VarType.INT:
                continue
            value = state.values[vertex.index]
            if value.is_bottom or not value.interval.is_singleton:
                continue
            if value.interval.lo == 0:
                out.append(vertex)
        return out

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
    # Interval support
    # ------------------------------------------------------------------ #

    def _fixpoint(self, pdg: ProgramDependenceGraph):
        if self._state is None or self._state_pdg is not pdg:
            from repro.absint.fixpoint import analyze_pdg

            self._state = analyze_pdg(pdg)
            self._state_pdg = pdg
        return self._state

    @staticmethod
    def _feeds_value_slot(edge: DataEdge) -> bool:
        ite = edge.dst.stmt
        name = edge.src.var.name
        for slot in (ite.then_value, ite.else_value):
            if isinstance(slot, Var) and slot.name == name:
                return True
        return False
