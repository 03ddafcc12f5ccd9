"""Null-exception checker.

Tracks the fact "this variable may hold null" from ``p = null`` statements
along value-preserving data dependence; a bug is the fact reaching an
argument of a dereferencing library routine.  Arithmetic kills the fact
(``p + 1`` is no longer the null pointer), branch conditions never carry
it, and calls/returns transport it inter-procedurally — the propagation
pattern of the paper's Figure 1 example, where the null flows from
``p = nullptr`` through ``return p`` into the callers.
"""

from __future__ import annotations

from repro.lang.ir import (Assign, Call, Const, IfThenElse, Return, Var)
from repro.checkers.base import Checker, CheckerFootprint
from repro.pdg.graph import DataEdge, EdgeKind, ProgramDependenceGraph, Vertex

#: Library routines that dereference their pointer arguments.
DEREF_SINKS = frozenset({"deref", "load", "store", "memcpy", "strlen",
                         "use_ptr"})


class NullDereferenceChecker(Checker):
    name = "null-deref"

    def __init__(self, sinks: frozenset[str] = DEREF_SINKS) -> None:
        self.sinks = sinks

    def footprint(self) -> CheckerFootprint:
        return CheckerFootprint(
            checker=self.name,
            sink_symbols=self.sinks,
            null_literal_sources=True)

    def sources(self, pdg: ProgramDependenceGraph) -> list[Vertex]:
        return [vertex for vertex in pdg.sites.of_class(Assign)
                if isinstance(vertex.stmt.source, Const)
                and vertex.stmt.source.is_null]

    def propagates(self, edge: DataEdge) -> bool:
        if edge.kind in (EdgeKind.CALL, EdgeKind.RETURN):
            return True  # argument passing and returning preserve the value
        if edge.kind is EdgeKind.EXTERN:
            return False  # a library call's result is a fresh value
        dst = edge.dst.stmt
        if isinstance(dst, (Assign, Return)):
            return True
        if isinstance(dst, IfThenElse):
            # The null survives through a merge only via the value slots;
            # feeding the condition does not propagate it.
            return self._feeds_value_slot(edge)
        if isinstance(dst, Call):
            # Call to a defined function travels via CALL edges (handled
            # above); a LOCAL edge into a Call vertex cannot happen for
            # defined callees and externs are handled by is_sink_edge.
            return False
        return False  # Binary arithmetic and branch conditions kill it

    def is_sink_edge(self, edge: DataEdge) -> bool:
        dst = edge.dst.stmt
        return (edge.kind is EdgeKind.EXTERN and isinstance(dst, Call)
                and dst.callee in self.sinks)

    @staticmethod
    def _feeds_value_slot(edge: DataEdge) -> bool:
        ite = edge.dst.stmt
        name = edge.src.var.name
        for slot in (ite.then_value, ite.else_value):
            if isinstance(slot, Var) and slot.name == name:
                return True
        return False
