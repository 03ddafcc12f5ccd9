"""Sparse abstract interpretation over the PDG's data-dependence edges.

One worklist fixpoint computes an :class:`AbsValue` per vertex — i.e. per
SSA variable, since every vertex defines exactly one — by running transfer
functions along data edges only (the sparse discipline of the paper's
Figure 6(b): no program points, no control-flow graph).  Merges happen
where the dependence representation puts them:

* **gated-ite joins** — an ``ite`` vertex joins its arms, but consults
  the condition's abstract value first: a condition proven constant keeps
  only the live arm (the "gated" part of gated SSA);
* **call/return edges** — a parameter joins the actuals of every call
  edge into it.  The joined interval is deliberately widened to top at
  parameters: a candidate's SMT fragment treats its root frame's
  parameters as free variables, so a fact derived from a narrower
  parameter range would not hold for paths rooted in that function.
  Nullness and taints keep the join (the interpreter differential in
  ``tests/test_absint.py`` checks them).

Two consumers read the result: div-zero's sources (definitions whose
interval is exactly ``[0, 0]``, :mod:`repro.checkers.divzero`) and the
seeding of its sparse view
(:meth:`repro.pdg.reduce.SparsePDGView.fixpoint_state`).

Termination: the whole-graph edge relation is cyclic (mismatched
call/return labels close loops the valid-path discipline never walks),
so after :data:`WIDEN_AFTER` updates a vertex widens instead of joining.
Unrolled-loop chains are acyclic but deep; the same counter bounds how
long a chain can keep refining before its bounds are pushed to the
extremes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.absint.domains import AbsValue, FixpointStats, Interval, Nullness
from repro.absint.transfer import binary_interval
from repro.checkers.taint import CWE23_SOURCES, CWE402_SOURCES
from repro.lang.ir import (Assign, Binary, Branch, Call, Const, Identity,
                           IfThenElse, Operand, Return)
from repro.pdg.graph import EdgeKind, ProgramDependenceGraph, Vertex
from repro.smt.semantics import to_signed


#: Joins tolerated at one vertex before widening kicks in.
WIDEN_AFTER = 12

#: Calls whose results carry taint: every taint checker's sources.
TAINT_SOURCES = CWE23_SOURCES | CWE402_SOURCES


@dataclass
class AbstractState:
    """The fixpoint's result: one reduced-product value per vertex."""

    pdg: ProgramDependenceGraph
    width: int
    values: list[AbsValue]
    stats: FixpointStats = field(default_factory=FixpointStats)


def analyze_pdg(pdg: ProgramDependenceGraph,
                restrict: Optional[Iterable[int]] = None) -> AbstractState:
    """Run the sparse fixpoint and return the per-vertex abstract state.

    ``restrict`` (when given) limits the fixpoint to a *pred-closed*
    set of vertex indices — every data predecessor of a member is a
    member, as with the covered sets of
    :meth:`repro.pdg.reduce.SparsePDGView.covered`.  The restricted run
    processes exactly the subsequence of the full run's FIFO schedule
    that touches the set, so values (and widening decisions) at member
    vertices are byte-identical to the full run; vertices outside stay
    bottom and must not be read.
    """
    state = AbstractState(pdg, pdg.program.width,
                          [AbsValue.bottom()] * pdg.num_vertices)
    update_counts = [0] * pdg.num_vertices
    if restrict is None:
        allowed = None
        worklist = deque(range(pdg.num_vertices))
        queued = [True] * pdg.num_vertices
        state.stats.vertices = pdg.num_vertices
    else:
        order = sorted(set(restrict))
        allowed = bytearray(pdg.num_vertices)
        queued = [False] * pdg.num_vertices
        for index in order:
            allowed[index] = 1
            queued[index] = True
        worklist = deque(order)
        state.stats.vertices = len(order)

    while worklist:
        index = worklist.popleft()
        queued[index] = False
        vertex = pdg.vertices[index]
        state.stats.iterations += 1
        new = _transfer(pdg, vertex, state).reduce()
        old = state.values[index]
        merged = old.join(new)
        if merged == old:
            continue
        update_counts[index] += 1
        if update_counts[index] > WIDEN_AFTER:
            merged = old.widen(merged, state.width)
            state.stats.widenings += 1
        state.values[index] = merged
        for edge in pdg.data_succs(vertex):
            succ = edge.dst.index
            if allowed is not None and not allowed[succ]:
                continue
            if not queued[succ]:
                queued[succ] = True
                worklist.append(succ)

    return state


# --------------------------------------------------------------------- #
# Transfer functions
# --------------------------------------------------------------------- #


def _operand_value(pdg: ProgramDependenceGraph, function: str,
                   operand: Operand, state: AbstractState) -> AbsValue:
    if isinstance(operand, Const):
        modulus = 1 << state.width
        return AbsValue.const(to_signed(operand.value % modulus,
                                        state.width),
                              is_null=operand.is_null)
    vertex = pdg.def_of_operand(function, operand)
    if vertex is None:
        return AbsValue.top(state.width)
    return state.values[vertex.index]


def _transfer(pdg: ProgramDependenceGraph, vertex: Vertex,
              state: AbstractState) -> AbsValue:
    stmt = vertex.stmt
    if isinstance(stmt, Identity):
        return _param_transfer(pdg, vertex, state)
    if isinstance(stmt, (Assign, Return)):
        return _operand_value(pdg, vertex.function, stmt.source, state)
    if isinstance(stmt, Branch):
        return _operand_value(pdg, vertex.function, stmt.cond, state)
    if isinstance(stmt, IfThenElse):
        return _ite_transfer(pdg, vertex, stmt, state)
    if isinstance(stmt, Binary):
        return _binary_transfer(pdg, vertex, stmt, state)
    if isinstance(stmt, Call):
        return _call_transfer(pdg, vertex, stmt, state)
    raise TypeError(f"no transfer for {stmt!r}")


def _param_transfer(pdg: ProgramDependenceGraph, vertex: Vertex,
                    state: AbstractState) -> AbsValue:
    """Parameter identity: join the call-edge actuals, then force the
    interval to top (see the module docstring for why parameters must
    stay unconstrained)."""
    joined = AbsValue(Interval.top(state.width), Nullness.NOT_NULL,
                      frozenset())
    for edge in pdg.data_preds(vertex):
        if edge.kind is not EdgeKind.CALL:
            continue
        actual = state.values[edge.src.index]
        if actual.is_bottom:
            continue
        joined = joined.join(actual)
    return AbsValue(Interval.top(state.width), joined.nullness,
                    joined.taints)


def _ite_transfer(pdg: ProgramDependenceGraph, vertex: Vertex,
                  stmt: IfThenElse, state: AbstractState) -> AbsValue:
    cond = _operand_value(pdg, vertex.function, stmt.cond, state)
    if cond.is_bottom:
        return AbsValue.bottom()
    then_value = _operand_value(pdg, vertex.function, stmt.then_value,
                                state)
    else_value = _operand_value(pdg, vertex.function, stmt.else_value,
                                state)
    if cond.interval.definitely_true:
        return then_value
    if cond.interval.definitely_false:
        return else_value
    return then_value.join(else_value)


def _binary_transfer(pdg: ProgramDependenceGraph, vertex: Vertex,
                     stmt: Binary, state: AbstractState) -> AbsValue:
    lhs = _operand_value(pdg, vertex.function, stmt.lhs, state)
    rhs = _operand_value(pdg, vertex.function, stmt.rhs, state)
    if lhs.is_bottom or rhs.is_bottom:
        return AbsValue.bottom()
    interval = binary_interval(stmt.op, lhs.interval, rhs.interval,
                               state.width)
    # Arithmetic produces a fresh non-null value; comparisons and logical
    # connectives drop provenance (as in the reference interpreter,
    # tests/interp_oracle.py).
    if stmt.op.is_comparison or stmt.op.is_logical:
        taints: frozenset = frozenset()
    else:
        taints = lhs.taints | rhs.taints
    return AbsValue(interval, Nullness.NOT_NULL, taints)


def _call_transfer(pdg: ProgramDependenceGraph, vertex: Vertex,
                   stmt: Call, state: AbstractState) -> AbsValue:
    if pdg.program.is_extern(stmt.callee):
        # Extern results are havoc for feasibility (the SMT translation
        # leaves them free), so the interval must be top even though the
        # interpreter's default model returns small constants.
        taints = frozenset({stmt.callee}) \
            if stmt.callee in TAINT_SOURCES else frozenset()
        return AbsValue(Interval.top(state.width), Nullness.NOT_NULL,
                        taints)
    result = AbsValue.bottom()
    for edge in pdg.data_preds(vertex):
        if edge.kind is EdgeKind.RETURN:
            result = result.join(state.values[edge.src.index])
    return result
