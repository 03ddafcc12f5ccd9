"""PDG construction: the data-dependence rules of Figure 5 plus the
innermost-branch control dependence of Definition 3.1.

Call statements targeting a *defined* function produce labelled call edges
(actual -> parameter identity) and a labelled return edge (callee return ->
receiver); calls to *empty* functions (externs) connect each actual
directly to the receiver.  Each call statement gets a globally unique
call-site id — the parenthesis label of the CFL-reachability formulation.
"""

from __future__ import annotations

import itertools

from repro.lang.ir import Branch, Call, Program, Stmt
from repro.pdg.graph import (CallSite, DataEdge, EdgeKind,
                             ProgramDependenceGraph, Vertex)


def structural_control_deps(function_body: list[Stmt]) -> dict[int, set[int]]:
    """Control dependence straight from branch nesting.

    Only the *innermost* enclosing branch is recorded: this matches the
    Ferrante–Ottenstein–Warren semantics (and the paper's Figure 7, where
    ``r = q`` depends on ``if (f=e)`` which itself depends on
    ``if (c=b)``) — the full chain is recovered transitively through the
    branch statements' own control dependences, which is exactly what
    Rule (2) of Figure 8 does during slicing.
    """
    result: dict[int, set[int]] = {}

    def walk(stmts: list[Stmt], parent: int | None) -> None:
        for stmt in stmts:
            result[id(stmt)] = set() if parent is None else {parent}
            if isinstance(stmt, Branch):
                walk(stmt.body, id(stmt))

    walk(function_body, None)
    return result


def build_pdg(program: Program) -> ProgramDependenceGraph:
    """Build the whole-program dependence graph.

    The program must be recursion-free (run
    :func:`repro.pdg.callgraph.unroll_recursion` first if needed);
    recursion would make the template instantiation of the engines
    non-terminating, mirroring the paper's up-front call-graph unrolling.
    """
    from repro.pdg.callgraph import CallGraph

    if CallGraph(program).recursive_functions():
        raise ValueError(
            "program contains recursion; apply unroll_recursion() first")

    pdg = ProgramDependenceGraph(program)
    callsite_counter = itertools.count(1)

    # Pass 1: vertices and control-dependence edges.
    for function in program.functions.values():
        control = structural_control_deps(function.body)
        stmt_vertex: dict[int, Vertex] = {}
        for stmt in function.statements():
            stmt_vertex[id(stmt)] = pdg.add_vertex(function.name, stmt)
        for stmt in function.statements():
            for branch_id in control[id(stmt)]:
                pdg.set_control_parent(stmt_vertex[id(stmt)],
                                       stmt_vertex[branch_id])
        pdg._param_vertices[function.name] = [
            stmt_vertex[id(s)] for s in function.body[:len(function.params)]]
        ret = function.return_stmt
        if ret is not None:
            pdg._return_vertex[function.name] = stmt_vertex[id(ret)]

    # Pass 2: data-dependence edges (Figure 5).
    for function in program.functions.values():
        for stmt in function.statements():
            vertex = pdg.vertex_of(stmt)
            if isinstance(stmt, Call) and stmt.callee in program.functions:
                _add_call_edges(pdg, function.name, vertex, stmt,
                                next(callsite_counter))
            elif isinstance(stmt, Call):
                # Empty function: actual -> receiver (Figure 5, last rule).
                for operand in stmt.operands():
                    _add_use_edge(pdg, function.name, vertex, operand,
                                  EdgeKind.EXTERN)
            else:
                for operand in stmt.operands():
                    _add_use_edge(pdg, function.name, vertex, operand)
    return pdg


def _add_use_edge(pdg: ProgramDependenceGraph, function: str,
                  vertex: Vertex, operand,
                  kind: EdgeKind = EdgeKind.LOCAL) -> None:
    src = pdg.def_of_operand(function, operand)
    if src is not None:
        pdg.add_data_edge(DataEdge(src, vertex, kind))


def _add_call_edges(pdg: ProgramDependenceGraph, caller: str,
                    call_vertex: Vertex, stmt: Call,
                    callsite_id: int) -> None:
    callee = pdg.program.functions[stmt.callee]
    params = pdg.param_vertices(callee.name)
    if len(stmt.args) != len(callee.params):
        raise ValueError(
            f"call to {callee.name} with {len(stmt.args)} args, "
            f"expected {len(callee.params)}")
    pdg.callsites[callsite_id] = CallSite(callsite_id, caller, callee.name,
                                          call_vertex)
    # Actual -> formal identity, labelled "(i".
    for actual, param_vertex in zip(stmt.args, params):
        src = pdg.def_of_operand(caller, actual)
        if src is not None:
            pdg.add_data_edge(DataEdge(src, param_vertex, EdgeKind.CALL,
                                       callsite_id))
    # Callee return -> receiver, labelled ")i".
    ret = pdg.return_vertex(callee.name)
    if ret is not None:
        pdg.add_data_edge(DataEdge(ret, call_vertex, EdgeKind.RETURN,
                                   callsite_id))
