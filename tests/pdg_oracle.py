"""Test oracle: the two-pass PDG builder.

``repro.pdg.builder.build_pdg`` walks each function once, resolving
operands to function-local definition indices, and then links call
sites.  This module keeps the construction it replaced: control
dependence from :func:`structural_control_deps`, then pass 1 adds
vertices and control parents, and pass 2 resolves every use to its
definition by ``(function, name)`` and adds the Figure 5 data edges,
statement by statement.  ``tests/test_pdg_oracle.py`` requires the two
to agree on everything a PDG fixes (:func:`pdg_shape`).
"""

from __future__ import annotations

import itertools

from repro.lang.ir import Branch, Call, Program, Stmt, Var
from repro.pdg.callgraph import CallGraph
from repro.pdg.graph import (CallSite, DataEdge, EdgeKind,
                             ProgramDependenceGraph, Vertex)


def pdg_shape(pdg: ProgramDependenceGraph) -> tuple:
    """Everything a build fixes about a PDG, in order: vertices (index,
    function, statement object), every pred and succ list, control
    parents, call sites, param and return vertices, and ``stats()``."""
    def edges(lists):
        return [[(e.src.index, e.dst.index, e.kind, e.callsite)
                 for e in pdg_edges] for pdg_edges in lists]

    vertices = [(v.index, v.function, id(v.stmt)) for v in pdg.vertices]
    parents = [getattr(pdg.control_parent(v), "index", None)
               for v in pdg.vertices]
    callsites = [(site.callsite_id, site.caller, site.callee,
                  site.call_vertex.index)
                 for site in pdg.callsites.values()]
    functions = {name: ([v.index for v in pdg.param_vertices(name)],
                        getattr(pdg.return_vertex(name), "index", None),
                        [v.index for v in pdg.function_vertices(name)])
                 for name in pdg.functions()}
    return (vertices,
            edges(pdg.data_preds(v) for v in pdg.vertices),
            edges(pdg.data_succs(v) for v in pdg.vertices),
            parents, callsites, functions, pdg.stats())


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


def oracle_pdg(program: Program) -> ProgramDependenceGraph:
    """Build the whole-program dependence graph in two passes.

    The program must be recursion-free (run
    :func:`repro.pdg.callgraph.unroll_recursion` first if needed);
    recursion would make the template instantiation of the engines
    non-terminating, mirroring the paper's up-front call-graph unrolling.
    """
    if CallGraph(program).recursive_functions():
        raise ValueError(
            "program contains recursion; apply unroll_recursion() first")

    pdg = ProgramDependenceGraph(program)
    callsite_counter = itertools.count(1)
    vertex_of: dict[int, Vertex] = {}  # statement id -> vertex
    def_of: dict[tuple[str, str], Vertex] = {}  # (function, var) -> vertex

    # Pass 1: vertices and control-dependence edges.
    for function in program.functions.values():
        control = structural_control_deps(function.body)
        for stmt in function.statements():
            vertex = _add_vertex(pdg, function.name, stmt)
            vertex_of[id(stmt)] = def_of[(function.name,
                                          stmt.result.name)] = vertex
        for stmt in function.statements():
            for branch_id in control[id(stmt)]:
                pdg._control_parent[vertex_of[id(stmt)].index] = \
                    vertex_of[branch_id]
                pdg._control_edges += 1
        pdg._param_vertices[function.name] = [
            vertex_of[id(s)] for s in function.body[:len(function.params)]]
        ret = function.return_stmt
        if ret is not None:
            pdg._return_vertex[function.name] = vertex_of[id(ret)]

    def use_edge(function: str, vertex: Vertex, operand,
                 kind: EdgeKind = EdgeKind.LOCAL) -> None:
        src = def_of.get((function, operand.name)) \
            if isinstance(operand, Var) else None
        if src is not None:
            pdg.add_data_edge(DataEdge(src, vertex, kind))

    # Pass 2: data-dependence edges (Figure 5).
    for function in program.functions.values():
        for stmt in function.statements():
            vertex = vertex_of[id(stmt)]
            if isinstance(stmt, Call) and stmt.callee in program.functions:
                _add_call_edges(pdg, def_of, function.name, vertex, stmt,
                                next(callsite_counter))
            elif isinstance(stmt, Call):
                # Empty function: actual -> receiver (Figure 5, last rule).
                for operand in stmt.operands():
                    use_edge(function.name, vertex, operand, EdgeKind.EXTERN)
            else:
                for operand in stmt.operands():
                    use_edge(function.name, vertex, operand)
    return pdg


def _add_vertex(pdg: ProgramDependenceGraph, function: str,
                stmt: Stmt) -> Vertex:
    vertex = Vertex(len(pdg.vertices), function, stmt)
    pdg.vertices.append(vertex)
    pdg._function_vertices.setdefault(function, []).append(vertex)
    pdg._control_parent.append(None)
    pdg._preds.append([])
    pdg._succs.append([])
    return vertex


def _add_call_edges(pdg: ProgramDependenceGraph,
                    def_of: dict[tuple[str, str], Vertex], caller: str,
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
        src = def_of.get((caller, actual.name)) \
            if isinstance(actual, Var) else None
        if src is not None:
            pdg.add_data_edge(DataEdge(src, param_vertex, EdgeKind.CALL,
                                       callsite_id))
    # Callee return -> receiver, labelled ")i".
    ret = pdg.return_vertex(callee.name)
    if ret is not None:
        pdg.add_data_edge(DataEdge(ret, call_vertex, EdgeKind.RETURN,
                                   callsite_id))
