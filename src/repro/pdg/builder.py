"""PDG construction (Definition 3.1, Figure 5): one walk per function,
then a link.

The walk records each statement with its control parent, the innermost
enclosing branch (the FOW semantics of the paper's Figure 7; Rule (2)
of Figure 8 recovers outer branches transitively), and resolves each
operand to the local index of its one SSA definition.  It is also the
IR validator.  The link numbers vertices at each function's offset and
replays each statement's edges in statement order, so edge lists
interleave local and call edges as one pass over the program would.  A
call to a defined function gets a call-site id (the CFL parenthesis
label), call edges actual -> parameter identity and a return edge
callee return -> receiver; a call to an extern (empty function) links
each actual to the receiver.
"""

from __future__ import annotations

from typing import Container, NamedTuple, Optional

from repro.lang.ir import Branch, Call, Function, Program, Return, Stmt, Var
from repro.pdg.graph import (CallSite, DataEdge, EdgeKind,
                             ProgramDependenceGraph, Vertex)


class Fragment(NamedTuple):
    """One function's walk.  ``rows`` holds, per statement in program
    order: the statement, the local index of its control parent (-1 at
    top level), the kind of its incoming edges (None for a call to a
    defined function) and, per operand, the local index of its
    definition (None for a constant)."""

    function: Function
    rows: list[tuple[Stmt, int, Optional[EdgeKind], list]]
    defs: dict[str, int]  # variable name -> local index
    ret: int  # local index of the return, -1 if there is none
    callees: set[str]  # defined functions it calls


def walk_function(function: Function,
                  defined: Container[str] = ()) -> Fragment:
    """Walk ``function`` once; calls to ``defined`` get call edges.

    Raises ``ValueError`` if the function is not in SSA form, uses an
    undefined variable or has more than one return.  Iterative: branch
    nesting grows with the unroll bound, which may exceed the stack."""
    rows: list = []
    defs: dict[str, int] = {}
    callees: set[str] = set()
    returns, late = [], []  # late: rows using a variable defined after them
    stack = [(iter(function.body), -1)]
    while stack:
        stmts, parent = stack[-1]
        for stmt in stmts:
            index = len(rows)
            name = stmt.result.name
            if name in defs:
                raise ValueError(f"{function.name}: variable {name} "
                                 f"defined twice (SSA violation)")
            defs[name] = index
            # -1: defined later in the function, or never (checked below).
            used = [defs.get(op.name, -1) if isinstance(op, Var) else None
                    for op in stmt.operands()]
            if -1 in used:
                late.append(index)
            kind: Optional[EdgeKind] = EdgeKind.LOCAL
            if isinstance(stmt, Call):
                kind = None if stmt.callee in defined else EdgeKind.EXTERN
                if kind is None:
                    callees.add(stmt.callee)
            elif isinstance(stmt, Return):
                returns.append(index)
            rows.append((stmt, parent, kind, used))
            if isinstance(stmt, Branch):
                stack.append((iter(stmt.body), index))
                break
        else:
            stack.pop()
    for index in late:
        stmt, _, _, used = rows[index]
        for position, op in enumerate(stmt.operands()):
            if used[position] == -1:
                if op.name not in defs:
                    raise ValueError(f"{function.name}: use of undefined "
                                     f"variable {op.name} in {stmt!r}")
                used[position] = defs[op.name]
    if len(returns) > 1:
        raise ValueError(f"{function.name}: multiple return statements")
    return Fragment(function, rows, defs, returns[0] if returns else -1,
                    callees)


def build_pdg(program: Program, *,
              unroll: bool = False) -> ProgramDependenceGraph:
    """Validate ``program`` and build its whole-program dependence graph.

    Recursion would make the engines' template instantiation
    non-terminating: with ``unroll`` a recursive program is first passed
    through :func:`repro.pdg.callgraph.unroll_recursion` (the paper's
    up-front call-graph unrolling); without it, recursion raises."""
    from repro.pdg.callgraph import CallGraph, unroll_recursion

    fragments = [walk_function(function, program.functions)
                 for function in program.functions.values()]
    graph = CallGraph(program, {fragment.function.name: fragment.callees
                                for fragment in fragments})
    if graph.recursive_functions():
        if unroll:
            return build_pdg(unroll_recursion(program))
        raise ValueError(
            "program contains recursion; apply unroll_recursion() first")

    pdg = ProgramDependenceGraph(program)
    for fragment in fragments:
        function = fragment.function
        offset = len(pdg.vertices)
        local = pdg._function_vertices[function.name] = []
        for index, (stmt, parent, _, _) in enumerate(fragment.rows):
            local.append(Vertex(offset + index, function.name, stmt))
            if parent >= 0:
                pdg._control_parent[offset + index] = local[parent]
        pdg.vertices.extend(local)
        pdg._def_of[function.name] = {var: local[index] for var, index
                                      in fragment.defs.items()}
        pdg._param_vertices[function.name] = [
            local[fragment.defs[stmt.result.name]]
            for stmt in function.body[:len(function.params)]]
        if fragment.ret >= 0:
            pdg._return_vertex[function.name] = local[fragment.ret]

    pdg._preds = [[] for _ in pdg.vertices]
    pdg._succs = [[] for _ in pdg.vertices]
    add = pdg.add_data_edge
    callsite_id = 0
    for fragment in fragments:
        caller = fragment.function.name
        local = pdg._function_vertices[caller]
        for dst, (stmt, _, kind, used) in zip(local, fragment.rows):
            if kind is not None:
                for src in used:
                    if src is not None:
                        add(DataEdge(local[src], dst, kind))
                continue
            callee = program.functions[stmt.callee]
            if len(used) != len(callee.params):
                raise ValueError(
                    f"call to {callee.name} with {len(used)} args, "
                    f"expected {len(callee.params)}")
            callsite_id += 1
            pdg.callsites[callsite_id] = CallSite(callsite_id, caller,
                                                  callee.name, dst)
            # Actual -> formal identity, labelled "(i".
            for src, param in zip(used, pdg.param_vertices(callee.name)):
                if src is not None:
                    add(DataEdge(local[src], param, EdgeKind.CALL,
                                 callsite_id))
            # Callee return -> receiver, labelled ")i".
            ret = pdg.return_vertex(callee.name)
            if ret is not None:
                add(DataEdge(ret, dst, EdgeKind.RETURN, callsite_id))
    return pdg
