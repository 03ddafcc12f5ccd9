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

from array import array
from itertools import islice
from typing import Container, NamedTuple, Optional

from repro.collector import paused
from repro.lang.ir import Branch, Call, Function, Program, Return, Stmt, Var
from repro.pdg.graph import (CallSite, DataEdge, EdgeKind,
                             ProgramDependenceGraph, Vertex)

# Vertices and local edges are built with ``tuple.__new__``, skipping
# the named tuples' Python-level constructors (as the lexer does for
# tokens): they are the link's two most numerous objects.
_new = tuple.__new__


class Fragment(NamedTuple):
    """One function's walk, and the PDG's record of that function.

    Per statement ``stmts[i]``, in program order: ``parent[i]`` is the
    local index of its control parent (-1 at top level), and
    ``used[starts[i]:starts[i + 1]]`` the local index of each operand's
    definition (-1 for a constant).  A fragment lives as long as its
    PDG, so the columns are int arrays rather than per-statement
    tuples.  Nothing writes them after the walk, so a version may share
    an unchanged function's fragment with the next (:func:`build_pdg`'s
    ``previous``)."""

    function: Function
    stmts: tuple[Stmt, ...]
    parent: array
    used: array
    starts: array
    defs: dict[str, int]  # variable name -> local index
    ret: int  # local index of the return, -1 if there is none
    callees: frozenset[str]  # defined functions it calls


def walk_function(function: Function,
                  defined: Container[str] = ()) -> Fragment:
    """Walk ``function`` once; calls to ``defined`` get call edges.

    Raises ``ValueError`` if the function is not in SSA form, uses an
    undefined variable or has more than one return.  Iterative: branch
    nesting grows with the unroll bound, which may exceed the stack."""
    stmts, parents, used, starts = [], [], [], [0]
    defs: dict[str, int] = {}
    callees: set[str] = set()
    returns, late = [], []  # late: (slot, stmt) using a later definition
    stack = [(iter(function.body), -1)]
    while stack:
        body, parent = stack[-1]
        for stmt in body:
            index = len(stmts)
            name = stmt.result.name
            if name in defs:
                raise ValueError(f"{function.name}: variable {name} "
                                 f"defined twice (SSA violation)")
            defs[name] = index
            # -2: defined later in the function, or never (checked below).
            row = [defs.get(op.name, -2) if isinstance(op, Var) else -1
                   for op in stmt.operands()]
            if -2 in row:
                late.append((len(used), stmt))
            stmts.append(stmt)
            parents.append(parent)
            used += row
            starts.append(len(used))
            if isinstance(stmt, Call):
                if stmt.callee in defined:
                    callees.add(stmt.callee)
            elif isinstance(stmt, Return):
                returns.append(index)
            if isinstance(stmt, Branch):
                stack.append((iter(stmt.body), index))
                break
        else:
            stack.pop()
    for slot, stmt in late:
        for position, op in enumerate(stmt.operands(), slot):
            if used[position] == -2:
                if op.name not in defs:
                    raise ValueError(f"{function.name}: use of undefined "
                                     f"variable {op.name} in {stmt!r}")
                used[position] = defs[op.name]
    if len(returns) > 1:
        raise ValueError(f"{function.name}: multiple return statements")
    return Fragment(function, tuple(stmts), array("i", parents),
                    array("i", used), array("i", starts), defs,
                    returns[0] if returns else -1, frozenset(callees))


@paused
def build_pdg(program: Program, *, unroll: bool = False,
              previous: Optional[ProgramDependenceGraph] = None
              ) -> ProgramDependenceGraph:
    """Validate ``program`` and build its whole-program dependence graph.

    Recursion would make the engines' template instantiation
    non-terminating: with ``unroll`` a recursive program is first passed
    through :func:`repro.pdg.callgraph.unroll_recursion` (the paper's
    up-front call-graph unrolling); without it, recursion raises.

    ``previous`` is an earlier version's PDG.  When it defines the same
    function names, each function that is the very same ``Function``
    object keeps its fragment instead of being walked again: a walk
    reads only the function and the defined names.  The link is always
    whole-program, so the result equals a build without ``previous``."""
    from repro.pdg.callgraph import CallGraph, unroll_recursion

    functions = program.functions
    carried = previous._fragments if previous is not None \
        and previous.program.functions.keys() == functions.keys() else {}
    fragments = []
    for name, function in functions.items():
        fragment = carried.get(name)
        if fragment is None or fragment.function is not function:
            fragment = walk_function(function, functions)
        fragments.append(fragment)
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
        name = function.name
        pdg._fragments[name] = fragment
        local = pdg._function_vertices[name] = [
            _new(Vertex, (index, name, stmt))
            for index, stmt in enumerate(fragment.stmts, len(pdg.vertices))]
        pdg._control_parent += [local[parent] if parent >= 0 else None
                                for parent in fragment.parent]
        pdg._control_edges += len(local) - fragment.parent.count(-1)
        pdg.vertices += local
        pdg._param_vertices[name] = [
            local[fragment.defs[stmt.result.name]]
            for stmt in function.body[:len(function.params)]]
        if fragment.ret >= 0:
            pdg._return_vertex[name] = local[fragment.ret]

    preds = pdg._preds = [[] for _ in pdg.vertices]
    succs = pdg._succs = [[] for _ in pdg.vertices]
    add = pdg.add_data_edge
    # Locals: an ``EdgeKind.X`` lookup is slow on Python 3.11.
    local_kind, extern_kind = EdgeKind.LOCAL, EdgeKind.EXTERN
    callsite_id = local_edges = offset = 0
    for fragment in fragments:
        caller = fragment.function.name
        local = pdg._function_vertices[caller]
        used, lo = fragment.used, 0
        for dst, hi in zip(local, islice(fragment.starts, 1, None)):
            stmt, operands, lo = dst.stmt, used[lo:hi], hi
            if not isinstance(stmt, Call) or stmt.callee not in functions:
                kind = extern_kind if isinstance(stmt, Call) \
                    else local_kind
                into = preds[dst.index]
                for src in operands:
                    if src >= 0:
                        edge = _new(DataEdge, (local[src], dst, kind, None))
                        into.append(edge)
                        succs[offset + src].append(edge)
                        local_edges += 1
                continue
            callee = functions[stmt.callee]
            if len(operands) != len(callee.params):
                raise ValueError(
                    f"call to {callee.name} with {len(operands)} args, "
                    f"expected {len(callee.params)}")
            callsite_id += 1
            pdg.callsites[callsite_id] = CallSite(callsite_id, caller,
                                                  callee.name, dst)
            # Actual -> formal identity, labelled "(i".
            for src, param in zip(operands, pdg.param_vertices(callee.name)):
                if src >= 0:
                    add(DataEdge(local[src], param, EdgeKind.CALL,
                                 callsite_id))
            # Callee return -> receiver, labelled ")i".
            ret = pdg.return_vertex(callee.name)
            if ret is not None:
                add(DataEdge(ret, dst, EdgeKind.RETURN, callsite_id))
        offset += len(local)
    pdg._data_edges += local_edges
    return pdg
