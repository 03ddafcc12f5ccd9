"""Call graph construction and recursion unrolling.

"Recursive calls are handled as loops by unrolling each cycle twice on the
call graph" (Section 4).  :func:`unroll_recursion` clones every function in
a recursive SCC ``depth`` times; calls within the SCC redirect to the next
level, and calls at the deepest level fall back to an empty (extern)
function — the unconstrained-result bottom the paper's soundy bug
detectors accept.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from repro.lang.ir import Branch, Call, Function, Program, Stmt


@dataclass
class CallGraph:
    program: Program
    edges: dict[str, set[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.edges:  # collected by the PDG builder's walk
            return
        for function in self.program.functions.values():
            callees = {s.callee for s in function.statements()
                       if isinstance(s, Call)
                       and s.callee in self.program.functions}
            self.edges[function.name] = callees

    def callees(self, name: str) -> set[str]:
        return self.edges.get(name, set())

    # ------------------------------------------------------------------ #
    # SCCs (Tarjan, iterative)
    # ------------------------------------------------------------------ #

    def sccs(self) -> list[list[str]]:
        index: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        result: list[list[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            work = [(root, iter(sorted(self.callees(root))))]
            index[root] = lowlink[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for succ in it:
                    if succ not in index:
                        index[succ] = lowlink[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(sorted(self.callees(succ)))))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    result.append(component)

        for name in self.program.functions:
            if name not in index:
                strongconnect(name)
        return result

    def recursive_functions(self) -> set[str]:
        """Functions involved in any call-graph cycle (incl. self loops)."""
        recursive: set[str] = set()
        for scc in self.sccs():
            if len(scc) > 1:
                recursive.update(scc)
        for name in self.program.functions:
            if name in self.callees(name):
                recursive.add(name)
        return recursive

    def topological_order(self) -> list[str]:
        """Callees before callers; requires a recursion-free program."""
        if self.recursive_functions():
            raise ValueError("call graph has cycles")
        order: list[str] = []
        seen: set[str] = set()

        def visit(name: str) -> None:
            if name in seen:
                return
            seen.add(name)
            for callee in sorted(self.callees(name)):
                visit(callee)
            order.append(name)

        for name in self.program.functions:
            visit(name)
        return order


def _clone_stmts(stmts: list[Stmt], redirect: dict[str, str],
                 externized: set[str]) -> list[Stmt]:
    out: list[Stmt] = []
    for stmt in stmts:
        clone = copy.copy(stmt)
        if isinstance(clone, Branch):
            clone.body = _clone_stmts(stmt.body, redirect, externized)
        elif isinstance(clone, Call):
            if clone.callee in redirect:
                clone.callee = redirect[clone.callee]
            elif clone.callee in externized:
                # Deepest unrolling level: the call becomes an empty
                # function returning an unconstrained value.
                clone.callee = f"{clone.callee}%cut"
        out.append(clone)
    return out


def clone_function(function: Function, new_name: str,
                   redirect: dict[str, str],
                   externized: set[str]) -> Function:
    """Deep-copy a function, renaming it and redirecting calls."""
    return Function(new_name, function.params,
                    _clone_stmts(function.body, redirect, externized))


def unroll_recursion(program: Program, depth: int = 2) -> Program:
    """Return an equivalent recursion-free program.

    Each function in a recursive SCC gets ``depth`` clones (``f``,
    ``f%1``, ...); intra-SCC calls at level ``k`` target level ``k+1``;
    calls at the last level target a fresh extern, modelling the cut-off.
    Non-recursive programs are returned unchanged (same object).
    """
    graph = CallGraph(program)
    recursive = graph.recursive_functions()
    if not recursive:
        return program

    new_program = Program(width=program.width)
    new_program.externs.update(program.externs)
    scc_of = {member: scc for scc in graph.sccs() for member in scc}

    for name, function in program.functions.items():
        if name not in recursive:
            new_program.add(clone_function(function, name, {}, set()))
            continue
        scc = scc_of[name]
        for level in range(depth):
            level_name = name if level == 0 else f"{name}%{level}"
            if level < depth - 1:
                redirect = {m: f"{m}%{level + 1}" for m in scc}
                externized: set[str] = set()
            else:
                redirect = {}
                externized = set(scc)
            new_program.add(
                clone_function(function, level_name, redirect, externized))
    for name in recursive:
        new_program.externs.add(f"{name}%cut")
    return new_program
