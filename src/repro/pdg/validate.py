"""PDG well-formedness validation.

A released analysis framework needs an invariant checker for its central
data structure; this one verifies everything the engines rely on:

* every variable use has exactly one defining vertex reachable through a
  data edge (or is a constant);
* call/return edges carry matching parenthesis labels and connect the
  vertices Figure 5 prescribes;
* control parents are branches of the same function;
* the *intra-procedural* data-dependence relation is acyclic (guaranteed
  by SSA) and the call graph is acyclic (guaranteed by recursion
  unrolling).  Note the whole graph is *not* acyclic in general: a
  receiver feeding a later call site of the same callee closes a cycle
  whose call/return labels do not match — only label-matched (valid)
  paths are acyclic, which is what CFL-reachability exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.ir import Branch, Call, Identity, Var
from repro.pdg.graph import EdgeKind, ProgramDependenceGraph, Vertex


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def add(self, message: str) -> None:
        self.errors.append(message)


def validate_pdg(pdg: ProgramDependenceGraph) -> ValidationReport:
    report = ValidationReport()
    _check_uses_have_defs(pdg, report)
    _check_call_return_labels(pdg, report)
    _check_control_parents(pdg, report)
    _check_acyclic(pdg, report)
    return report


def _check_uses_have_defs(pdg: ProgramDependenceGraph,
                          report: ValidationReport) -> None:
    for vertex in pdg.vertices:
        stmt = vertex.stmt
        if isinstance(stmt, Call) and \
                stmt.callee in pdg.program.functions:
            continue  # operands flow through labelled call edges instead
        incoming = {e.src.var.name for e in pdg.data_preds(vertex)
                    if e.kind in (EdgeKind.LOCAL, EdgeKind.EXTERN)}
        for operand in stmt.operands():
            if isinstance(operand, Var) and operand.name not in incoming:
                report.add(f"{vertex!r}: use of {operand.name} has no "
                           f"data edge")


def _check_call_return_labels(pdg: ProgramDependenceGraph,
                              report: ValidationReport) -> None:
    for site_id, site in pdg.callsites.items():
        call_stmt = site.call_vertex.stmt
        if not isinstance(call_stmt, Call):
            report.add(f"call site {site_id}: vertex is not a call")
            continue
        # Return edge: callee return -> receiver, labelled with site_id.
        ret = pdg.return_vertex(site.callee)
        if ret is not None:
            return_edges = [e for e in pdg.data_preds(site.call_vertex)
                            if e.kind is EdgeKind.RETURN]
            if not any(e.callsite == site_id and e.src is ret
                       for e in return_edges):
                report.add(f"call site {site_id}: missing return edge "
                           f"from {site.callee}")
        # Call edges: every Var actual -> the matching param identity.
        params = pdg.param_vertices(site.callee)
        for actual, param_vertex in zip(call_stmt.args, params):
            if not isinstance(actual, Var):
                continue
            if not isinstance(param_vertex.stmt, Identity):
                report.add(f"call site {site_id}: param vertex is not an "
                           f"identity")
                continue
            edges = [e for e in pdg.data_preds(param_vertex)
                     if e.kind is EdgeKind.CALL and e.callsite == site_id]
            if not any(e.src.var.name == actual.name for e in edges):
                report.add(f"call site {site_id}: actual {actual.name} "
                           f"not connected to {param_vertex!r}")


def _check_control_parents(pdg: ProgramDependenceGraph,
                           report: ValidationReport) -> None:
    for vertex in pdg.vertices:
        parent = pdg.control_parent(vertex)
        if parent is None:
            continue
        if not isinstance(parent.stmt, Branch):
            report.add(f"{vertex!r}: control parent is not a branch")
        if parent.function != vertex.function:
            report.add(f"{vertex!r}: control parent crosses functions")
        # The chain must terminate (no cycles among branches).
        seen = {vertex.index}
        node = parent
        while node is not None:
            if node.index in seen:
                report.add(f"{vertex!r}: cyclic control chain")
                break
            seen.add(node.index)
            node = pdg.control_parent(node)


def _check_acyclic(pdg: ProgramDependenceGraph,
                   report: ValidationReport) -> None:
    """Intra-procedural data edges must be acyclic (SSA), and the call
    graph must be acyclic (recursion already unrolled)."""
    state: dict[int, int] = {}  # 0 in progress, 1 done

    def local_preds(vertex: Vertex):
        return [e.src for e in pdg.data_preds(vertex)
                if e.kind in (EdgeKind.LOCAL, EdgeKind.EXTERN)]

    def visit(root: Vertex) -> bool:
        stack: list[tuple[Vertex, int]] = [(root, 0)]
        while stack:
            vertex, edge_index = stack.pop()
            if edge_index == 0:
                if state.get(vertex.index) == 1:
                    continue
                state[vertex.index] = 0
            preds = local_preds(vertex)
            if edge_index < len(preds):
                stack.append((vertex, edge_index + 1))
                nxt = preds[edge_index]
                status = state.get(nxt.index)
                if status == 0:
                    return False  # back edge: cycle
                if status is None:
                    stack.append((nxt, 0))
            else:
                state[vertex.index] = 1
        return True

    for vertex in pdg.vertices:
        if vertex.index not in state:
            if not visit(vertex):
                report.add("intra-procedural data-dependence cycle "
                           "detected")
                return

    from repro.pdg.callgraph import CallGraph

    if CallGraph(pdg.program).recursive_functions():
        report.add("call graph contains cycles (recursion not unrolled)")
