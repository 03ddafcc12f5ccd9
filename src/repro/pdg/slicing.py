r"""Slicing the PDG with respect to a set of dependence paths (Rules 1-3).

Given Π, the slice is the sub-graph the paths' feasibility depends on:

* **Rule (1)** — entering an ``ite`` through its then (else) operand forces
  the ite condition true (false).  We record this as a *requirement*
  attached to the frame the step executes in, rather than physically
  pruning the competing edge: a requirement plus the full ite translation
  is logically equivalent to the pruned translation of Figure 8.
* **Rule (2)** — every branch in the transitive control-dependence chain
  of a path vertex must evaluate to true; these become requirements too,
  and their condition definitions seed the data closure.  Where the path
  enters a callee through a call edge, the chain of that call statement
  counts too, in the caller's frame: the callee runs only if the call
  does.
* **Rule (3)** — the data-dependence closure of those seeds, per function.
  The closure crosses return edges into callees (pulling in return-value
  conditions, e.g. ``z = y /\ y = 2x`` of the paper's ``bar``) and crosses
  call edges back to actual arguments.  Needed-vertex sets are kept *per
  function* (a union over calling contexts): this is sound because
  definitional equations are always satisfiable-extendable, and it is
  precisely what lets Fusion keep one un-cloned template per function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from typing import TYPE_CHECKING

from repro.lang.ir import IfThenElse, Var
from repro.limits import Deadline
from repro.pdg.graph import ProgramDependenceGraph, Vertex

if TYPE_CHECKING:  # avoid a package-level import cycle with repro.sparse
    from repro.sparse.paths import DependencePath, Frame


@dataclass(frozen=True)
class Requirement:
    """The condition of ``vertex`` (a Branch or IfThenElse) must equal
    ``value`` in calling context ``frame``."""

    frame: Frame
    vertex: Vertex
    value: bool

    def __repr__(self) -> str:
        return f"req[{self.vertex!r} == {self.value} @ {self.frame!r}]"


@dataclass
class Slice:
    """The result of Rules (1)-(3)."""

    needed: dict[str, set[Vertex]] = field(default_factory=dict)
    requirements: list[Requirement] = field(default_factory=list)

    def size(self) -> int:
        """Slice size (paper: O(n+m), counted without cloning)."""
        return sum(len(vs) for vs in self.needed.values())

    def needed_in(self, function: str) -> set[Vertex]:
        return self.needed.get(function, set())


def compute_slice(pdg: ProgramDependenceGraph,
                  paths: Iterable[DependencePath],
                  deadline: Optional[Deadline] = None) -> Slice:
    """Apply Rules (1)-(3) to Π.

    ``deadline`` (when given) bounds the computation: a query's per-query
    clock covers its slicing stage, so a pathological closure raises
    :class:`~repro.limits.QueryDeadlineExceeded` instead of running
    unbounded (the caller converts that to an UNKNOWN verdict).
    """
    result = Slice()
    seeds: list[Vertex] = []
    seen_reqs: set[tuple[int, int, bool]] = set()

    def add_requirement(frame: Frame, vertex: Vertex, value: bool) -> None:
        key = (frame.fid, vertex.index, value)
        if key in seen_reqs:
            return
        seen_reqs.add(key)
        result.requirements.append(Requirement(frame, vertex, value))
        cond = vertex.stmt.cond  # Branch and IfThenElse both expose .cond
        src = pdg.def_of_operand(vertex.function, cond)
        if src is not None:
            seeds.append(src)

    for path in paths:
        if deadline is not None:
            deadline.check("slicing")
        for i, step in enumerate(path.steps):
            # Rule (1): requirements from on-path ite traversals.
            if i > 0 and isinstance(step.vertex.stmt, IfThenElse):
                prev = path.steps[i - 1].vertex
                ite = step.vertex.stmt
                feeds_then = _operand_defined_by(ite.then_value, prev)
                feeds_else = _operand_defined_by(ite.else_value, prev)
                if feeds_then and not feeds_else:
                    add_requirement(step.frame, step.vertex, True)
                elif feeds_else and not feeds_then:
                    add_requirement(step.frame, step.vertex, False)
            # Rule (2): the transitive control-dependence chain.
            for branch in pdg.control_chain(step.vertex):
                add_requirement(step.frame, branch, True)
            # A call edge enters the callee only if the call statement
            # runs: its chain binds in the caller's frame.  (The call
            # vertex is on the path only when a return edge comes back
            # to it.)
            if i > 0 and not step.frame.via_return \
                    and step.frame.parent == path.steps[i - 1].frame:
                call = pdg.callsites[step.frame.callsite].call_vertex
                for branch in pdg.control_chain(call):
                    add_requirement(step.frame.parent, branch, True)

    _data_closure(pdg, seeds, result, deadline)
    return result


def _operand_defined_by(operand, vertex: Vertex) -> bool:
    return isinstance(operand, Var) and operand.name == vertex.var.name


def _data_closure(pdg: ProgramDependenceGraph, seeds: list[Vertex],
                  result: Slice,
                  deadline: Optional[Deadline] = None) -> None:
    """Rule (3): transitively add everything the seeds data-depend on."""
    worklist = list(seeds)
    steps = 0
    while worklist:
        steps += 1
        if deadline is not None and steps & 0x3F == 0:
            deadline.check("slicing")
        vertex = worklist.pop()
        bucket = result.needed.setdefault(vertex.function, set())
        if vertex in bucket:
            continue
        bucket.add(vertex)
        for edge in pdg.data_preds(vertex):
            # LOCAL stays in-function; RETURN dives into the callee's
            # return-value condition; CALL pulls the actuals of every call
            # site (union over contexts); EXTERN pulls the actuals feeding
            # an empty function.
            worklist.append(edge.src)
