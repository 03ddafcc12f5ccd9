"""The program dependence graph (Definition 3.1).

``G = (V, E_d, E_c)``: vertices are statements (equivalently, the SSA
variable each defines); data-dependence edges follow Figure 5, with call
and return edges carrying a matched-parenthesis label — the call-site id —
in the CFL-reachability style the paper adopts from Reps [42]; control
dependence edges run from a statement to the *innermost* branch governing
it (the chain to outer branches is recovered transitively, as in the
paper's Figure 7).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional

from repro.lang.ir import Call, Operand, Program, Stmt, Var

if TYPE_CHECKING:
    from repro.pdg.builder import Fragment


class EdgeKind(enum.Enum):
    """Data-dependence edge flavours."""

    LOCAL = "local"    # intra-procedural def -> use
    CALL = "call"      # actual -> parameter identity, labelled "(i"
    RETURN = "return"  # callee return -> receiver, labelled ")i"
    EXTERN = "extern"  # actual -> receiver through an empty function


class Vertex(NamedTuple):
    """A PDG vertex: one statement of one function.  Equal and hashed
    by index alone."""

    index: int
    function: str
    stmt: Stmt

    @property
    def var(self) -> Var:
        """The variable this statement defines."""
        return self.stmt.result

    def __repr__(self) -> str:
        return f"<{self.function}:{self.stmt!r}>"

    def __hash__(self) -> int:
        return self.index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vertex) and other.index == self.index

    def __ne__(self, other: object) -> bool:
        return not self == other


class DataEdge(NamedTuple):
    """A data-dependence edge ``src -> dst`` (dst uses what src defines)."""

    src: Vertex
    dst: Vertex
    kind: EdgeKind = EdgeKind.LOCAL
    callsite: Optional[int] = None  # parenthesis label for CALL/RETURN

    def label(self) -> str:
        if self.kind is EdgeKind.CALL:
            return f"({self.callsite}"
        if self.kind is EdgeKind.RETURN:
            return f"){self.callsite}"
        return ""

    def __repr__(self) -> str:
        tag = f" {self.label()}" if self.label() else ""
        return f"{self.src!r} ->{tag} {self.dst!r}"


@dataclass
class CallSite:
    """One call statement calling a defined (non-empty) function."""

    callsite_id: int
    caller: str
    callee: str
    call_vertex: Vertex  # the receiver-defining call statement


class SiteIndex:
    """A PDG's vertices by statement class and by callee, in index order.

    Checkers name their sources and sink sites through it, so a view
    finds its seeds with a dict lookup instead of a pass over every
    vertex."""

    def __init__(self, vertices: Iterable[Vertex]) -> None:
        self._by_class: dict[type, list[Vertex]] = {}
        self._by_callee: dict[str, list[Vertex]] = {}
        for vertex in vertices:
            stmt = vertex.stmt
            self._by_class.setdefault(type(stmt), []).append(vertex)
            if isinstance(stmt, Call):
                self._by_callee.setdefault(stmt.callee, []).append(vertex)

    def of_class(self, stmt_class: type) -> list[Vertex]:
        """Vertices whose statement is exactly a ``stmt_class``."""
        return self._by_class.get(stmt_class, [])

    def calling(self, callees: Iterable[str]) -> list[Vertex]:
        """Call vertices whose callee is in ``callees``."""
        return sorted((vertex for callee in callees
                       for vertex in self._by_callee.get(callee, ())),
                      key=lambda vertex: vertex.index)


class ProgramDependenceGraph:
    """Whole-program PDG with vertex/edge queries used by every engine."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.vertices: list[Vertex] = []
        #: Per function: its walk (:class:`repro.pdg.builder.Fragment`),
        #: which resolves a variable name to its local index.
        self._fragments: dict[str, Fragment] = {}
        #: Data edges into / out of each vertex, by vertex index.
        self._preds: list[list[DataEdge]] = []
        self._succs: list[list[DataEdge]] = []
        #: Innermost governing branch of each vertex, by vertex index.
        self._control_parent: list[Optional[Vertex]] = []
        self._control_edges = 0
        self.callsites: dict[int, CallSite] = {}
        self._function_vertices: dict[str, list[Vertex]] = {}
        self._return_vertex: dict[str, Vertex] = {}
        self._param_vertices: dict[str, list[Vertex]] = {}
        self._data_edges = 0
        self._sites: Optional[SiteIndex] = None
        #: The artifact store's keys for this program version
        #: (:class:`repro.exec.store.ProgramIndex`), built by the first
        #: store bind, or by the edit that replaced a version holding one.
        self.store_index = None

    # ------------------------------------------------------------------ #
    # Construction API (used by the builder)
    # ------------------------------------------------------------------ #

    def add_data_edge(self, edge: DataEdge) -> None:
        self._preds[edge.dst.index].append(edge)
        self._succs[edge.src.index].append(edge)
        self._data_edges += 1

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def def_of(self, function: str, var: str) -> Vertex:
        return self._function_vertices[function][
            self._fragments[function].defs[var]]

    def def_of_operand(self, function: str,
                       operand: Operand) -> Optional[Vertex]:
        """Defining vertex of an operand, or None for constants."""
        fragment = self._fragments.get(function)
        if fragment is None or not isinstance(operand, Var):
            return None
        index = fragment.defs.get(operand.name)
        return None if index is None \
            else self._function_vertices[function][index]

    def data_preds(self, vertex: Vertex) -> list[DataEdge]:
        return self._preds[vertex.index]

    def data_succs(self, vertex: Vertex) -> list[DataEdge]:
        return self._succs[vertex.index]

    def backward_closure(self, indices: Iterable[int]) -> set[int]:
        """``indices`` plus every vertex index they transitively
        data-depend on."""
        closure = set(indices)
        stack = list(closure)
        while stack:
            for edge in self._preds[stack.pop()]:
                if edge.src.index not in closure:
                    closure.add(edge.src.index)
                    stack.append(edge.src.index)
        return closure

    def control_parent(self, vertex: Vertex) -> Optional[Vertex]:
        return self._control_parent[vertex.index]

    def control_chain(self, vertex: Vertex) -> Iterator[Vertex]:
        """The transitive chain of governing branches (Rule 2 closure)."""
        current = self.control_parent(vertex)
        while current is not None:
            yield current
            current = self.control_parent(current)

    def function_vertices(self, function: str) -> list[Vertex]:
        return self._function_vertices.get(function, [])

    def return_vertex(self, function: str) -> Optional[Vertex]:
        return self._return_vertex.get(function)

    def param_vertices(self, function: str) -> list[Vertex]:
        return self._param_vertices.get(function, [])

    def functions(self) -> Iterable[str]:
        return self._function_vertices.keys()

    @property
    def sites(self) -> SiteIndex:
        """Vertices by statement class and callee (built on first use)."""
        if self._sites is None:
            self._sites = SiteIndex(self.vertices)
        return self._sites

    # ------------------------------------------------------------------ #
    # Statistics (Table 2 columns)
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_data_edges(self) -> int:
        return self._data_edges

    @property
    def num_edges(self) -> int:
        return self._data_edges + self._control_edges

    def stats(self) -> dict[str, int]:
        return {
            "functions": len(self._function_vertices),
            "vertices": self.num_vertices,
            "data_edges": self._data_edges,
            "control_edges": self._control_edges,
            "callsites": len(self.callsites),
        }
