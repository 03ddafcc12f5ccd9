"""Taint checkers: CWE-23 (relative path traversal) and CWE-402
(transmission of private resources).

Section 4 of the paper: CWE-23 "is modeled as a data dependence path from
an external input to file operations, e.g., from input=gets(...) to
fopen(...)"; CWE-402 "is modeled as a data dependence path from sensitive
data to I/O operations, e.g., from password=getpass(...) to sendmsg(...)".

Unlike the null checker, taint survives arithmetic and library transforms
(string concatenation etc. are modelled as extern calls), so the fact
propagates through ``Binary`` statements and EXTERN edges.
"""

from __future__ import annotations

from repro.lang.ir import Assign, Binary, Call, IfThenElse, Return, Var
from repro.checkers.base import Checker, CheckerFootprint
from repro.pdg.graph import DataEdge, EdgeKind, ProgramDependenceGraph, Vertex


class TaintChecker(Checker):
    """Generic source-call to sink-call taint tracking."""

    def __init__(self, name: str, source_calls: frozenset[str],
                 sink_calls: frozenset[str],
                 sanitizers: frozenset[str] = frozenset()) -> None:
        self.name = name
        self.source_calls = source_calls
        self.sink_calls = sink_calls
        self.sanitizers = sanitizers

    def footprint(self) -> CheckerFootprint:
        return CheckerFootprint(
            checker=self.name,
            source_symbols=self.source_calls,
            sink_symbols=self.sink_calls)

    def sources(self, pdg: ProgramDependenceGraph) -> list[Vertex]:
        return pdg.sites.calling(self.source_calls)

    def propagates(self, edge: DataEdge) -> bool:
        if edge.kind in (EdgeKind.CALL, EdgeKind.RETURN):
            return True
        dst = edge.dst.stmt
        if isinstance(dst, Call):
            # Taint flows through library transforms but dies in a
            # sanitizer; sink calls are handled by is_sink_edge.
            return dst.callee not in self.sanitizers \
                and dst.callee not in self.sink_calls
        if isinstance(dst, (Assign, Return, Binary)):
            return True
        if isinstance(dst, IfThenElse):
            ite = dst
            name = edge.src.var.name
            return any(isinstance(slot, Var) and slot.name == name
                       for slot in (ite.then_value, ite.else_value))
        return False  # branch conditions

    def is_sink_edge(self, edge: DataEdge) -> bool:
        dst = edge.dst.stmt
        return (edge.kind is EdgeKind.EXTERN and isinstance(dst, Call)
                and dst.callee in self.sink_calls)


#: Sources/sinks for relative path traversal (CWE-23).
CWE23_SOURCES = frozenset({"gets", "read_input", "recv", "getenv"})
CWE23_SINKS = frozenset({"fopen", "open_file", "opendir", "unlink"})
CWE23_SANITIZERS = frozenset({"canonicalize", "sanitize_path"})

#: Sources/sinks for private-resource transmission (CWE-402).
CWE402_SOURCES = frozenset({"getpass", "get_password", "read_key",
                            "load_secret"})
CWE402_SINKS = frozenset({"send", "sendmsg", "write_socket", "log_remote"})
CWE402_SANITIZERS = frozenset({"redact", "hash_secret"})


def cwe23_checker() -> TaintChecker:
    """Relative path traversal: external input reaches a file operation."""
    return TaintChecker("cwe-23", CWE23_SOURCES, CWE23_SINKS,
                        CWE23_SANITIZERS)


def cwe402_checker() -> TaintChecker:
    """Private data transmission: a secret reaches an I/O operation."""
    return TaintChecker("cwe-402", CWE402_SOURCES, CWE402_SINKS,
                        CWE402_SANITIZERS)
