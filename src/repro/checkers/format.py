"""Human-readable rendering of analysis results.

Turns :class:`~repro.checkers.base.BugReport` objects into the kind of
report a scanning service publishes: the flow trace function-by-function,
the guards the path depends on, and (when available) a concrete witness.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.checkers.base import AnalysisResult, BugReport
from repro.pdg.graph import ProgramDependenceGraph
from repro.pdg.slicing import compute_slice

CHECKER_TITLES = {
    "null-deref": "Null pointer dereference",
    "cwe-23": "Relative path traversal (CWE-23)",
    "cwe-402": "Transmission of private resources (CWE-402)",
}


def format_trace(report: BugReport) -> str:
    """The dependence path, one hop per line, grouped by function."""
    lines = []
    last_function: Optional[str] = None
    for step in report.candidate.path.steps:
        vertex = step.vertex
        if vertex.function != last_function:
            lines.append(f"  in {vertex.function}() [frame "
                         f"#{step.frame.fid}]:")
            last_function = vertex.function
        lines.append(f"    {vertex.stmt!r}")
    return "\n".join(lines)


def format_guards(pdg: ProgramDependenceGraph, report: BugReport) -> str:
    """The branch/ite conditions the path's feasibility depends on."""
    the_slice = compute_slice(pdg, [report.candidate.path])
    if not the_slice.requirements:
        return "  (unconditional flow)"
    lines = []
    for requirement in the_slice.requirements:
        stmt = requirement.vertex.stmt
        want = "true" if requirement.value else "false"
        lines.append(f"  requires {stmt.cond!r} == {want}  "
                     f"(in {requirement.vertex.function}, frame "
                     f"#{requirement.frame.fid})")
    return "\n".join(lines)


def format_witness(report: BugReport, max_entries: int = 8) -> str:
    if not report.witness:
        return ""
    shown = sorted(report.witness.items())[:max_entries]
    pairs = ", ".join(f"{k} = {v}" for k, v in shown)
    suffix = ", ..." if len(report.witness) > max_entries else ""
    return f"  witness: {pairs}{suffix}"


def format_report(pdg: ProgramDependenceGraph, report: BugReport,
                  index: Optional[int] = None) -> str:
    title = CHECKER_TITLES.get(report.checker, report.checker)
    tag = "" if index is None else f"#{index} "
    verdict = "" if report.feasible else " [INFEASIBLE — filtered]"
    lines = [f"{tag}{title}{verdict}",
             f"  source: {report.source.function}: "
             f"{report.source.stmt!r}",
             f"  sink:   {report.sink.function}: {report.sink.stmt!r}",
             "  trace:",
             format_trace(report),
             "  feasibility:",
             format_guards(pdg, report)]
    witness = format_witness(report)
    if witness:
        lines.append(witness)
    return "\n".join(lines)


def format_results(pdg: ProgramDependenceGraph,
                   result: AnalysisResult,
                   include_infeasible: bool = False) -> str:
    """A complete scan report for one checker run."""
    reports: Iterable[BugReport] = result.reports if include_infeasible \
        else result.bugs
    reports = list(reports)
    header = (f"== {result.engine}/{result.checker}: "
              f"{len(result.bugs)} finding(s) from {result.candidates} "
              f"candidate flow(s), {result.smt_queries} SMT queries "
              f"({result.decided_in_preprocess} settled in preprocessing), "
              f"{result.wall_time:.2f}s ==")
    if not reports:
        return header + "\nno findings"
    body = "\n\n".join(format_report(pdg, report, i + 1)
                       for i, report in enumerate(reports))
    return header + "\n\n" + body
