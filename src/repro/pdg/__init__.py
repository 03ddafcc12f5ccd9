"""Program dependence graph substrate (Definition 3.1 / Figure 5)."""

from repro.pdg.graph import (CallSite, DataEdge, EdgeKind,
                             ProgramDependenceGraph, SiteIndex, Vertex)
from repro.pdg.builder import build_pdg
from repro.pdg.callgraph import CallGraph, clone_function, unroll_recursion
from repro.pdg.slicing import Requirement, Slice, compute_slice
from repro.pdg.dot import pdg_to_dot, view_to_dot
from repro.pdg.reduce import SparsePDGView, ViewRegistry, build_view
from repro.pdg.validate import ValidationReport, validate_pdg

__all__ = [
    "CallSite", "DataEdge", "EdgeKind", "ProgramDependenceGraph",
    "SiteIndex", "Vertex",
    "build_pdg",
    "CallGraph", "clone_function", "unroll_recursion",
    "Requirement", "Slice", "compute_slice",
    "pdg_to_dot", "view_to_dot",
    "SparsePDGView", "ViewRegistry", "build_view",
    "ValidationReport", "validate_pdg",
]
