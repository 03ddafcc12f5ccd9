"""Sparse analysis framework: paths, propagation, analysis driver."""

from repro.sparse.paths import (DependencePath, Frame, FrameTable, PathStep,
                                extend_path)
from repro.sparse.engine import SparseConfig, collect_candidates
from repro.sparse.driver import QueryRecord, run_analysis

__all__ = [
    "DependencePath", "Frame", "FrameTable", "PathStep", "extend_path",
    "SparseConfig", "collect_candidates",
    "QueryRecord", "run_analysis",
]
