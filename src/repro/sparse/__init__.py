"""Sparse analysis framework: dependence paths and candidate collection."""

from repro.sparse.paths import (DependencePath, Frame, FrameTable, PathStep,
                                extend_path)
from repro.sparse.engine import collect_candidates

__all__ = [
    "DependencePath", "Frame", "FrameTable", "PathStep", "extend_path",
    "collect_candidates",
]
