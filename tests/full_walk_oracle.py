"""Test oracle: the walk of the whole PDG, without a sparse view.

``collect_candidates`` walks a checker's pruned view
(``repro.pdg.reduce``).  :class:`FullView` stands in for that view with
no pruning: every source of the checker, and at each vertex every data
edge the checker calls a sink edge (asked first) or a propagating one.
That is the full walk the pruning contract promises to reproduce bit for
bit (``tests/test_sparsify_differential.py``, ``tests/test_reduce.py``).

The engines here hand :class:`FullView` to the analysis loop.  Run them
at one job: process workers re-collect candidates over the sparse view
whatever the engine class.
"""

from __future__ import annotations

from repro.baselines import PinpointEngine
from repro.fusion import FusionEngine


class FullView:
    """Every source and every sink or propagating edge of ``pdg``."""

    def __init__(self, pdg, checker) -> None:
        self.pdg = pdg
        self.checker = checker
        self.live_sources = checker.sources(pdg)

    def kept_entries(self, vertex) -> list:
        entries = []
        for edge in self.pdg.data_succs(vertex):
            if self.checker.is_sink_edge(edge):
                entries.append((edge, True))
            elif self.checker.propagates(edge):
                entries.append((edge, False))
        return entries


class _FullWalk:
    def checker_view(self, checker, telemetry=None):
        return FullView(self.pdg, checker)


class FullWalkFusion(_FullWalk, FusionEngine):
    """Fusion over the full PDG."""


class FullWalkPinpoint(_FullWalk, PinpointEngine):
    """Pinpoint over the full PDG."""
