"""Test oracle: engines that walk the whole PDG instead of a sparse view.

Every path-sensitive engine collects candidates over its checker's
pruned view (``repro.pdg.reduce``).  The engines here override
``checker_view`` to return None, so ``collect_candidates`` walks every
data edge and asks the checker about each one — the full walk the
pruning contract promises to reproduce bit for bit
(``tests/test_sparsify_differential.py``).

Run them at one job: process workers re-collect candidates over a view
whatever the engine class.
"""

from __future__ import annotations

from repro.baselines import PinpointEngine
from repro.fusion import FusionEngine


class _FullWalk:
    def checker_view(self, checker, telemetry=None):
        return None


class FullWalkFusion(_FullWalk, FusionEngine):
    """Fusion over the full PDG."""


class FullWalkPinpoint(_FullWalk, PinpointEngine):
    """Pinpoint over the full PDG."""
