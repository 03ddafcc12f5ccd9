"""Sparse abstract interpretation over the PDG.

Public surface: the domains (:class:`Interval`, :class:`Nullness`,
:class:`AbsValue`) and the whole-graph fixpoint (:func:`analyze_pdg`)
that div-zero's sources and the sparse views' seeding read.
"""

from repro.absint.domains import AbsValue, FixpointStats, Interval, Nullness
from repro.absint.fixpoint import AbstractState, analyze_pdg
from repro.absint.transfer import binary_interval

__all__ = [
    "AbsValue", "AbstractState", "FixpointStats", "Interval", "Nullness",
    "analyze_pdg", "binary_interval",
]
