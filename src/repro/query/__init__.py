"""``repro.query``: public demand-driven value-flow queries.

The demand API answers "can this def site reach this sink, feasibly?"
for a single (source, sink) pair by walking only the region between
them — instead of re-running a whole-program ``analyze``.  See
``docs/queries.md`` for the latency contract and the region-subset
guarantee; entry points:

* :func:`can_reach` — one-call convenience over a hot
  :class:`~repro.engine.AnalysisSession`.
* :meth:`repro.engine.AnalysisSession.query` — the session-level API
  (view reuse, artifact-store verdict caching, per-pair memo).
* :func:`repro.query.engine.run_demand_query` — the engine-level
  pipeline (used by the bench gate, ``tests/test_bench_gate.py``).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.query.engine import (Verdict, cached_verdict, pair_region,
                                run_demand_query)
from repro.query.sites import (LineProfile, line_index,
                               resolve_def_sites, resolve_sink_sites)


def can_reach(session, def_site: Optional[int],
              sink: Union[int, tuple], checker: str,
              **kwargs) -> Verdict:
    """Demand query: can the fact born at ``def_site`` reach ``sink``?

    ``session`` is a hot :class:`~repro.engine.AnalysisSession`;
    ``def_site`` is a 1-based source line (or None for "any source of
    the checker"); ``sink`` is a line or ``(line, col)`` pair;
    ``checker`` is a checker name.  Returns a :class:`Verdict` whose
    findings are byte-identical to the pair's entries in a full
    ``analyze``.
    """
    return session.query(checker, sink=sink, def_line=def_site,
                         **kwargs)


__all__ = ["Verdict", "can_reach", "run_demand_query", "pair_region",
           "cached_verdict", "resolve_sink_sites", "resolve_def_sites",
           "line_index", "LineProfile"]
