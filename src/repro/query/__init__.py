"""``repro.query``: public demand-driven value-flow queries.

The demand API answers "can this def site reach this sink, feasibly?"
for a single (source, sink) pair by walking only the region between
them — instead of re-running a whole-program ``analyze``.  See
``docs/queries.md`` for the latency contract and the region-subset
guarantee; entry points:

* :meth:`repro.engine.AnalysisSession.query` — the session-level API
  over a hot session (view reuse, artifact-store verdict caching,
  per-pair memo).
* :func:`repro.query.engine.run_demand_query` — the engine-level
  pipeline (used by the bench gate, ``tests/test_bench_gate.py``).
"""

from repro.query.engine import (Verdict, cached_verdict, pair_region,
                                run_demand_query)
from repro.query.sites import (LineProfile, line_index,
                               resolve_def_sites, resolve_sink_sites)

__all__ = ["Verdict", "run_demand_query", "pair_region",
           "cached_verdict", "resolve_sink_sites", "resolve_def_sites",
           "line_index", "LineProfile"]
