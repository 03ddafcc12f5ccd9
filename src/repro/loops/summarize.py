"""Kept only because ``perf/tracing.py`` patches
``SummaryCache.summarize``; delete with that patch point (ROADMAP item
1's perf change).  Nothing summarizes loops: lowering unrolls every
``while`` to the ``--unroll`` bound (docs/loops.md)."""


class SummaryCache:
    """Never instantiated (module docstring)."""

    def summarize(self) -> None:
        raise NotImplementedError
