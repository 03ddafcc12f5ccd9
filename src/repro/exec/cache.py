"""Kept only because ``perf/tracing.py`` patches ``SliceCache.get``;
delete with that patch point (ROADMAP item 1's perf change).  Nothing
caches slices: each query computes its own with
:func:`~repro.pdg.slicing.compute_slice` (docs/parallelism.md)."""


class SliceCache:
    """Never instantiated (module docstring)."""

    def get(self) -> None:
        raise NotImplementedError
