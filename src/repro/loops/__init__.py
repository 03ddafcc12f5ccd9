"""Loops are lowered by bounded unrolling (``repro.lang.lowering``,
docs/loops.md).  This package holds only :mod:`repro.loops.summarize`,
a patch point of ``perf/tracing.py``."""
