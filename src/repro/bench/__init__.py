"""Benchmark substrate: subject generation, registry, metrics, harness."""

from repro.bench.generator import (GeneratedSubject, GroundTruthBug,
                                   SubjectSpec, generate_subject)
from repro.bench.subjects import (SUBJECTS, Subject, industrial_subjects,
                                  materialize, subject_by_name)
from repro.bench.metrics import PrecisionRecall, evaluate_reports
from repro.bench.runner import RunOutcome, pdg_for, run_engine
from repro.bench.reporting import (fmt_failure, render_memory_breakdown,
                                   render_scatter_summary, render_table,
                                   speedup)

__all__ = [
    "GeneratedSubject", "GroundTruthBug", "SubjectSpec", "generate_subject",
    "SUBJECTS", "Subject", "industrial_subjects", "materialize",
    "subject_by_name",
    "PrecisionRecall", "evaluate_reports",
    "RunOutcome", "pdg_for", "run_engine",
    "fmt_failure", "render_memory_breakdown", "render_scatter_summary",
    "render_table", "speedup",
]
