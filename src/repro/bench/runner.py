"""Benchmark runner: engines x subjects with budgets and cached PDGs.

The harness mirrors the paper's protocol (Section 5): every engine is run
on the *same* program dependence graph per subject, each SMT query gets a
fixed budget, and a whole analysis is bounded in wall time and modeled
memory; an engine that blows its budget is reported the way the paper
reports "Memory Out" rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from repro.bench.metrics import PrecisionRecall, evaluate_reports
from repro.bench.subjects import materialize
from repro.checkers.base import AnalysisResult, Checker
from repro.engine import CHECKER_FACTORIES, build_engine
from repro.exec.scheduler import ExecConfig, QueryOutcome
from repro.exec.telemetry import Telemetry
from repro.fusion.engine import prepare_pdg
from repro.limits import Budget
from repro.pdg.graph import ProgramDependenceGraph

#: Scaled-down defaults for the paper's 12 h / 100 GB / 10 s-per-query caps.
DEFAULT_TIME_BUDGET = 120.0
DEFAULT_MEMORY_BUDGET = 2_000_000


@dataclass
class RunOutcome:
    subject: str
    engine: str
    checker: str
    result: AnalysisResult
    precision: PrecisionRecall
    #: The run's query outcomes in candidate-index order (empty for
    #: infer, which issues no queries).
    query_records: list[QueryOutcome] = field(default_factory=list)

    @property
    def failed(self) -> Optional[str]:
        return self.result.failure

    def row(self) -> dict:
        return {
            "subject": self.subject,
            "engine": self.engine,
            "checker": self.checker,
            "bugs": len(self.result.bugs),
            "reports": self.precision.reports,
            "tp": self.precision.true_positives,
            "fp": self.precision.false_positives,
            "time_s": round(self.result.wall_time, 3),
            "memory_units": self.result.memory_units,
            "condition_units": self.result.condition_memory_units,
            "queries": self.result.smt_queries,
            "unknown": self.result.unknown_queries,
            "errors": self.result.error_queries,
            "replayed": self.result.replayed_verdicts,
            "failure": self.result.failure,
        }


@lru_cache(maxsize=None)
def pdg_for(subject_name: str) -> ProgramDependenceGraph:
    """Build (once) the PDG every engine shares for a subject."""
    return prepare_pdg(materialize(subject_name).program)


def run_engine(subject_name: str, engine: str, checker_name: str,
               time_budget: float = DEFAULT_TIME_BUDGET,
               memory_budget: int = DEFAULT_MEMORY_BUDGET,
               exec_config: Optional[ExecConfig] = None,
               telemetry: Optional[Telemetry] = None,
               store=None) -> RunOutcome:
    """Run one (engine, checker) pair on one subject.

    Feasibility queries run through the :mod:`repro.exec` scheduler,
    tuned by ``exec_config`` (default ``ExecConfig()``): one job solves
    inline on the engine, so Table 3 / Figure 11 memory and query
    numbers are those of one engine deciding every candidate in order;
    more jobs fan out to a worker pool.  Its ``faults`` policy sets the
    per-query timeout, and its ``fault_plan`` injects deterministic
    faults (CI resilience matrix).  Bench engines run
    without witness extraction and under the run budget.  ``store`` (an
    :class:`~repro.exec.store.ArtifactStore`) opts the path-sensitive
    engines into warm incremental re-analysis; a warm run replays
    unchanged verdicts instead of re-solving them (the ``replayed``
    row column).
    """
    telemetry = telemetry if telemetry is not None else Telemetry()
    subject = materialize(subject_name)
    pdg = pdg_for(subject_name)
    budget = Budget(max_seconds=time_budget,
                    max_memory_units=memory_budget)
    engine_obj = build_engine(engine, pdg, want_model=False, budget=budget)
    checker: Checker = CHECKER_FACTORIES[checker_name]()
    result = engine_obj.analyze(checker, exec_config=exec_config,
                                telemetry=telemetry, store=store)
    telemetry.annotate(subject=subject_name)
    precision = evaluate_reports(subject, result)
    records = getattr(engine_obj, "query_records", [])
    return RunOutcome(subject_name, engine, checker_name, result, precision,
                      list(records))
