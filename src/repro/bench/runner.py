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
from repro.exec.faults import FaultPlan, FaultPolicy
from repro.exec.scheduler import ExecConfig
from repro.exec.telemetry import Telemetry
from repro.fusion.engine import prepare_pdg
from repro.limits import Budget
from repro.pdg.graph import ProgramDependenceGraph
from repro.sparse.driver import QueryRecord

#: Scaled-down defaults for the paper's 12 h / 100 GB / 10 s-per-query caps.
DEFAULT_TIME_BUDGET = 120.0
DEFAULT_MEMORY_BUDGET = 2_000_000

ENGINES = ("fusion", "fusion-unopt", "pinpoint", "pinpoint+qe",
           "pinpoint+lfs", "pinpoint+hfs", "pinpoint+ar", "infer")

#: The checker table is the engine core's; the alias survives because
#: the bench reporting layer and tests import it under this name.
CHECKERS = CHECKER_FACTORIES


@dataclass
class RunOutcome:
    subject: str
    engine: str
    checker: str
    result: AnalysisResult
    precision: PrecisionRecall
    query_records: list[QueryRecord] = field(default_factory=list)

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


def make_engine(engine: str, pdg: ProgramDependenceGraph,
                budget: Optional[Budget],
                query_timeout: Optional[float] = None):
    """Thin wrapper over :func:`repro.engine.build_engine` (the shared
    factory): bench engines run without witness extraction and under the
    run budget."""
    return build_engine(engine, pdg, want_model=False,
                        query_timeout=query_timeout, budget=budget)


def run_engine(subject_name: str, engine: str, checker_name: str,
               time_budget: float = DEFAULT_TIME_BUDGET,
               memory_budget: int = DEFAULT_MEMORY_BUDGET,
               jobs: int = 1, backend: str = "auto",
               telemetry: Optional[Telemetry] = None,
               query_timeout: Optional[float] = None,
               max_retries: Optional[int] = None,
               on_error: str = "unknown",
               fault_plan: Optional[FaultPlan] = None,
               store=None) -> RunOutcome:
    """Run one (engine, checker) pair on one subject.

    Feasibility queries run through the :mod:`repro.exec` scheduler:
    ``jobs=1`` (the default) solves inline on the engine, so Table 3 /
    Figure 11 memory and query numbers are those of one engine deciding
    every candidate in order; ``jobs > 1`` fans out to a worker pool.
    ``query_timeout``/``max_retries``/``on_error`` tune the
    fault-tolerance layer, and ``fault_plan`` injects deterministic
    faults (CI resilience matrix).  ``store`` (an
    :class:`~repro.exec.store.ArtifactStore`) opts the path-sensitive
    engines into warm incremental re-analysis; a warm run replays
    unchanged verdicts instead of re-solving them (the ``replayed``
    row column).
    """
    subject = materialize(subject_name)
    pdg = pdg_for(subject_name)
    budget = Budget(max_seconds=time_budget,
                    max_memory_units=memory_budget)
    engine_obj = make_engine(engine, pdg, budget,
                             query_timeout=query_timeout)
    checker: Checker = CHECKERS[checker_name]()
    kwargs = {}
    if store is not None:
        if engine == "infer":
            raise ValueError("the artifact store requires a "
                             "path-sensitive engine; infer has no "
                             "per-candidate verdicts to cache")
        kwargs["store"] = store
    policy_kwargs = {"on_error": on_error}
    if query_timeout is not None:
        policy_kwargs["query_timeout"] = query_timeout
    if max_retries is not None:
        policy_kwargs["max_retries"] = max_retries
    exec_config = ExecConfig(jobs=jobs, backend=backend,
                             faults=FaultPolicy(**policy_kwargs),
                             fault_plan=fault_plan)
    result = engine_obj.analyze(checker, exec_config=exec_config,
                                telemetry=telemetry, **kwargs)
    if telemetry is not None:
        telemetry.annotate(subject=subject_name)
    precision = evaluate_reports(subject, result)
    records = getattr(engine_obj, "query_records", [])
    return RunOutcome(subject_name, engine, checker_name, result, precision,
                      list(records))
