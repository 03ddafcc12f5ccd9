"""Query-execution layer: parallel batched solving, fault tolerance,
and analysis telemetry (see ``docs/parallelism.md``
and ``docs/robustness.md``)."""

from repro.exec.breaker import CircuitBreaker
from repro.exec.faults import (FaultPlan, FaultPolicy, InjectedFault,
                               InjectedQueryError, WorkerCrash,
                               backoff_delay)
from repro.exec.scheduler import ExecConfig, QueryOutcome, QueryScheduler
from repro.exec.store import (STORE_SCHEMA, ArtifactStore, StoreBinding,
                              StoreRunStats)
from repro.exec.telemetry import SCHEMA as TELEMETRY_SCHEMA
from repro.exec.telemetry import Telemetry

__all__ = [
    "CircuitBreaker",
    "FaultPlan", "FaultPolicy", "InjectedFault", "InjectedQueryError",
    "WorkerCrash", "backoff_delay",
    "ExecConfig", "QueryOutcome", "QueryScheduler",
    "ArtifactStore", "StoreBinding", "StoreRunStats", "STORE_SCHEMA",
    "Telemetry", "TELEMETRY_SCHEMA",
]
