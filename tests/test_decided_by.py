"""Every verdict names the stage that settled it (``DecidedBy``).

Each value is reached through a public entry point, and in every run the
telemetry ``decided_by`` section equals the tally over the run's reports
(docs/analysis.md, "Why this verdict").  ``TestOverrunAfterSlicing``
pins the deadline that fires after slicing: it is a ``timeout``, counted
as errored and as a circuit-breaker failure, never a clean solve.
``TestOneClock`` pins that the query's deadline is the search's only
clock.
"""

import json
from collections import Counter

import pytest

from repro.baselines.pinpoint import PinpointEngine
from repro.bench import run_engine
from repro.bench.runner import pdg_for
from repro.checkers import NullDereferenceChecker
from repro.cli import main
from repro.engine import build_engine
from repro.exec import (ArtifactStore, CircuitBreaker, ExecConfig, FaultPlan,
                        FaultPolicy, Telemetry)
from repro.fusion import (FusionConfig, FusionEngine, GraphSolverConfig,
                          prepare_pdg)
from repro.lang import LoweringConfig, compile_source
from repro.limits import Deadline
from repro.smt.solver import DecidedBy, SolverConfig
from test_breaker import SOURCE, make_engine, run


def tally(result) -> dict[str, int]:
    counts = Counter(report.decided_by for report in result.reports)
    return {value.value: counts[value] for value in DecidedBy}


def run_mcf(engine="fusion", **kwargs):
    telemetry = Telemetry()
    outcome = run_engine("mcf", engine, "null-deref", telemetry=telemetry,
                         **kwargs)
    section = telemetry.as_dict()["decided_by"]
    assert section == tally(outcome.result)
    return outcome.result, section


class TestEveryValueIsReached:
    @pytest.mark.parametrize("engine", ["fusion", "pinpoint"])
    def test_preprocess_and_sat(self, engine):
        result, section = run_mcf(engine)
        assert section["preprocess"] == result.decided_in_preprocess == 1
        assert section["sat"] == 1
        assert result.smt_queries == 2 and result.error_queries == 0

    def test_store_on_a_warm_rerun(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        cold, _ = run_mcf(store=store)
        warm, section = run_mcf(store=store)
        assert section["store"] == warm.replayed_verdicts \
            == len(cold.reports) == 2
        assert warm.smt_queries == 0

    def test_store_through_the_cli(self, tmp_path, capsys):
        for name in ("cold", "warm"):
            assert main(["analyze", "--subject", "mcf", "--json",
                         "--cache-dir", str(tmp_path / "store"),
                         "--telemetry", str(tmp_path / name)]) == 0
            findings = json.loads(capsys.readouterr().out)["findings"]
        telemetry = json.loads((tmp_path / "warm").read_text())
        assert telemetry["decided_by"]["store"] \
            == telemetry["store"]["store_hits"] == len(findings) == 2
        assert telemetry["solver"]["total"] == 0

    def test_timeout_and_error_from_fault_plans(self):
        result, section = run_mcf(exec_config=ExecConfig(
            fault_plan=FaultPlan.parse("raise=0;delay=1:5"),
            faults=FaultPolicy(query_timeout=0.2)))
        assert [report.decided_by for report in result.reports] \
            == [DecidedBy.ERROR, DecidedBy.TIMEOUT]
        assert section["error"] == section["timeout"] == 1
        assert result.error_queries == result.unknown_queries == 2

    def test_breaker(self):
        engine = make_engine()
        (poison,) = [index for index, report in enumerate(
            make_engine().analyze(NullDereferenceChecker()).reports)
            if report.sink.function == "main"]
        breaker = CircuitBreaker(threshold=1, cooldown=60.0)
        plan = FaultPlan(raise_on_query=frozenset({poison}))
        runs = [run(engine, breaker, plan), run(engine, breaker)]
        for result, snapshot in runs:
            assert snapshot["decided_by"] == tally(result)
        (first, _), (second, snapshot) = runs
        assert first.reports[poison].decided_by is DecidedBy.ERROR
        assert second.reports[poison].decided_by is DecidedBy.BREAKER
        assert second.error_queries == 1
        # A short-circuit is a verdict, but not a dispatched query.
        assert snapshot["solver"]["total"] == 1

    def test_infer_decides_no_candidate_on_its_own(self):
        result, section = run_mcf("infer")
        assert result.reports
        assert {report.decided_by for report in result.reports} == {None}
        assert set(section.values()) == {0}
        assert result.smt_queries == result.error_queries == 0


class TestOverrunAfterSlicing:
    """A deadline that expires once the slice is built, in condition
    assembly or the SMT stage, must not read as a clean solve."""

    @pytest.mark.parametrize("engine_cls", [FusionEngine, PinpointEngine])
    def test_expired_deadline_is_a_timeout(self, engine_cls, monkeypatch):
        solve_one = engine_cls.solve_one

        def expired(self, candidate, the_slice, deadline):
            return solve_one(self, candidate, the_slice, Deadline(0.0))

        monkeypatch.setattr(engine_cls, "solve_one", expired)
        engine = engine_cls(prepare_pdg(
            compile_source(SOURCE, LoweringConfig())))
        breaker = CircuitBreaker(threshold=1, cooldown=60.0)
        result, snapshot = run(engine, breaker)
        assert [report.decided_by for report in result.reports] \
            == [DecidedBy.TIMEOUT] * 2
        assert result.error_queries == result.unknown_queries == 2
        assert snapshot["decided_by"] == tally(result)
        # One failure per (checker, sink) group trips a threshold-1
        # breaker on each of the two groups.
        assert snapshot["breaker"]["trips"] == 2
        assert breaker.open_count() == 2


class TestOneClock:
    """A query's ``Deadline`` is its only clock: the SAT search keeps no
    stopwatch of its own, so a run's ``FaultPolicy.query_timeout`` bounds
    the search even where it outlasts the solver's ``time_limit``."""

    @pytest.mark.parametrize("subject", ["vortex", "mysql"])
    def test_query_timeout_alone_bounds_the_search(self, subject):
        pdg = pdg_for(subject)
        checker = NullDereferenceChecker()

        def verdicts(engine, **kwargs):
            result = engine.analyze(checker, **kwargs)
            return [(record.status, report.decided_by, report.witness)
                    for record, report in zip(engine.query_records,
                                              result.reports)]

        default = verdicts(build_engine("fusion", pdg, want_model=True))
        assert DecidedBy.SAT in {decided_by for _, decided_by, _ in default}
        no_limit = FusionEngine(pdg, FusionConfig(solver=GraphSolverConfig(
            want_model=True, solver=SolverConfig(time_limit=0.0))))
        assert verdicts(no_limit, exec_config=ExecConfig(
            faults=FaultPolicy(query_timeout=5))) == default
