"""One job means no pool: single-job runs solve in the calling process.

With ``jobs=1``, every run that needs the query scheduler — a
per-request deadline, a circuit breaker, a fault plan — executes on the
scheduler's *inline* rung.  No process pool is ever constructed
(``ProcessPoolExecutor`` is patched to fail), and the findings are
byte-identical to the same run on a two-job process pool.
"""

import asyncio
import json
import re
import tempfile

import pytest

from repro.bench import SubjectSpec, generate_subject
from repro.checkers import NullDereferenceChecker
from repro.cli import main
from repro.engine import CHECKER_FACTORIES, EngineSettings, build_engine
from repro.exec import ExecConfig, FaultPlan, FaultPolicy, Telemetry
from repro.exec import scheduler
from repro.fusion import prepare_pdg
from repro.serve import ServeApp, ServeConfig


def subject(seed: int = 4):
    return generate_subject(SubjectSpec(
        "single-job", seed=seed, num_functions=5, layers=2, avg_stmts=5,
        call_fanout=2, null_bugs=(1, 1, 1), taint23_bugs=(1, 1, 0),
        taint402_bugs=(1, 0, 1)))


def body_edit(source: str) -> str:
    """An unused statement at the top of the first function: the edited
    function's verdicts are re-solved, the rest replay from the store."""
    match = re.search(r"fun (\w+)\([^)]*\) \{\n", source)
    assert match is not None
    return source[:match.end()] + "  zq_edit = 7;\n" + source[match.end():]


def canonical(result):
    """Every program-visible report field, in report order."""
    return [(report.checker,
             tuple((step.vertex.index, step.frame.fid)
                   for step in report.candidate.path.steps),
             report.feasible,
             report.decided_by,
             tuple(sorted(report.witness.items())))
            for report in result.reports]


def _forbidden_pool(*args, **kwargs):
    raise AssertionError("a one-job run built a process pool")


@pytest.fixture
def no_process_pool(monkeypatch):
    """Make any process-pool construction fail loudly."""
    monkeypatch.setattr(scheduler, "ProcessPoolExecutor", _forbidden_pool)


def serve_findings(engine: str, jobs: int, source: str) -> list[str]:
    """Cold analyze, edit, warm analyze — for every checker, with the
    breaker on and a per-request deadline; returns each response's
    findings as canonical bytes."""
    edited = body_edit(source)

    async def drive() -> list[str]:
        with tempfile.TemporaryDirectory() as root:
            app = ServeApp(ServeConfig(
                settings=EngineSettings(engine=engine), jobs=jobs,
                cache_root=root))
            try:
                async def rpc(method, **params):
                    response = await app.handle({
                        "jsonrpc": "2.0", "id": 1, "method": method,
                        "params": params})
                    assert "result" in response, response.get("error")
                    return response["result"]

                out = []
                warm_counters = []
                for checker in sorted(CHECKER_FACTORIES):
                    tenant = f"{engine}-{checker}"
                    await rpc("initialize", tenant=tenant, source=source)
                    cold = await rpc("analyze", tenant=tenant,
                                     checker=checker, deadline_s=5)
                    await rpc("update", tenant=tenant, source=edited)
                    warm = await rpc("analyze", tenant=tenant,
                                     checker=checker, deadline_s=5)
                    out += [json.dumps(cold["findings"]),
                            json.dumps(warm["findings"])]
                    warm_counters.append(warm["counters"])
                # Some warm run both replays verdicts and re-solves the
                # edited function's: the scheduler sees a partial list.
                assert any(c["smt_queries"] and c["replayed_verdicts"]
                           for c in warm_counters)
                return out
            finally:
                app.close()

    return asyncio.run(drive())


@pytest.mark.parametrize("engine", ["fusion", "pinpoint"])
def test_serve_single_job_matches_process_pool(engine, monkeypatch):
    source = subject().source
    expected = serve_findings(engine, 2, source)
    monkeypatch.setattr(scheduler, "ProcessPoolExecutor", _forbidden_pool)
    assert serve_findings(engine, 1, source) == expected


@pytest.mark.parametrize("engine", ["fusion", "pinpoint"])
def test_query_timeout_runs_inline_with_sequential_verdicts(
        engine, no_process_pool):
    pdg = prepare_pdg(subject().program)
    checker = NullDereferenceChecker()
    sequential = build_engine(engine, pdg, want_model=True).analyze(checker)
    assert sequential.smt_queries > 0
    telemetry = Telemetry()
    inline = build_engine(engine, pdg, want_model=True).analyze(
        checker, exec_config=ExecConfig(
            jobs=1, faults=FaultPolicy(query_timeout=5)),
        telemetry=telemetry)
    assert canonical(inline) == canonical(sequential)
    snapshot = telemetry.as_dict()
    assert snapshot["context"]["backend"] == "inline"
    assert snapshot["faults"]["pool_rebuilds"] == 0


def test_injected_crash_is_retried_inline(no_process_pool):
    pdg = prepare_pdg(subject().program)
    checker = NullDereferenceChecker()
    sequential = build_engine("fusion", pdg, want_model=True) \
        .analyze(checker)
    telemetry = Telemetry()
    crashed = build_engine("fusion", pdg, want_model=True).analyze(
        checker, exec_config=ExecConfig(
            jobs=1, fault_plan=FaultPlan(crash_on_batch=frozenset({0}),
                                         crash_times=1)),
        telemetry=telemetry)
    assert crashed.failure is None
    assert crashed.unknown_queries == sequential.unknown_queries
    assert canonical(crashed) == canonical(sequential)
    snapshot = telemetry.as_dict()
    assert snapshot["faults"]["batch_retries"] >= 1
    assert snapshot["faults"]["synthesized_unknown"] == 0
    assert snapshot["context"]["backend"] == "inline"


def test_cli_single_job_deadline_runs_inline(tmp_path, no_process_pool,
                                             capsys):
    out = tmp_path / "single.json"
    assert main(["analyze", "--subject", "mcf", "--query-timeout", "5",
                 "--fault-plan", "raise=0", "--telemetry", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["context"]["backend"] == "inline"
    assert payload["faults"]["pool_rebuilds"] == 0
    assert payload["decided_by"]["error"] == 1


def test_auto_resolves_by_job_count(monkeypatch):
    monkeypatch.setattr(scheduler, "_FORK", object())
    assert ExecConfig(jobs=1).rung() == "inline"
    assert ExecConfig(jobs=4).rung() == "process"
    # Without fork, every run is inline.
    monkeypatch.setattr(scheduler, "_FORK", None)
    assert ExecConfig(jobs=1).rung() == "inline"
    assert ExecConfig(jobs=4).rung() == "inline"

