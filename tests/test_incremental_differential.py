"""Differential suite: incremental sessions never change a report.

The acceptance contract of incremental assumption-based solving
(docs/solver.md) is that `--incremental` and `--no-incremental` runs
produce identical reports — same order, same verdicts, same preprocess
split — across job counts, pool backends, and both path-sensitive
engines.  Models under assumptions may legitimately differ, so this
suite runs with `want_model=False` (the bench default) and compares
every remaining program-visible field.
"""

import pytest

from repro.baselines.pinpoint import make_pinpoint
from repro.bench import SubjectSpec, generate_subject
from repro.checkers import NullDereferenceChecker
from repro.engine import AnalysisSession, EngineSettings
from repro.exec import ExecConfig, Telemetry
from repro.fusion import (FusionConfig, FusionEngine, GraphSolverConfig,
                          prepare_pdg)
from repro.smt import SolverConfig

FUZZ_SEEDS = list(range(50))

#: Seeds with interesting shapes for the (slower) process/Pinpoint passes.
SMALL_SEEDS = [0, 7, 17, 23, 41]


def fuzz_pdg(seed: int):
    spec = SubjectSpec("fuzz-incremental", seed=seed, num_functions=6,
                       layers=3, avg_stmts=5, call_fanout=2,
                       null_bugs=(1, 1, 1))
    return prepare_pdg(generate_subject(spec).program)


def fusion(pdg, incremental: bool):
    return FusionEngine(pdg, FusionConfig(
        solver=GraphSolverConfig(
            solver=SolverConfig(incremental=incremental))))


def canonical(result):
    """Every program-visible report field (no witnesses: want_model off)."""
    return [(report.checker,
             tuple((step.vertex.index, step.frame.fid)
                   for step in report.candidate.path.steps),
             report.feasible,
             report.decided_in_preprocess)
            for report in result.reports]


def run_stats(result):
    return (result.candidates, result.smt_queries,
            result.decided_in_preprocess, result.unknown_queries)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fusion_incremental_matches_one_shot(seed):
    pdg = fuzz_pdg(seed)
    checker = NullDereferenceChecker()
    baseline = fusion(pdg, incremental=False).analyze(checker)
    assert baseline.candidates > 0, "fuzz spec generated no candidates"
    incremental = fusion(pdg, incremental=True).analyze(checker)
    assert canonical(incremental) == canonical(baseline)
    assert run_stats(incremental) == run_stats(baseline)


@pytest.mark.parametrize("seed", SMALL_SEEDS)
@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_fusion_incremental_thread_pool_matches(seed, jobs):
    pdg = fuzz_pdg(seed)
    checker = NullDereferenceChecker()
    baseline = fusion(pdg, incremental=False).analyze(checker)
    parallel = fusion(pdg, incremental=True).analyze(
        checker, exec_config=ExecConfig(jobs=jobs, backend="thread"))
    assert canonical(parallel) == canonical(baseline)
    assert run_stats(parallel) == run_stats(baseline)


@pytest.mark.parametrize("seed", SMALL_SEEDS[:3])
def test_fusion_incremental_process_pool_matches(seed):
    """Grouped batches cross the process boundary: workers rebuild the
    per-batch group runner from the pickled spec and ship session-stat
    deltas back; verdicts must still match the one-shot sequential run."""
    pdg = fuzz_pdg(seed)
    checker = NullDereferenceChecker()
    baseline = fusion(pdg, incremental=False).analyze(checker)
    parallel = fusion(pdg, incremental=True).analyze(
        checker, exec_config=ExecConfig(jobs=2, backend="process"))
    assert canonical(parallel) == canonical(baseline)
    assert run_stats(parallel) == run_stats(baseline)


@pytest.mark.parametrize("seed", SMALL_SEEDS)
def test_pinpoint_incremental_matches(seed):
    pdg = fuzz_pdg(seed)
    checker = NullDereferenceChecker()
    baseline = make_pinpoint(pdg, "").analyze(checker)
    incremental = make_pinpoint(
        pdg, "", solver=SolverConfig(incremental=True)).analyze(checker)
    assert canonical(incremental) == canonical(baseline)
    assert run_stats(incremental) == run_stats(baseline)


def test_pinpoint_incremental_thread_pool_matches():
    pdg = fuzz_pdg(11)
    checker = NullDereferenceChecker()
    baseline = make_pinpoint(pdg, "").analyze(checker)
    parallel = make_pinpoint(
        pdg, "", solver=SolverConfig(incremental=True)).analyze(
        checker, exec_config=ExecConfig(jobs=4, backend="thread"))
    assert canonical(parallel) == canonical(baseline)


def test_telemetry_reports_session_reuse():
    """On a multi-candidate subject the incremental run must actually
    go through sessions: assumption solves and encoder hits > 0 (the
    acceptance criterion of the reuse gate, in-process flavor)."""
    spec = SubjectSpec("inc-telemetry", seed=5, num_functions=10, layers=3,
                       avg_stmts=7, call_fanout=2, null_bugs=(2, 2, 2))
    pdg = prepare_pdg(generate_subject(spec).program)
    checker = NullDereferenceChecker()
    telemetry = Telemetry()
    fusion(pdg, incremental=True).analyze(checker, telemetry=telemetry)
    counters = telemetry.as_dict()["incremental"]
    assert counters["sessions"] > 0, counters
    assert counters["assumption_solves"] > 0, counters
    assert counters["encoder_hits"] > 0, counters


def test_telemetry_session_reuse_via_thread_pool():
    """Worker-side sessions feed the same counters through the
    scheduler's merge path."""
    spec = SubjectSpec("inc-telemetry", seed=5, num_functions=10, layers=3,
                       avg_stmts=7, call_fanout=2, null_bugs=(2, 2, 2))
    pdg = prepare_pdg(generate_subject(spec).program)
    checker = NullDereferenceChecker()
    telemetry = Telemetry()
    fusion(pdg, incremental=True).analyze(
        checker, exec_config=ExecConfig(jobs=2, backend="thread"),
        telemetry=telemetry)
    counters = telemetry.as_dict()["incremental"]
    assert counters["sessions"] > 0, counters
    assert counters["assumption_solves"] > 0, counters


TWO_GUARDS = """\
fun main(a, b) {
  p = null;
  if (a > 20) {
    if (b < 3) {
      deref(p);
    }
  }
  return 0;
}
"""


@pytest.mark.parametrize("engine", ["fusion", "pinpoint"])
def test_demand_query_records_its_sessions(engine):
    """A demand query solves inline on the session's hot engine; its
    telemetry must count exactly the sessions that query opened (the
    scheduler records the engine's before/after delta)."""
    session = AnalysisSession(TWO_GUARDS,
                              settings=EngineSettings(engine=engine))
    telemetry = Telemetry()
    session.query("null-deref", sink=5, telemetry=telemetry)
    counters = telemetry.as_dict()["incremental"]
    assert counters["sessions"] == 1, counters
    assert session.engine.session_stats.sessions == 1
    # A later run on the same engine reports only its own delta.
    again = Telemetry()
    session.analyze("null-deref", telemetry=again)
    assert again.as_dict()["incremental"]["sessions"] == 0
