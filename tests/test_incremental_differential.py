"""Differential suite: state kept across queries never changes a report.

There are no solver sessions: every query is decided by a fresh SAT
search (docs/solver.md).  What a run still keeps across queries is the
engine on the inline rung — its term manager, Fusion's preprocessed
templates, Pinpoint's summary cache — while pool workers build a fresh
engine per query.  So a hot engine (one that already analysed the
program) and the process pool must report exactly what a fresh
engine reports: same order, same verdicts, same preprocess split,
across job counts and both path-sensitive engines.  Models may differ
between those solve orders, so this suite runs with `want_model=False`
(the bench default) and compares every remaining program-visible field.
"""

import pytest

from repro.baselines.pinpoint import make_pinpoint
from repro.bench import SubjectSpec, generate_subject
from repro.checkers import NullDereferenceChecker
from repro.engine import AnalysisSession, EngineSettings
from repro.exec import ExecConfig, Telemetry
from repro.fusion import FusionEngine, prepare_pdg

FUZZ_SEEDS = list(range(50))

#: Seeds with interesting shapes for the (slower) process/Pinpoint passes.
SMALL_SEEDS = [0, 7, 17, 23, 41]


def fuzz_pdg(seed: int):
    spec = SubjectSpec("fuzz-incremental", seed=seed, num_functions=6,
                       layers=3, avg_stmts=5, call_fanout=2,
                       null_bugs=(1, 1, 1))
    return prepare_pdg(generate_subject(spec).program)


def hot(engine, checker):
    """``engine`` after a first full run: its cross-query state filled."""
    engine.analyze(checker)
    return engine


def canonical(result):
    """Every program-visible report field (no witnesses: want_model off)."""
    return [(report.checker,
             tuple((step.vertex.index, step.frame.fid)
                   for step in report.candidate.path.steps),
             report.feasible,
             report.decided_by)
            for report in result.reports]


def run_stats(result):
    return (result.candidates, result.smt_queries,
            result.decided_in_preprocess, result.unknown_queries)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fusion_incremental_matches_one_shot(seed):
    pdg = fuzz_pdg(seed)
    checker = NullDereferenceChecker()
    baseline = FusionEngine(pdg).analyze(checker)
    assert baseline.candidates > 0, "fuzz spec generated no candidates"
    again = hot(FusionEngine(pdg), checker).analyze(checker)
    assert canonical(again) == canonical(baseline)
    assert run_stats(again) == run_stats(baseline)


@pytest.mark.parametrize("seed", SMALL_SEEDS)
@pytest.mark.parametrize("jobs", [1, 2, 4],
                         ids=["1-auto", "2-process", "4-process"])
def test_fusion_incremental_rungs_match(seed, jobs):
    """The inline rung (one job) and two- and four-worker process pools."""
    pdg = fuzz_pdg(seed)
    checker = NullDereferenceChecker()
    baseline = FusionEngine(pdg).analyze(checker)
    parallel = FusionEngine(pdg).analyze(
        checker, exec_config=ExecConfig(jobs=jobs))
    assert canonical(parallel) == canonical(baseline)
    assert run_stats(parallel) == run_stats(baseline)


@pytest.mark.parametrize("seed", SMALL_SEEDS[:3])
def test_fusion_incremental_process_pool_matches(seed):
    """Batches cross the process boundary: forked workers solve on
    fresh engines and ship outcomes back; verdicts must match the inline
    run on one engine."""
    pdg = fuzz_pdg(seed)
    checker = NullDereferenceChecker()
    baseline = FusionEngine(pdg).analyze(checker)
    parallel = FusionEngine(pdg).analyze(
        checker, exec_config=ExecConfig(jobs=2))
    assert canonical(parallel) == canonical(baseline)
    assert run_stats(parallel) == run_stats(baseline)


@pytest.mark.parametrize("seed", SMALL_SEEDS)
def test_pinpoint_incremental_matches(seed):
    pdg = fuzz_pdg(seed)
    checker = NullDereferenceChecker()
    baseline = make_pinpoint(pdg, "").analyze(checker)
    again = hot(make_pinpoint(pdg, ""), checker).analyze(checker)
    assert canonical(again) == canonical(baseline)
    assert run_stats(again) == run_stats(baseline)


def test_pinpoint_incremental_process_pool_matches():
    pdg = fuzz_pdg(11)
    checker = NullDereferenceChecker()
    baseline = make_pinpoint(pdg, "").analyze(checker)
    parallel = make_pinpoint(pdg, "").analyze(
        checker, exec_config=ExecConfig(jobs=4))
    assert canonical(parallel) == canonical(baseline)


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
    telemetry counts exactly the query it solved, with no session
    section, and a later run on the same engine counts only its own."""
    session = AnalysisSession(TWO_GUARDS,
                              settings=EngineSettings(engine=engine))
    telemetry = Telemetry()
    session.query("null-deref", sink=5, telemetry=telemetry)
    document = telemetry.as_dict()
    assert "incremental" not in document
    assert document["solver"]["total"] == 1, document["solver"]
    again = Telemetry()
    result = session.analyze("null-deref", telemetry=again)
    assert again.as_dict()["solver"]["total"] == result.smt_queries == 1
