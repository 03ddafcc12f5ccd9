"""Differential suite: triage never changes the bug set.

The triage contract (`repro.absint.triage`) is that a ``PROVEN_*``
verdict always agrees with what the SMT stage would have concluded, so
enabling ``--triage`` may only *reduce* query counts — the reported
bug set must be identical to the seed sequential engines.  These tests
pin that across fifty fuzzed programs, for Fusion and Pinpoint, at
``jobs=1`` and ``jobs=4`` (thread and process pools — the process
backend additionally exercises full-list candidate indexing for the
pending survivors).
"""

import pytest

from repro.baselines import PinpointEngine
from repro.bench import SubjectSpec, generate_subject
from repro.checkers import NullDereferenceChecker
from repro.exec import ExecConfig, Telemetry
from repro.exec.telemetry import SCHEMA
from repro.fusion import FusionEngine, prepare_pdg

FUZZ_SEEDS = list(range(50))

#: Seeds for the (slower) process-pool pass.
PROCESS_SEEDS = [0, 7, 17, 23, 41]


def fusion_pdg(seed: int):
    spec = SubjectSpec("fuzz-triage", seed=seed, num_functions=6,
                       layers=3, avg_stmts=5, call_fanout=2,
                       null_bugs=(1, 1, 1))
    return prepare_pdg(generate_subject(spec).program)


def pinpoint_pdg(seed: int):
    spec = SubjectSpec("fuzz-triage-pp", seed=seed, num_functions=4,
                       layers=2, avg_stmts=4, call_fanout=2,
                       null_bugs=(1, 1, 0))
    return prepare_pdg(generate_subject(spec).program)


def bug_set(result):
    return {(r.source.index, r.sink.index) for r in result.bugs}


def report_keys(result):
    """Bug set plus per-report feasibility, in report order."""
    return [(r.candidate.source.index, r.candidate.sink.index, r.feasible)
            for r in result.reports]


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fusion_triage_matches_sequential(seed):
    pdg = fusion_pdg(seed)
    checker = NullDereferenceChecker()
    baseline = FusionEngine(pdg).analyze(checker)
    assert baseline.candidates > 0, "fuzz spec generated no candidates"

    triaged = FusionEngine(pdg).analyze(checker, triage=True)
    assert bug_set(triaged) == bug_set(baseline)
    assert report_keys(triaged) == report_keys(baseline)
    assert triaged.smt_queries + triaged.triage_decided \
        == baseline.smt_queries

    threaded = FusionEngine(pdg).analyze(
        checker, exec_config=ExecConfig(jobs=4, backend="thread"),
        triage=True)
    assert report_keys(threaded) == report_keys(baseline)
    assert threaded.triage_decided == triaged.triage_decided


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_pinpoint_triage_matches_sequential(seed):
    pdg = pinpoint_pdg(seed)
    checker = NullDereferenceChecker()
    baseline = PinpointEngine(pdg).analyze(checker)
    triaged = PinpointEngine(pdg).analyze(checker, triage=True)
    assert bug_set(triaged) == bug_set(baseline)
    assert report_keys(triaged) == report_keys(baseline)

    threaded = PinpointEngine(pdg).analyze(
        checker, exec_config=ExecConfig(jobs=4, backend="thread"),
        triage=True)
    assert report_keys(threaded) == report_keys(baseline)


@pytest.mark.parametrize("seed", PROCESS_SEEDS)
def test_process_pool_indexes_survivors_correctly(seed):
    """Triage survivors are addressed by full-list index in workers."""
    pdg = fusion_pdg(seed)
    checker = NullDereferenceChecker()
    baseline = FusionEngine(pdg).analyze(checker)
    processed = FusionEngine(pdg).analyze(
        checker, exec_config=ExecConfig(jobs=4, backend="process"),
        triage=True)
    assert report_keys(processed) == report_keys(baseline)


def test_triage_decides_candidates_and_reports_telemetry():
    """Across a few seeds, triage must settle at least one candidate
    without a query, and say so in telemetry."""
    decided = 0
    queries_saved = 0
    for seed in range(8):
        pdg = fusion_pdg(seed)
        telemetry = Telemetry()
        result = FusionEngine(pdg).analyze(
            NullDereferenceChecker(),
            exec_config=ExecConfig(jobs=1), telemetry=telemetry,
            triage=True)
        payload = telemetry.as_dict()
        assert payload["schema"] == SCHEMA
        triage = payload["triage"]
        assert triage["decided_infeasible"] \
            == result.triage_decided_infeasible
        assert triage["decided_feasible"] == result.triage_decided_feasible
        assert triage["sent_to_smt"] == result.smt_queries
        decided += result.triage_decided
        queries_saved += result.triage_decided
        if result.triage_decided:
            assert "triage" in payload["stages"]
    assert decided >= 1, "no candidate was ever decided without a query"
    assert queries_saved >= 1
