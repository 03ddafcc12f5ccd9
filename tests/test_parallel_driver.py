"""Differential suite: parallel execution is report-identical to the
one-job run (the scheduler's inline rung, on the caller's engine).

The query scheduler's contract (`repro.exec.scheduler`) is that every
feasibility query is a pure function of ``(PDG, candidate, engine
config)`` and that outcomes are assembled by candidate index.  The
purity half is pinned across fifty fuzzed programs without forking: each
program's candidates are solved through the worker state a pool worker
inherits (the parent's candidates, a fresh engine per query), in
reversed and in shuffled order, and every outcome must equal the inline
rung's in *every* program-visible field — status, preprocess decision
and witness — for both Fusion and Pinpoint.  The process-pool passes then check the
assembled report lists end to end.
"""

import os
import random

import pytest

from repro.baselines import PinpointEngine
from repro.bench import SubjectSpec, generate_subject
from repro.checkers import NullDereferenceChecker
from repro.exec import ExecConfig, FaultPolicy, QueryScheduler, Telemetry
from repro.exec.scheduler import _WorkerState
from repro.fusion import (FusionConfig, FusionEngine, GraphSolverConfig,
                          prepare_pdg)
from repro.sparse import collect_candidates

FUZZ_SEEDS = list(range(50))

#: Seeds with interesting shapes for the (slower) process/Pinpoint passes.
SMALL_SEEDS = [0, 7, 17, 23, 41]


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def fuzz_pdg(seed: int):
    spec = SubjectSpec("fuzz-parallel", seed=seed, num_functions=6,
                       layers=3, avg_stmts=5, call_fanout=2,
                       null_bugs=(1, 1, 1))
    return prepare_pdg(generate_subject(spec).program)


def fusion_with_witness(pdg):
    return FusionEngine(pdg, FusionConfig(
        solver=GraphSolverConfig(want_model=True)))


def canonical(result):
    """Every program-visible report field, in report order."""
    return [(report.checker,
             tuple((step.vertex.index, step.frame.fid)
                   for step in report.candidate.path.steps),
             report.feasible,
             report.decided_by,
             tuple(sorted(report.witness.items())))
            for report in result.reports]


def run_stats(result):
    return (result.candidates, result.smt_queries,
            result.decided_in_preprocess, result.unknown_queries)


def visible(outcome):
    """Every program-visible field of one query outcome."""
    return (outcome.index, outcome.status, outcome.decided_by,
            tuple(sorted(outcome.witness.items())), outcome.error)


def assert_order_independent(engine, checker, seed):
    """Solve the run's candidates as a pool worker does, in reversed and
    in seeded-shuffle order: each outcome must equal the inline rung's
    (the caller's engine, index order) at the same index."""
    candidates = collect_candidates(engine.pdg, checker)
    assert candidates, "fuzz spec generated no candidates"
    worker = _WorkerState(engine, candidates, FaultPolicy(),
                          process_worker=True)
    scheduler = QueryScheduler(engine, ExecConfig(), Telemetry())
    expected = [visible(outcome) for outcome in scheduler.run(candidates)]
    shuffled = list(range(len(candidates)))
    random.Random(seed).shuffle(shuffled)
    for order in (list(reversed(range(len(candidates)))), shuffled):
        outcomes = sorted(worker.solve_batch(order),
                          key=lambda outcome: outcome.index)
        assert [visible(outcome) for outcome in outcomes] == expected


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fusion_worker_queries_are_order_independent(seed):
    pdg = fuzz_pdg(seed)
    assert_order_independent(fusion_with_witness(pdg),
                             NullDereferenceChecker(), seed)


@pytest.mark.parametrize("seed", SMALL_SEEDS)
def test_pinpoint_worker_queries_are_order_independent(seed):
    pdg = fuzz_pdg(seed)
    assert_order_independent(PinpointEngine(pdg),
                             NullDereferenceChecker(), seed)


@pytest.mark.parametrize("seed", SMALL_SEEDS[:3])
def test_process_pool_matches_sequential(seed):
    """Forked workers solve the parent's candidate list; indices and
    verdicts must line up with the parent's sequential run."""
    pdg = fuzz_pdg(seed)
    checker = NullDereferenceChecker()
    sequential = fusion_with_witness(pdg).analyze(checker)
    parallel = fusion_with_witness(pdg).analyze(
        checker, exec_config=ExecConfig(jobs=2))
    assert canonical(parallel) == canonical(sequential)
    assert run_stats(parallel) == run_stats(sequential)


def test_pool_solves_the_callers_candidate_list():
    """A pool solves the list it is handed, not a re-collection: on the
    reversed candidate list, two jobs must give the inline rung's
    outcome at every index."""
    pdg = fuzz_pdg(SMALL_SEEDS[1])
    checker = NullDereferenceChecker()
    engine = fusion_with_witness(pdg)
    candidates = collect_candidates(pdg, checker)[::-1]
    assert len(candidates) > 1
    inline = QueryScheduler(engine, ExecConfig(), Telemetry()) \
        .run(candidates)
    telemetry = Telemetry()
    pooled = QueryScheduler(fusion_with_witness(pdg), ExecConfig(jobs=2),
                            telemetry).run(candidates)
    assert telemetry.as_dict()["context"]["backend"] == "process"
    assert [visible(outcome) for outcome in pooled] \
        == [visible(outcome) for outcome in inline]


def query_record_fields(engine):
    return [(record.index, record.status, record.decided_by,
             record.condition_nodes, record.sat_clauses)
            for record in engine.query_records]


def test_process_pool_query_records_match_inline():
    """``engine.query_records`` holds the run's outcomes in index order,
    whichever rung solved them: a two-job process pool records the
    inline run's status, preprocess decision, condition size and clause
    count at every index."""
    pdg = fuzz_pdg(SMALL_SEEDS[1])
    checker = NullDereferenceChecker()
    inline = fusion_with_witness(pdg)
    inline.analyze(checker)
    pooled = fusion_with_witness(pdg)
    pooled.analyze(checker,
                   exec_config=ExecConfig(jobs=2))
    expected = query_record_fields(inline)
    assert [fields[0] for fields in expected] == list(range(len(expected)))
    assert any(fields[4] for fields in expected), "no query reached SAT"
    assert query_record_fields(pooled) == expected


def test_pinpoint_process_pool_matches_sequential():
    pdg = fuzz_pdg(11)
    checker = NullDereferenceChecker()
    sequential = PinpointEngine(pdg).analyze(checker)
    parallel = PinpointEngine(pdg).analyze(
        checker, exec_config=ExecConfig(jobs=2))
    assert canonical(parallel) == canonical(sequential)


@pytest.mark.skipif(_cpu_count() < 2,
                    reason="wall-time speedup needs >= 2 CPUs")
def test_process_pool_speedup_on_multicore():
    """On a multi-core box, one process worker per CPU (up to 4) must
    beat sequential wall time on a query-heavy subject.  Guarded: a
    one-core runner can show only overhead, and more workers than CPUs
    contend for them.  Each side takes its best of two runs, so one
    scheduling hiccup on a shared host cannot flip the comparison."""
    import time

    spec = SubjectSpec("speedup", seed=5, num_functions=64, layers=5,
                       avg_stmts=8, call_fanout=2, null_bugs=(8, 6, 6))
    pdg = prepare_pdg(generate_subject(spec).program)
    checker = NullDereferenceChecker()
    pooled = ExecConfig(jobs=min(4, _cpu_count()))

    def best_of_two(exec_config):
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            result = PinpointEngine(pdg).analyze(checker,
                                                 exec_config=exec_config)
            times.append(time.perf_counter() - t0)
        return result, min(times)

    sequential, t_seq = best_of_two(None)
    parallel, t_par = best_of_two(pooled)

    assert canonical(parallel) == canonical(sequential)
    assert t_par < t_seq, (t_par, t_seq)
