"""Differential suite: parallel execution is report-identical to the
one-job run (the scheduler's inline rung, on the caller's engine).

The query scheduler's contract (`repro.exec.scheduler`) is that every
feasibility query is a pure function of ``(PDG, candidate, engine
config)`` and that outcomes are assembled by candidate index.  These
tests pin that contract across fifty fuzzed programs: for each one, the
BugReport list produced with ``jobs=2`` and ``jobs=4`` must equal the
one-job run in *every* program-visible field — order,
feasibility, preprocess decision, and witness — for both Fusion and
Pinpoint, on both pool backends.
"""

import os

import pytest

from repro.baselines import PinpointEngine
from repro.bench import SubjectSpec, generate_subject
from repro.checkers import NullDereferenceChecker
from repro.exec import ExecConfig
from repro.fusion import (FusionConfig, FusionEngine, GraphSolverConfig,
                          prepare_pdg)

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
             report.decided_in_preprocess,
             tuple(sorted(report.witness.items())))
            for report in result.reports]


def run_stats(result):
    return (result.candidates, result.smt_queries,
            result.decided_in_preprocess, result.unknown_queries)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fusion_thread_pool_matches_sequential(seed):
    pdg = fuzz_pdg(seed)
    checker = NullDereferenceChecker()
    sequential = fusion_with_witness(pdg).analyze(checker)
    assert sequential.candidates > 0, "fuzz spec generated no candidates"
    expected = canonical(sequential)
    for jobs in (2, 4):
        parallel = fusion_with_witness(pdg).analyze(
            checker, exec_config=ExecConfig(jobs=jobs, backend="thread"))
        assert canonical(parallel) == expected
        assert run_stats(parallel) == run_stats(sequential)


@pytest.mark.parametrize("seed", SMALL_SEEDS)
def test_pinpoint_thread_pool_matches_sequential(seed):
    pdg = fuzz_pdg(seed)
    checker = NullDereferenceChecker()
    sequential = PinpointEngine(pdg).analyze(checker)
    parallel = PinpointEngine(pdg).analyze(
        checker, exec_config=ExecConfig(jobs=4, backend="thread"))
    assert canonical(parallel) == canonical(sequential)
    assert run_stats(parallel) == run_stats(sequential)


@pytest.mark.parametrize("seed", SMALL_SEEDS[:3])
def test_process_pool_matches_sequential(seed):
    """Workers re-collect candidates from the pickled PDG; indices and
    verdicts must still line up with the parent's sequential run."""
    pdg = fuzz_pdg(seed)
    checker = NullDereferenceChecker()
    sequential = fusion_with_witness(pdg).analyze(checker)
    parallel = fusion_with_witness(pdg).analyze(
        checker, exec_config=ExecConfig(jobs=2, backend="process"))
    assert canonical(parallel) == canonical(sequential)
    assert run_stats(parallel) == run_stats(sequential)


def test_pinpoint_process_pool_matches_sequential():
    pdg = fuzz_pdg(11)
    checker = NullDereferenceChecker()
    sequential = PinpointEngine(pdg).analyze(checker)
    parallel = PinpointEngine(pdg).analyze(
        checker, exec_config=ExecConfig(jobs=2, backend="process"))
    assert canonical(parallel) == canonical(sequential)


def test_single_query_batches_are_deterministic():
    """batch_size=1 with jobs=4 maximizes completion-order shuffle; two
    runs must still be identical to each other and to the seed loop."""
    pdg = fuzz_pdg(29)
    checker = NullDereferenceChecker()
    sequential = fusion_with_witness(pdg).analyze(checker)
    runs = [fusion_with_witness(pdg).analyze(
                checker, exec_config=ExecConfig(jobs=4, backend="thread",
                                                batch_size=1))
            for _ in range(2)]
    assert canonical(runs[0]) == canonical(runs[1]) == canonical(sequential)


def test_serial_backend_is_the_degenerate_case():
    """``--jobs 1`` (and backend=serial at any job count) is the inline
    rung on the caller's engine, the same run as passing no exec config
    at all; Table-3/Figure-11 semantics are untouched."""
    pdg = fuzz_pdg(3)
    checker = NullDereferenceChecker()
    sequential = fusion_with_witness(pdg).analyze(checker)
    jobs1 = fusion_with_witness(pdg).analyze(
        checker, exec_config=ExecConfig(jobs=1))
    serial = fusion_with_witness(pdg).analyze(
        checker, exec_config=ExecConfig(jobs=8, backend="serial"))
    assert canonical(jobs1) == canonical(serial) == canonical(sequential)


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
    pooled = ExecConfig(jobs=min(4, _cpu_count()), backend="process")

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
