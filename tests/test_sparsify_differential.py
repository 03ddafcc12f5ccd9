"""Differential suite: sparsified analysis is byte-identical to the
full-graph walk.

The sparsification contract (`repro.pdg.reduce`, docs/sparsification.md)
is that per-checker pruned views change *nothing* the program can see:
candidates, verdicts, witnesses, and the rendered findings payload are
equal to the full walk, bit for bit.  These tests pin that across 25
fuzzed programs for both path-sensitive engines, sequential and on a
process pool, against the full-walk engines of
``tests/full_walk_oracle.py``.
"""

import json

import pytest

from repro.baselines import PinpointConfig, PinpointEngine
from repro.bench import SubjectSpec, generate_subject
from repro.checkers import NullDereferenceChecker
from repro.engine import findings_payload
from repro.exec import ExecConfig, Telemetry
from repro.fusion import (FusionConfig, FusionEngine, GraphSolverConfig,
                          prepare_pdg)

from full_walk_oracle import FullWalkFusion, FullWalkPinpoint

FUZZ_SEEDS = list(range(25))

#: Seeds with interesting shapes for the (slower) process/Pinpoint
#: passes — same convention as tests/test_parallel_driver.py.
SMALL_SEEDS = [0, 7, 17, 23]


def fuzz_pdg(seed: int):
    spec = SubjectSpec("fuzz-sparsify", seed=seed, num_functions=6,
                       layers=3, avg_stmts=5, call_fanout=2,
                       null_bugs=(1, 1, 1),
                       taint23_bugs=(1, 0, 1))
    return prepare_pdg(generate_subject(spec).program)


def fusion(pdg, sparsify: bool) -> FusionEngine:
    engine = FusionEngine if sparsify else FullWalkFusion
    return engine(pdg, FusionConfig(
        solver=GraphSolverConfig(want_model=True)))


def pinpoint(pdg, sparsify: bool) -> PinpointEngine:
    engine = PinpointEngine if sparsify else FullWalkPinpoint
    return engine(pdg, PinpointConfig())


def rendered(result) -> str:
    """The serve/CLI byte-identity currency: the findings payload."""
    return json.dumps(findings_payload(result), sort_keys=True)


def canonical(result):
    return [(report.checker,
             tuple((step.vertex.index, step.frame.fid)
                   for step in report.candidate.path.steps),
             report.feasible,
             report.decided_by,
             tuple(sorted(report.witness.items())))
            for report in result.reports]


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fusion_sparsified_matches_full(seed):
    pdg = fuzz_pdg(seed)
    checker = NullDereferenceChecker()
    full = fusion(pdg, sparsify=False).analyze(checker)
    assert full.candidates > 0, "fuzz spec generated no candidates"
    sparse = fusion(pdg, sparsify=True).analyze(checker)
    assert rendered(sparse) == rendered(full)
    assert canonical(sparse) == canonical(full)
    assert sparse.candidates == full.candidates
    assert sparse.smt_queries == full.smt_queries


@pytest.mark.parametrize("seed", SMALL_SEEDS)
def test_pinpoint_sparsified_matches_full(seed):
    pdg = fuzz_pdg(seed)
    checker = NullDereferenceChecker()
    full = pinpoint(pdg, sparsify=False).analyze(checker)
    sparse = pinpoint(pdg, sparsify=True).analyze(checker)
    assert rendered(sparse) == rendered(full)
    assert canonical(sparse) == canonical(full)


@pytest.mark.parametrize("checker_name", ["cwe-23", "cwe-402",
                                          "div-zero"])
def test_every_checker_sparsifies_identically(checker_name):
    from repro.engine import CHECKER_FACTORIES

    for seed in SMALL_SEEDS:
        pdg = fuzz_pdg(seed)
        checker_factory = CHECKER_FACTORIES[checker_name]
        full = fusion(pdg, sparsify=False).analyze(checker_factory())
        sparse = fusion(pdg, sparsify=True).analyze(checker_factory())
        assert rendered(sparse) == rendered(full), (checker_name, seed)


@pytest.mark.parametrize("seed", SMALL_SEEDS)
@pytest.mark.parametrize("jobs,rung", [(4, "process")])
def test_fusion_pooled_sparsified_matches_full(seed, jobs, rung):
    """jobs=4 on a process pool: forked workers solve the candidates the
    parent collected over its pruned view and must render the full
    pipeline's bytes."""
    pdg = fuzz_pdg(seed)
    checker = NullDereferenceChecker()
    full = fusion(pdg, sparsify=False).analyze(checker)
    telemetry = Telemetry()
    pooled = fusion(pdg, sparsify=True).analyze(
        checker, exec_config=ExecConfig(jobs=jobs), telemetry=telemetry)
    assert telemetry.as_dict()["context"]["backend"] == rung
    assert rendered(pooled) == rendered(full)
    assert canonical(pooled) == canonical(full)


@pytest.mark.parametrize("seed", SMALL_SEEDS[:2])
def test_pinpoint_pooled_sparsified_matches_full(seed):
    pdg = fuzz_pdg(seed)
    checker = NullDereferenceChecker()
    full = pinpoint(pdg, sparsify=False).analyze(checker)
    pooled = pinpoint(pdg, sparsify=True).analyze(
        checker, exec_config=ExecConfig(jobs=4))
    assert rendered(pooled) == rendered(full)


@pytest.mark.parametrize("seed", SMALL_SEEDS[:2])
def test_jobs1_exec_path_sparsified_matches_full(seed):
    """jobs=1 through the exec layer (not the seed loop) with views on."""
    pdg = fuzz_pdg(seed)
    checker = NullDereferenceChecker()
    full = fusion(pdg, sparsify=False).analyze(checker)
    routed = fusion(pdg, sparsify=True).analyze(
        checker, exec_config=ExecConfig(jobs=1))
    assert rendered(routed) == rendered(full)
