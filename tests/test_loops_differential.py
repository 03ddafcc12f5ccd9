"""Differential suite: loop summaries vs unrolling vs the interpreter.

The loop-summary contract (docs/loops.md) is relational, not byte-level:
SSA spelling differs between the two lowerings, but on the 25-seed
loop-heavy corpus the ``summaries`` strategy must

* decide every (source function, sink function) pair exactly as the
  ``unroll`` strategy decides it at the same depth bound — shallow
  (the default 2) and deep (8);
* never report a bug the concrete interpreter refutes when its witness
  is replayed;
* agree for both path-sensitive engines (Fusion and the Pinpoint
  baseline), on the inline rung and a process pool, and
  across a cold-then-warm artifact store, including a loop-body edit in
  between (warm replay stays byte-identical to a cold run under either
  strategy).
"""

import json
import tempfile

import pytest

from repro.baselines import PinpointConfig, PinpointEngine
from repro.bench.generator import loop_heavy_source
from repro.checkers import DivByZeroChecker, NullDereferenceChecker
from repro.engine import (AnalysisSession, EngineSettings,
                          findings_payload)
from repro.exec import ArtifactStore, ExecConfig
from repro.fusion import (FusionConfig, FusionEngine, GraphSolverConfig,
                          prepare_pdg)
from repro.lang import LoweringConfig, compile_source
from repro.lang.interp import Interpreter

FUZZ_SEEDS = list(range(25))

#: Seeds for the slower passes (process pool, Pinpoint, store), same
#: convention as the other differential suites.
SMALL_SEEDS = [0, 7, 17, 23]

CHECKERS = {"null-deref": NullDereferenceChecker,
            "div-zero": DivByZeroChecker}

GRID = [(0, 0), (1, 3), (7, 2), (60, 9), (100, 1), (200, 4)]


def corpus_source(seed: int) -> str:
    return loop_heavy_source(9000 + seed, functions=3)


def lower(source: str, strategy: str, depth: int = 2):
    return compile_source(source, LoweringConfig(
        loop_unroll=depth, loop_strategy=strategy))


def fusion(pdg) -> FusionEngine:
    return FusionEngine(pdg, FusionConfig(
        solver=GraphSolverConfig(want_model=True)))


def verdicts(result):
    """Strategy-independent verdict identity: which (source function,
    sink function) pairs are feasible.  Sorted so report order and SSA
    spelling are both free."""
    return sorted((r.feasible, r.source.function, r.sink.function)
                  for r in result.reports)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_summaries_decide_every_pair_unroll_decides(seed):
    source = corpus_source(seed)
    for depth in (2, 8):
        summarized = prepare_pdg(lower(source, "summaries", depth))
        unrolled = prepare_pdg(lower(source, "unroll", depth))
        for name, factory in CHECKERS.items():
            summary_result = fusion(summarized).analyze(factory())
            unroll_result = fusion(unrolled).analyze(factory())
            assert summary_result.candidates > 0, \
                "corpus generated no candidates"
            assert verdicts(summary_result) == verdicts(unroll_result), \
                (name, depth)
            # No new UNKNOWNs: every pair unroll decides, summaries
            # decides.
            assert summary_result.unknown_queries == \
                unroll_result.unknown_queries, (name, depth)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_interpreter_parity_across_strategies(seed):
    source = corpus_source(seed)
    for depth in (2, 8):
        summarized = lower(source, "summaries", depth)
        unrolled = lower(source, "unroll", depth)
        for fn in sorted(summarized.functions):
            params = summarized.functions[fn].params
            for args in GRID:
                inputs = list(args)[:len(params)]
                inputs += [0] * (len(params) - len(inputs))
                left = Interpreter(summarized).run(fn, inputs)
                right = Interpreter(unrolled).run(fn, inputs)
                assert left.return_value == right.return_value, \
                    (fn, args, depth)
                assert left.sink_events == right.sink_events, \
                    (fn, args, depth)


@pytest.mark.parametrize("seed", SMALL_SEEDS)
def test_summarized_witnesses_survive_replay(seed):
    """No interpreter-refuted reports: every feasible null-deref under
    summaries carries a witness whose replay drives null into the
    sink."""
    source = corpus_source(seed)
    program = lower(source, "summaries")
    result = fusion(prepare_pdg(program)).analyze(
        NullDereferenceChecker())
    replayed = 0
    for report in result.reports:
        if not report.feasible:
            continue
        assert report.witness, "feasible report without a witness"
        entry = report.sink.function
        fn = program.functions[entry]
        args = [report.witness.get(f"{entry}::{p.name}#f0", 0)
                for p in fn.params]
        execution = Interpreter(program).run(entry, args)
        assert any(e.passed_null for e in execution.events_for("deref")), \
            (entry, args)
        replayed += 1
    assert replayed > 0, "corpus seed produced no feasible null bug"


@pytest.mark.parametrize("seed", SMALL_SEEDS)
def test_pinpoint_baseline_agrees(seed):
    source = corpus_source(seed)
    for name, factory in CHECKERS.items():
        results = {}
        for strategy in ("summaries", "unroll"):
            pdg = prepare_pdg(lower(source, strategy))
            results[strategy] = PinpointEngine(
                pdg, PinpointConfig()).analyze(factory())
        assert verdicts(results["summaries"]) == \
            verdicts(results["unroll"]), name


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_pooled_execution_matches_sequential(backend):
    source = corpus_source(0)
    pdg = prepare_pdg(lower(source, "summaries"))
    checker = NullDereferenceChecker
    sequential = fusion(pdg).analyze(checker())
    exec_config = ExecConfig() if backend == "inline" \
        else ExecConfig(jobs=2, backend=backend)
    pooled = fusion(pdg).analyze(checker(), exec_config=exec_config)
    assert json.dumps(findings_payload(pooled)) == \
        json.dumps(findings_payload(sequential))


@pytest.mark.parametrize("seed", SMALL_SEEDS)
@pytest.mark.parametrize("strategy", ["summaries", "unroll"])
def test_store_cold_warm_and_loop_edit(seed, strategy):
    """Cold run, warm no-op replay, then a loop-body edit: the warm
    session's findings stay byte-identical to a cold session on the
    same source under the same strategy."""
    import re

    source = corpus_source(seed)
    # Bump the first loop counter's increment: every loop body has one.
    edited = re.sub(r"(\n    i\d+ = i\d+ \+ )\d;", r"\g<1>3;", source,
                    count=1)
    assert edited != source
    settings = EngineSettings(loop_strategy=strategy)
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        session = AnalysisSession(source, settings=settings, store=store)
        cold = session.analyze("null-deref")
        warm = session.analyze("null-deref")
        assert json.dumps(findings_payload(warm)) == \
            json.dumps(findings_payload(cold))
        assert warm.replayed_verdicts == warm.candidates
        session.update_source(edited)
        after_edit = session.analyze("null-deref")
    cold_edited = AnalysisSession(edited, settings=settings) \
        .analyze("null-deref")
    assert json.dumps(findings_payload(after_edit)) == \
        json.dumps(findings_payload(cold_edited))
