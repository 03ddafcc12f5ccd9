"""Differential suite for unrolled loops on the 25-seed loop-heavy corpus.

Loops are lowered one way, by bounded unrolling (docs/loops.md).  On
every corpus program, at the default bound 2 and at 8,

* Fusion and the Pinpoint baseline decide every (source, sink) pair
  alike, with no UNKNOWN verdict;
* every feasible null dereference carries a witness that drives null
  into the sink when the concrete interpreter replays it;
* a zero-initialised counter that leaves a loop which may run zero
  times, and is then used as a divisor, is a feasible div-zero finding
  from its ``= 0`` seed (each corpus program ends with one such
  function);
* a process pool gives the inline rung's findings, and a warm artifact
  store replays a cold run byte for byte, across a loop-body edit too.
"""

import json
import random
import re
import tempfile

import pytest

from repro.baselines import PinpointConfig, PinpointEngine
from repro.checkers import DivByZeroChecker, NullDereferenceChecker
from repro.engine import (AnalysisSession, EngineSettings,
                          findings_payload)
from repro.exec import ArtifactStore, ExecConfig
from repro.fusion import (FusionConfig, FusionEngine, GraphSolverConfig,
                          prepare_pdg)
from repro.lang import LoweringConfig, compile_source
from interp_oracle import Interpreter
from loop_corpus import loop_heavy_source

FUZZ_SEEDS = list(range(25))

#: Seeds for the slower passes (process pool, store), same convention
#: as the other differential suites.
SMALL_SEEDS = [0, 7, 17, 23]

CHECKERS = {"null-deref": NullDereferenceChecker,
            "div-zero": DivByZeroChecker}


def zero_trip_source(seed: int) -> str:
    """A counter seeded with 0 that may skip its loop, then divides."""
    rng = random.Random(seed)
    counter = rng.choice(["x", "n", "cnt"])
    return f"""
fun zerotrip(a) {{
  {counter} = 0;
  while ({counter} < a) {{ {counter} = {counter} + {rng.randint(1, 3)}; }}
  y = {rng.randint(1, 99)} / {counter};
  return y;
}}
"""


def corpus_source(seed: int) -> str:
    return loop_heavy_source(9000 + seed, functions=3) \
        + zero_trip_source(seed)


def lower(source: str, depth: int = 2):
    return compile_source(source, LoweringConfig(loop_unroll=depth))


def fusion(pdg) -> FusionEngine:
    return FusionEngine(pdg, FusionConfig(
        solver=GraphSolverConfig(want_model=True)))


def verdicts(result):
    """Which (source, sink) pairs are feasible, sorted so report order
    is free."""
    return sorted((r.feasible, r.source.function, repr(r.source.stmt),
                   r.sink.function, repr(r.sink.stmt))
                  for r in result.reports)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_pinpoint_baseline_agrees(seed):
    source = corpus_source(seed)
    for depth in (2, 8):
        pdg = prepare_pdg(lower(source, depth))
        for name, factory in CHECKERS.items():
            ours = fusion(pdg).analyze(factory())
            theirs = PinpointEngine(pdg, PinpointConfig()).analyze(factory())
            assert ours.candidates > 0, "corpus generated no candidates"
            assert verdicts(ours) == verdicts(theirs), (name, depth)
            assert ours.unknown_queries == theirs.unknown_queries == 0, \
                (name, depth)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_zero_trip_divisor_is_reported(seed):
    source = corpus_source(seed)
    counter = re.search(r"fun zerotrip\(a\) \{\n  (\w+) = 0;",
                        source).group(1)
    for depth in (0, 2, 8):
        result = fusion(prepare_pdg(lower(source, depth))) \
            .analyze(DivByZeroChecker())
        reported = {(r.source.function, repr(r.source.stmt))
                    for r in result.reports if r.feasible}
        assert ("zerotrip", f"{counter} = 0") in reported, depth


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_witnesses_survive_replay(seed):
    """No interpreter-refuted reports: every feasible null-deref carries
    a witness whose replay drives null into the sink."""
    source = corpus_source(seed)
    for depth in (2, 8):
        program = lower(source, depth)
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
            assert any(e.passed_null
                       for e in execution.events_for("deref")), \
                (entry, args, depth)
            replayed += 1
        assert replayed > 0, "corpus seed produced no feasible null bug"


@pytest.mark.parametrize("rung", ["inline", "process"])
def test_pooled_execution_matches_sequential(rung):
    source = corpus_source(0)
    pdg = prepare_pdg(lower(source))
    checker = NullDereferenceChecker
    sequential = fusion(pdg).analyze(checker())
    exec_config = ExecConfig(jobs=1 if rung == "inline" else 2)
    pooled = fusion(pdg).analyze(checker(), exec_config=exec_config)
    assert json.dumps(findings_payload(pooled)) == \
        json.dumps(findings_payload(sequential))


@pytest.mark.parametrize("seed", SMALL_SEEDS)
def test_store_cold_warm_and_loop_edit(seed):
    """Cold run, warm no-op replay, then a loop-body edit: the warm
    session's findings stay byte-identical to a cold session on the
    same source."""
    source = corpus_source(seed)
    # Bump the first loop counter's increment: every loop body has one.
    edited = re.sub(r"(\n    i\d+ = i\d+ \+ )\d;", r"\g<1>3;", source,
                    count=1)
    assert edited != source
    settings = EngineSettings()
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
