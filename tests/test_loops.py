"""Unit tests for bounded loop unrolling, the only loop lowering.

Covers: unrolled loops against a Python model of the bounded semantics
(a loop runs its body at most ``--unroll`` times, then exits with its
current state), bound 0 dropping every loop and a negative bound being
refused, a division inside a loop keeping its div-zero verdict, the
retired loop-lowering settings (journals that carry them still
recover), the shared ``--unroll`` flag, warm store replay across a
loop-body edit,
and the recursion-limit regression of the unroll path (a free-bound
loop at ``--unroll 2000`` used to blow the Python stack).
"""

import json
import sys
import tempfile

import pytest

from repro.checkers import DivByZeroChecker, NullDereferenceChecker
from repro.engine import (AnalysisSession, EngineSettings,
                          findings_payload)
from repro.fusion import FusionEngine, prepare_pdg
from repro.lang import LoweringConfig, compile_source
from interp_oracle import Interpreter

WIDTH = 8
MASK = (1 << WIDTH) - 1


def lower(source: str, depth: int = 2):
    return compile_source(source, LoweringConfig(loop_unroll=depth))


def returned(program, fn: str, args) -> int:
    return Interpreter(program).run(fn, list(args)).return_value.bits


def signed(bits: int) -> int:
    return bits - (1 << WIDTH) if bits & (1 << (WIDTH - 1)) else bits


def bounded(state: dict, cond, body, depth: int) -> dict:
    """The loop's bounded semantics: at most ``depth`` iterations."""
    for _ in range(depth):
        if not cond(state):
            break
        body(state)
        for name, value in state.items():
            state[name] = value & MASK
    return state


GRID = [(0, 0), (1, 3), (2, 7), (5, 2), (60, 9), (100, 1), (255, 255)]


class TestSemanticEquivalence:
    """Unrolled IR, run on the interpreter, equals the bounded model on
    every input of the grid."""

    def test_const_trip_accumulation(self):
        src = """
        fun f(k, m) {
          i = 0;
          acc = k;
          while (i < 5) {
            acc = acc + m;
            i = i + 1;
          }
          return acc + i;
        }
        """

        def step(s):
            s["acc"] += s["m"]
            s["i"] += 1

        for depth in (1, 2, 4, 8):
            program = lower(src, depth)
            for k, m in GRID:
                s = bounded({"i": 0, "acc": k, "m": m},
                            lambda s: signed(s["i"]) < 5, step, depth)
                assert returned(program, "f", (k, m)) \
                    == (s["acc"] + s["i"]) & MASK, (k, m, depth)

    def test_free_bound_loop(self):
        src = """
        fun f(k, m) {
          i = 0;
          while (i < m) {
            i = i + 2;
          }
          return i;
        }
        """

        def step(s):
            s["i"] += 2

        for depth in (1, 2, 5):
            program = lower(src, depth)
            for k, m in GRID:
                s = bounded({"i": 0, "m": m},
                            lambda s: signed(s["i"]) < signed(s["m"]),
                            step, depth)
                assert returned(program, "f", (k, m)) == s["i"], \
                    (k, m, depth)

    def test_branch_in_body(self):
        src = """
        fun f(k, m) {
          i = 0;
          acc = 0;
          while (i < 4) {
            if (k > 50) {
              acc = acc + m;
            } else {
              acc = acc + 1;
            }
            i = i + 1;
          }
          return acc;
        }
        """

        def step(s):
            s["acc"] += s["m"] if signed(s["k"]) > 50 else 1
            s["i"] += 1

        for depth in (2, 6):
            program = lower(src, depth)
            for k, m in GRID:
                s = bounded({"i": 0, "acc": 0, "k": k, "m": m},
                            lambda s: signed(s["i"]) < 4, step, depth)
                assert returned(program, "f", (k, m)) == s["acc"], \
                    (k, m, depth)

    def test_sink_after_loop_survives(self):
        src = """
        fun f(k, m) {
          p = null;
          i = 0;
          while (i < 3) {
            i = i + 1;
          }
          if (k > 10) {
            deref(p);
          }
          return i;
        }
        """
        program = lower(src)
        for k, m in GRID:
            assert returned(program, "f", (k, m)) == 2
        result = FusionEngine(prepare_pdg(program)) \
            .analyze(NullDereferenceChecker())
        assert sum(1 for r in result.reports if r.feasible) == 1


class TestUnrollBound:
    SRC = """
    fun f(k, m) {
      i = 0;
      while (i < 3) { i = i + 1; }
      return i;
    }
    """

    def test_unroll_zero_drops_loops(self):
        program = lower(self.SRC, depth=0)
        assert returned(program, "f", (1, 2)) == 0

    def test_negative_unroll_is_refused(self):
        with pytest.raises(ValueError,
                           match="unroll bound must not be negative"):
            lower(self.SRC, depth=-1)


class TestObservables:
    def test_division_in_loop_keeps_div_zero_verdict(self):
        src = """
        fun f(k, m) {
          i = 0;
          acc = 0;
          while (i < 2) {
            acc = acc + k / 0;
            i = i + 1;
          }
          return acc;
        }
        """
        result = FusionEngine(prepare_pdg(lower(src))) \
            .analyze(DivByZeroChecker())
        # The literal divisor `/ 0` has no defining statement, so the
        # checker has no source vertex for it: no finding.  A divisor
        # bound to a variable is reported (tests/test_lang_lowering.py).
        assert sum(1 for r in result.reports if r.feasible) == 0


class TestUnrollRecursionRegression:
    """``--unroll 2000`` used to crash with RecursionError (recursive AST
    expansion, recursive statement walker).  Both paths are iterative
    now."""

    SRC = """
    fun f(k, m) {
      i = 0;
      while (i < m) { i = i + 1; }
      return i;
    }
    """

    def test_deep_unroll_compiles(self):
        limit = sys.getrecursionlimit()
        assert limit <= 10_000, "test assumes a default-ish stack limit"
        program = lower(self.SRC, depth=2000)
        assert program.size() > 2000


class TestConfigurationSurface:
    def test_settings_payload_round_trips_loop_fields(self):
        """Journals written before loops were always unrolled carry
        ``loop_strategy`` and ``loop_paths``; both are retired settings
        and drop out, at any strategy that existed and any int budget
        (values decoded from JSON, as a journal holds them)."""
        settings = EngineSettings(loop_unroll=5, width=6)
        assert EngineSettings.from_payload(settings.to_payload()) \
            == settings
        for strategy in ("summaries", "unroll"):
            for paths in (0, 16, 64, 200, 10 ** 6):
                payload = dict(settings.to_payload(),
                               loop_strategy=strategy, loop_paths=paths)
                payload = json.loads(json.dumps(payload))
                assert EngineSettings.from_payload(payload) == settings

    @pytest.mark.parametrize("field, value", [
        ("loop_strategy", "bogus"), ("loop_strategy", 1),
        ("loop_paths", True), ("loop_paths", "64"), ("loop_paths", 6.4),
        ("loop_unroll", -1), ("width", 0)])
    def test_settings_payload_declines_other_values(self, field, value):
        payload = EngineSettings().to_payload()
        payload[field] = value
        with pytest.raises(ValueError):
            EngineSettings.from_payload(payload)

    def test_cli_exposes_loop_flags_uniformly(self):
        from repro.cli import build_parser

        parser = build_parser()
        required = {"scan": ["x.fl"],
                    "query": ["x.fl", "--checker", "null-deref",
                              "--sink", "1"],
                    "analyze": ["--subject", "mcf"],
                    "bench": ["--subject", "mcf"],
                    "serve": [],
                    "pdg": ["--subject", "mcf"]}
        # bench runs registry subjects under their own specs, so it
        # takes no lowering flags.
        for command in ("scan", "query", "analyze", "serve", "pdg"):
            args = parser.parse_args([command] + required[command])
            assert args.unroll == 2, command
            assert args.width == 8, command
        assert not hasattr(parser.parse_args(["bench"] + required["bench"]),
                           "unroll")
        # No engine switch is left on any subcommand that builds a
        # path-sensitive engine; the retired switches are refused.
        for command in ("query", "analyze", "bench", "serve"):
            argv = [command] + required[command]
            assert not hasattr(parser.parse_args(argv), "incremental")
            for retired in ("--triage", "--no-triage", "--sparsify",
                            "--no-sparsify", "--incremental",
                            "--no-incremental"):
                with pytest.raises(SystemExit):
                    parser.parse_args(argv + [retired])


class TestStoreFingerprintInteraction:
    SRC = """
    fun f(k, m) {
      p = null;
      i = 0;
      acc = k;
      while (i < 4) {
        acc = acc + m;
        i = i + 1;
      }
      if (acc > 3) { deref(p); }
      return acc;
    }
    """

    @pytest.mark.parametrize("unroll", [2, 8])
    def test_warm_replay_is_byte_identical_across_loop_edit(self, unroll):
        from repro.exec import ArtifactStore

        edited = self.SRC.replace("acc + m", "acc + m + 1")
        settings = EngineSettings(loop_unroll=unroll)
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root)
            session = AnalysisSession(self.SRC, settings=settings,
                                      store=store)
            session.analyze("null-deref")
            session.update_source(edited)
            warm = session.analyze("null-deref")
        cold = AnalysisSession(edited, settings=settings) \
            .analyze("null-deref")
        assert json.dumps(findings_payload(warm)) == \
            json.dumps(findings_payload(cold))
