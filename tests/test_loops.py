"""Unit tests for solver-driven loop summaries (``repro.loops``).

Covers: the summary/unroll semantic-equivalence contract on hand-written
loops, every fallback-to-unroll rule, observable (division) emission,
the cross-edit summary cache and its alpha-canonical keys (renamed loops
share one entry, with IR equal to a cache that never hits), the
loop-lowering telemetry counters, and
the recursion-limit regression of the legacy unroll path (a free-bound
loop at ``--unroll 2000`` used to blow the Python stack).
"""

import json
import sys
import tempfile

import pytest

from repro.checkers import DivByZeroChecker, NullDereferenceChecker
from repro.engine import (AnalysisSession, EngineSettings,
                          findings_payload)
from repro.exec.telemetry import SCHEMA
from repro.fusion import prepare_pdg
from repro.lang import LoweringConfig, compile_source
from repro.lang.interp import Interpreter
from repro.lang.ir import Assign, Binary, BinOp, Const
from repro.loops import LOOP_STRATEGIES, SummaryCache


def lower(source: str, strategy: str, depth: int = 2, **kwargs):
    return compile_source(source, LoweringConfig(
        loop_unroll=depth, loop_strategy=strategy, **kwargs))


def execute(program, fn: str, args):
    result = Interpreter(program).run(fn, list(args))
    return (result.return_value,
            [(e.callee, tuple(v.bits for v in e.args))
             for e in result.sink_events])


def assert_equivalent(source: str, fn: str, grid, depth: int = 2):
    """Summaries and unrolling must be observationally equal: same
    return value and same sink-event trace on every input."""
    summarized = lower(source, "summaries", depth)
    unrolled = lower(source, "unroll", depth)
    for args in grid:
        assert execute(summarized, fn, args) == \
            execute(unrolled, fn, args), (args, depth)


GRID = [(0, 0), (1, 3), (2, 7), (5, 2), (60, 9), (100, 1), (255, 255)]


class TestSemanticEquivalence:
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
        for depth in (1, 2, 4, 8):
            assert_equivalent(src, "f", GRID, depth)

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
        for depth in (1, 2, 5):
            assert_equivalent(src, "f", GRID, depth)

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
        assert_equivalent(src, "f", GRID)
        assert_equivalent(src, "f", GRID, depth=6)

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
        assert_equivalent(src, "f", GRID)
        for strategy in LOOP_STRATEGIES:
            program = lower(src, strategy)
            result = __import__("repro.fusion", fromlist=["FusionEngine"]) \
                .FusionEngine(prepare_pdg(program)) \
                .analyze(NullDereferenceChecker())
            assert sum(1 for r in result.reports if r.feasible) == 1, \
                strategy


class TestFallbackRules:
    def summarize(self, src: str, **kwargs):
        program = lower(src, "summaries", **kwargs)
        return program, program.loop_stats

    def test_call_in_body_falls_back(self):
        src = """
        fun g(a) { return a + 1; }
        fun f(k, m) {
          i = 0;
          while (i < 3) { i = g(i); }
          return i;
        }
        """
        _, stats = self.summarize(src)
        assert stats.fallback_unrolls == 1
        assert stats.loops_summarized == 0
        assert_equivalent(src, "f", GRID)

    def test_null_in_body_falls_back(self):
        src = """
        fun f(k, m) {
          i = 0;
          p = 1;
          while (i < 3) { p = null; i = i + 1; }
          return i;
        }
        """
        _, stats = self.summarize(src)
        assert stats.fallback_unrolls == 1
        assert_equivalent(src, "f", GRID)

    def test_return_in_body_falls_back(self):
        src = """
        fun f(k, m) {
          i = 0;
          while (i < 3) {
            if (k > 9) { return i; }
            i = i + 1;
          }
          return i;
        }
        """
        _, stats = self.summarize(src)
        assert stats.fallback_unrolls == 1
        assert_equivalent(src, "f", GRID)

    def test_nested_loop_falls_back(self):
        src = """
        fun f(k, m) {
          i = 0;
          acc = 0;
          while (i < 3) {
            j = 0;
            while (j < 2) { acc = acc + 1; j = j + 1; }
            i = i + 1;
          }
          return acc;
        }
        """
        _, stats = self.summarize(src)
        # The outer loop is ineligible; the inner loop, revisited inside
        # the unrolled expansion, summarizes on its own.
        assert stats.fallback_unrolls >= 1
        assert_equivalent(src, "f", GRID)

    def test_path_budget_overflow_falls_back(self):
        branches = "\n".join(
            f"            if (k > {10 * n}) {{ acc = acc + {n}; }}"
            for n in range(1, 9))
        src = f"""
        fun f(k, m) {{
          i = 0;
          acc = 0;
          while (i < 2) {{
{branches}
            i = i + 1;
          }}
          return acc;
        }}
        """
        program = compile_source(src, LoweringConfig(
            loop_unroll=2, loop_strategy="summaries", loop_paths=8))
        assert program.loop_stats.fallback_unrolls == 1
        assert program.loop_stats.loops_summarized == 0

    def test_unroll_zero_drops_loops_under_both_strategies(self):
        src = """
        fun f(k, m) {
          i = 0;
          while (i < 3) { i = i + 1; }
          return i;
        }
        """
        for strategy in LOOP_STRATEGIES:
            program = lower(src, strategy, depth=0)
            assert execute(program, "f", (1, 2))[0].bits == 0


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
        from repro.fusion import FusionEngine

        feasible = {}
        for strategy in LOOP_STRATEGIES:
            program = lower(src, strategy)
            result = FusionEngine(prepare_pdg(program)) \
                .analyze(DivByZeroChecker())
            feasible[strategy] = sum(
                1 for r in result.reports if r.feasible)
        # Equal-or-better: the summary path materializes the constant
        # divisor into a def (`%lsd = 0`), which gives the checker a
        # source vertex the literal operand of the unrolled lowering
        # never had.  Summaries may therefore report strictly more true
        # positives here, never fewer.
        assert feasible["summaries"] >= 1
        assert feasible["summaries"] >= feasible["unroll"]

    def test_const_divisor_is_materialized(self):
        src = """
        fun f(k, m) {
          i = 0;
          acc = k;
          while (i < 2) {
            acc = acc / 3;
            i = i + 1;
          }
          return acc;
        }
        """
        program = lower(src, "summaries")
        assert program.loop_stats.loops_summarized == 1
        stmts = list(program.functions["f"].statements())
        divs = [s for s in stmts
                if isinstance(s, Binary) and s.op is BinOp.DIV]
        assert divs, "division observable was folded away"
        const_feeds = {s.result.name: s.source for s in stmts
                       if isinstance(s, Assign)
                       and isinstance(s.source, Const)}
        assert any(const_feeds.get(getattr(d.rhs, "name", None))
                   == Const(3) for d in divs), \
            "constant divisor must flow through a materialized def"
        assert_equivalent(src, "f", GRID)


class TestSummaryCache:
    SRC = """
    fun f(k, m) {
      i = 0;
      acc = k;
      while (i < 4) {
        acc = acc + m;
        i = i + 1;
      }
      return acc;
    }

    fun other(a) {
      return a + 1;
    }
    """

    def test_cache_hits_across_unrelated_edit(self):
        session = AnalysisSession(self.SRC)
        first = session.pdg.program.loop_stats
        assert first.loops_summarized == 1
        assert first.summary_cache_hits == 0
        session.update_source(self.SRC.replace("a + 1", "a + 2"))
        second = session.pdg.program.loop_stats
        assert second.loops_summarized == 1
        assert second.summary_cache_hits == 1

    def test_loop_body_edit_misses(self):
        session = AnalysisSession(self.SRC)
        session.update_source(self.SRC.replace("acc + m", "acc + m + 1"))
        assert session.pdg.program.loop_stats.summary_cache_hits == 0

    def test_negative_results_are_cached(self):
        # A loop with a call is rejected before the cache is consulted;
        # a *budget overflow* is discovered inside summarization, so its
        # None result is worth remembering across compiles.
        cache = SummaryCache()
        branches = "\n".join(
            f"    if (k > {10 * n}) {{ acc = acc + {n}; }}"
            for n in range(1, 9))
        src = f"""
        fun f(k) {{
          i = 0;
          acc = 0;
          while (i < 2) {{
{branches}
            i = i + 1;
          }}
          return acc;
        }}
        """
        config = LoweringConfig(loop_paths=8, summary_cache=cache)
        first = compile_source(src, config)
        assert first.loop_stats.fallback_unrolls == 1
        assert cache.misses == 1
        second = compile_source(src, config)
        assert second.loop_stats.fallback_unrolls == 1
        assert second.loop_stats.summary_cache_hits == 1
        assert cache.hits == 1 and cache.misses == 1
        # The overflowing exploration ran its feasibility solves before
        # giving up, and the miss counts them; the hit runs none.
        assert first.loop_stats.sat_checks > 0
        assert second.loop_stats.sat_checks == 0


class NeverHitCache(SummaryCache):
    """Summarizes every loop afresh, numbering its variables in sorted
    surface order, so its recipes need no re-sort on the way out."""

    def summarize(self, shape, kinds, **config):
        order = sorted(range(len(shape.names)), key=shape.names.__getitem__)
        sorted_shape = shape._replace(
            names=tuple(shape.names[k] for k in order))
        return SummaryCache().summarize(
            sorted_shape, tuple(kinds[k] for k in order), **config)


class TestAlphaCanonicalKeys:
    """Loops that differ only in variable spelling share one entry."""

    RENAMED = """
    fun f(n, k) {
      a = k;
      b = k - 1;
      while (b < n) {
        b = b + 1;
        if (k > 9) { a = a + 2; } else { a = a + b; }
      }
      return a + b;
    }

    fun g(m, k) {
      x = k;
      y = k - 1;
      while (y < m) {
        y = y + 1;
        if (k > 9) { x = x + 2; } else { x = x + y; }
      }
      return x + y;
    }
    """

    @staticmethod
    def compile_with(source: str, cache: SummaryCache, depth: int = 2):
        return compile_source(source, LoweringConfig(
            loop_unroll=depth, summary_cache=cache))

    def test_renamed_loop_hits_with_identical_ir(self):
        from repro.lang.pretty import format_program

        # `b` is numbered before `a`, `y` before `x`: canonical order is
        # not surface order, so the hit must re-sort its outputs.
        cache = SummaryCache()
        shared = self.compile_with(self.RENAMED, cache)
        assert (cache.misses, cache.hits) == (1, 1)
        assert shared.loop_stats.loops_summarized == 2
        fresh = self.compile_with(self.RENAMED, NeverHitCache())
        assert format_program(shared) == format_program(fresh)

    @pytest.mark.parametrize("seeds", [
        ("i = 0; j = k;", "i = 1; j = k;"),              # constant value
        ("i = k + 1; j = k + 2;", "i = k > 1; j = k > 2;"),  # int vs bool
    ])
    def test_seed_value_or_kind_change_misses(self, seeds):
        source = "\n".join(f"""
        fun f{n}(k) {{
          {seed}
          while (i != j) {{ i = j; }}
          return 0;
        }}""" for n, seed in enumerate(seeds))
        cache = SummaryCache()
        program = self.compile_with(source, cache)
        assert program.loop_stats.loops_summarized == 2
        assert (cache.misses, cache.hits) == (2, 0)

    @pytest.mark.parametrize("depth", [2, 8])
    def test_shared_cache_matches_never_hit_cache_on_fuzz_corpus(self, depth):
        from repro.bench.generator import loop_heavy_source
        from repro.lang.pretty import format_program

        shared = SummaryCache()
        for seed in range(25):
            source = loop_heavy_source(9000 + seed, functions=3)
            assert format_program(self.compile_with(source, shared, depth)) \
                == format_program(self.compile_with(source, NeverHitCache(),
                                                    depth)), seed
        assert shared.hits > shared.misses


class TestUnrollRecursionRegression:
    """``--unroll 2000`` under the unroll strategy used to crash with
    RecursionError (recursive AST expansion, recursive statement
    walker).  Both paths are iterative now."""

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
        program = lower(self.SRC, "unroll", depth=2000)
        assert program.size() > 2000

    def test_deep_bound_under_summaries_compiles(self):
        # The free-bound loop overflows the path budget at this depth
        # and falls back to (now iterative) unrolling — no crash.
        program = lower(self.SRC, "summaries", depth=2000)
        assert program.size() > 2000


class TestConfigurationSurface:
    def test_unknown_strategy_rejected_by_lowering(self):
        with pytest.raises(ValueError):
            compile_source("fun f(a) { return a; }",
                           LoweringConfig(loop_strategy="bogus"))

    def test_unknown_strategy_rejected_by_settings_payload(self):
        payload = EngineSettings().to_payload()
        payload["loop_strategy"] = "bogus"
        with pytest.raises(ValueError):
            EngineSettings.from_payload(payload)

    def test_settings_payload_round_trips_loop_fields(self):
        settings = EngineSettings(loop_strategy="unroll", loop_paths=16)
        restored = EngineSettings.from_payload(settings.to_payload())
        assert restored == settings

    def test_telemetry_carries_loop_counters(self):
        from repro.exec import Telemetry

        telemetry = Telemetry()
        telemetry.record_loops(loops_summarized=3, paths_enumerated=7,
                               fallback_unrolls=1, summary_cache_hits=2,
                               sat_checks=5)
        other = Telemetry()
        other.record_loops(loops_summarized=1)
        telemetry.merge(other)
        document = telemetry.as_dict()
        assert document["schema"] == SCHEMA
        assert document["loops"]["loops_summarized"] == 4
        assert document["loops"]["paths_enumerated"] == 7

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
            assert args.loop_strategy == "summaries", command
            assert args.loop_paths == 64, command
            assert args.unroll == 2, command
            assert args.width == 8, command
        assert not hasattr(parser.parse_args(["bench"] + required["bench"]),
                           "loop_strategy")
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

    def test_scan_loop_strategy_flag(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "prog.fl"
        src.write_text("""
        fun f(k) {
          p = null;
          i = 0;
          while (i < 3) { i = i + 1; }
          if (k > 5) { deref(p); }
          return i;
        }
        """)
        codes = {}
        for strategy in LOOP_STRATEGIES:
            codes[strategy] = main(["scan", str(src), "--checker",
                                    "null-deref", "--loop-strategy",
                                    strategy, "--json"])
            payload = json.loads(capsys.readouterr().out)
            assert any(f["feasible"] for f in payload["findings"]), \
                strategy
        assert codes == {"summaries": 1, "unroll": 1}


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

    @pytest.mark.parametrize("strategy", LOOP_STRATEGIES)
    def test_warm_replay_is_byte_identical_across_loop_edit(
            self, strategy):
        from repro.exec import ArtifactStore

        edited = self.SRC.replace("acc + m", "acc + m + 1")
        settings = EngineSettings(loop_strategy=strategy)
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
