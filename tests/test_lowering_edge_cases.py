"""Edge-case lowering tests, cross-checked against the interpreter.

The return-predication and gated-SSA machinery has the subtlest logic in
the front end; these tests pin its behaviour on the nastiest shapes by
comparing the lowered IR's execution against hand-computed semantics.
"""

import pytest

from repro.lang import LoweringConfig, compile_source
from interp_oracle import Interpreter


def run(src, args=(), fn="f", **cfg):
    config = LoweringConfig(**cfg) if cfg else None
    program = compile_source(src, config)
    program.validate()
    return Interpreter(program).run(fn, args).return_value.bits


class TestElseIfChains:
    SRC = """
    fun f(a) {
      if (a < 10) { return 1; }
      else if (a < 20) { return 2; }
      else if (a < 30) { return 3; }
      else { return 4; }
    }
    """

    @pytest.mark.parametrize("a,expected", [
        (5, 1), (15, 2), (25, 3), (99, 4), (10, 2), (30, 4)])
    def test_chain_selects_correct_arm(self, a, expected):
        assert run(self.SRC, (a,)) == expected


class TestReturnsInsideLoops:
    SRC = """
    fun f(n) {
      i = 0;
      while (i < 10) {
        if (i == n) { return i * 100; }
        i = i + 1;
      }
      return 7;
    }
    """

    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 100), (2, 200)])
    def test_return_from_unrolled_iteration(self, n, expected):
        assert run(self.SRC, (n,), loop_unroll=3) == expected

    def test_fallthrough_when_bound_exceeded(self):
        # n = 50 never matches within the unrolled iterations; the loop
        # residue is dropped, so control reaches the final return.
        assert run(self.SRC, (50,), loop_unroll=3) == 7


class TestCodeAfterConditionalReturn:
    def test_side_effects_properly_guarded(self):
        src = """
        fun f(a) {
          total = 0;
          if (a > 10) { return 111; }
          total = total + 1;
          if (a > 5) { return 222; }
          total = total + 1;
          return total;
        }
        """
        assert run(src, (20,)) == 111
        assert run(src, (7,)) == 222
        assert run(src, (1,)) == 2

    def test_calls_after_return_do_not_fire(self):
        src = """
        fun f(a) {
          if (a > 10) { return 1; }
          sink(a);
          return 0;
        }
        """
        program = compile_source(src)
        events = Interpreter(program).run("f", (20,)).sink_events
        assert events == []
        events = Interpreter(program).run("f", (3,)).sink_events
        assert len(events) == 1


class TestNestedLoops:
    SRC = """
    fun f(n, m) {
      total = 0;
      i = 0;
      while (i < n) {
        j = 0;
        while (j < m) {
          total = total + 1;
          j = j + 1;
        }
        i = i + 1;
      }
      return total;
    }
    """

    @pytest.mark.parametrize("n,m", [(0, 0), (1, 1), (2, 2), (2, 1)])
    def test_nested_iteration_counts(self, n, m):
        assert run(self.SRC, (n, m), loop_unroll=2) == n * m


class TestBooleanPlumbing:
    def test_boolean_variable_through_merge(self):
        src = """
        fun f(a) {
          ok = a > 5;
          if (a > 100) { ok = a < 120; }
          if (ok) { return 1; }
          return 0;
        }
        """
        assert run(src, (10,)) == 1
        assert run(src, (3,)) == 0
        assert run(src, (110,)) == 1
        assert run(src, (125,)) == 0

    def test_not_operator_lowering(self):
        src = """
        fun f(a) {
          bad = !(a > 5);
          if (bad) { return 1; }
          return 0;
        }
        """
        assert run(src, (3,)) == 1
        assert run(src, (9,)) == 0

    def test_boolean_returning_function_in_condition(self):
        src = """
        fun small(x) { return x < 10; }
        fun f(a) {
          if (small(a)) { return 1; }
          return 0;
        }
        """
        assert run(src, (5,)) == 1
        assert run(src, (50,)) == 0


class TestShadowingAndScopes:
    def test_reassignment_in_branch_merges(self):
        src = """
        fun f(a) {
          x = 1;
          y = 2;
          if (a > 5) {
            x = y + 10;
            y = x + 1;
          }
          return x + y;
        }
        """
        assert run(src, (9,)) == 12 + 13
        assert run(src, (1,)) == 3

    def test_while_condition_uses_updated_values(self):
        src = """
        fun f(n) {
          i = 0;
          s = 0;
          while (s < n) {
            i = i + 1;
            s = s + i;
          }
          return i;
        }
        """
        # s: 1, 3, 6 after 1, 2, 3 iterations.
        assert run(src, (4,), loop_unroll=4) == 3
