"""Tests for lowering: gated SSA, loop unrolling, return predication."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.checkers import DivByZeroChecker
from repro.engine import build_engine, findings_payload
from repro.fusion import prepare_pdg
from repro.lang import (Assign, Binary, BinOp, Branch, Call, Const,
                        IfThenElse, Identity, LoweringConfig, LoweringError,
                        Return, Var, VarType, compile_source)
from ir_pretty import format_function

FIGURE1 = """
fun bar(x) {
  y = x * 2;
  z = y;
  return z;
}
fun foo(a, b) {
  p = null;
  c = bar(a);
  d = bar(b);
  if (c < d) {
    return p;
  }
  return 0;
}
"""


def stmts_of(prog, name):
    return list(prog.functions[name].statements())


TESTS = pathlib.Path(__file__).resolve().parent

#: Branches closing with two joins: after a plain ``if``, and after an
#: early return, whose flag and value join beside ``x``.
TWO_JOINS = (
    "fun f(a) { x = 1; y = 2; if (a > 3) { x = a; y = a + 1; } "
    "return x + y; }",
    "fun f(a) { p = null; x = 1; if (a > 3) { return 0; } "
    "if (a < 2) { x = a + 1; } deref(p); return x; }",
)


def lowered_under_hash_seed(source: str, seed: int) -> str:
    """The IR of ``source``, compiled in a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=os.pathsep
               .join([str(TESTS.parent / "src"), str(TESTS)]))
    script = ("import sys; from repro.lang import compile_source; "
              "from ir_pretty import format_program; "
              "print(format_program(compile_source(sys.stdin.read())))")
    return subprocess.run([sys.executable, "-c", script], input=source,
                          env=env, capture_output=True, text=True,
                          check=True, timeout=60).stdout


class TestBasicLowering:
    def test_figure1_bar(self):
        prog = compile_source(FIGURE1)
        bar = prog.functions["bar"]
        kinds = [type(s).__name__ for s in bar.body]
        assert kinds == ["Identity", "Binary", "Assign", "Assign", "Return"]

    def test_ssa_single_definition(self):
        prog = compile_source("""
        fun f(a) {
          x = a;
          x = x + 1;
          x = x + 2;
          return x;
        }
        """)
        prog.validate()  # would raise on SSA violations
        names = [s.result.name for s in stmts_of(prog, "f")]
        assert len(names) == len(set(names))

    def test_parameters_get_identity_statements(self):
        prog = compile_source("fun f(a, b) { return a; }")
        body = prog.functions["f"].body
        assert isinstance(body[0], Identity) and body[0].result.name == "a"
        assert isinstance(body[1], Identity) and body[1].result.name == "b"

    def test_null_literal_marked(self):
        prog = compile_source("fun f() { p = null; return p; }")
        assign = prog.functions["f"].body[0]
        assert isinstance(assign, Assign)
        assert isinstance(assign.source, Const) and assign.source.is_null

    def test_single_return_per_function(self):
        prog = compile_source(FIGURE1)
        for f in prog.functions.values():
            returns = [s for s in f.statements() if isinstance(s, Return)]
            assert len(returns) == 1

    def test_unknown_callee_becomes_extern(self):
        prog = compile_source("fun f(a) { x = mystery(a); return x; }")
        assert "mystery" in prog.externs

    @pytest.mark.parametrize("source_name", ["pp", "q"])
    def test_copy_from_a_name_the_target_prefixes_is_kept(self,
                                                          source_name):
        """``p = pp;`` copies: ``pp`` only starts with ``p``, it is not
        a version of it, so the copy must not be dropped."""
        prog = compile_source(f"fun f(a) {{ {source_name} = null; "
                              f"p = {source_name}; deref(p); return 0; }}")
        body = prog.functions["f"].body
        assert [repr(stmt) for stmt in body[1:4]] == [
            f"{source_name} = null", f"p = {source_name}", "%t = deref(p)"]

    def test_a_version_of_the_target_needs_no_copy(self):
        prog = compile_source("fun f(a) { x = a + 1; x = x * 2; "
                              "return x; }")
        assert [repr(stmt) for stmt in prog.functions["f"].body[1:3]] == [
            "x = a + 1", "x.1 = x * 2"]


class TestGatedSsa:
    def test_if_merge_produces_ite(self):
        prog = compile_source("""
        fun f(a) {
          x = 1;
          if (a < 5) { x = 2; }
          return x;
        }
        """)
        ites = [s for s in stmts_of(prog, "f") if isinstance(s, IfThenElse)]
        # One merge for x, plus the return-predication merges.
        x_merges = [s for s in ites if s.result.name.startswith("x")]
        assert len(x_merges) == 1
        merge = x_merges[0]
        assert merge.then_value == Var("x.1", VarType.INT) or \
            isinstance(merge.then_value, (Var, Const))

    def test_else_branch_guarded_by_negation(self):
        prog = compile_source("""
        fun f(a) {
          x = 0;
          if (a < 5) { x = 1; } else { x = 2; }
          return x;
        }
        """)
        branches = [s for s in stmts_of(prog, "f") if isinstance(s, Branch)]
        assert len(branches) == 2
        # The second branch's condition is the negation (EQ cond false).
        neg_defs = [s for s in stmts_of(prog, "f")
                    if isinstance(s, Binary) and s.op is BinOp.EQ
                    and isinstance(s.rhs, Const)
                    and s.rhs.type is VarType.BOOL]
        assert len(neg_defs) == 1

    def test_branch_local_variable_out_of_scope_after_join(self):
        with pytest.raises(LoweringError):
            compile_source("""
            fun f(a) {
              if (a < 5) { t = 1; }
              return t;
            }
            """)

    def test_variable_defined_in_both_branches_visible(self):
        prog = compile_source("""
        fun f(a) {
          if (a < 5) { t = 1; } else { t = 2; }
          return t;
        }
        """)
        ret = prog.functions["f"].return_stmt
        assert ret is not None

    def test_nested_if_ordering(self):
        prog = compile_source("""
        fun f(a, b) {
          x = 0;
          if (a < 5) {
            if (b < 5) { x = 1; }
          }
          return x;
        }
        """)
        prog.validate()
        branches = [s for s in stmts_of(prog, "f") if isinstance(s, Branch)]
        assert len(branches) == 2
        outer = [b for b in branches
                 if any(isinstance(s, Branch) for s in b.body)]
        assert len(outer) == 1

    @pytest.mark.parametrize("source", TWO_JOINS,
                             ids=["if", "early-return"])
    def test_join_order_does_not_follow_string_hashing(self, source):
        """Joins and their ``%phi`` names come out in one order under
        every hash seed."""
        lowered = {lowered_under_hash_seed(source, seed)
                   for seed in range(4)}
        assert len(lowered) == 1, lowered
        assert "ite(" in lowered.pop()


class TestLoopUnrolling:
    def test_while_becomes_nested_ifs(self):
        prog = compile_source("""
        fun f(n) {
          i = 0;
          while (i < n) { i = i + 1; }
          return i;
        }
        """, LoweringConfig(loop_unroll=3))
        branches = [s for s in stmts_of(prog, "f") if isinstance(s, Branch)]
        assert len(branches) == 3
        # Each unrolled iteration re-evaluates the condition.
        conds = [s for s in stmts_of(prog, "f")
                 if isinstance(s, Binary) and s.op is BinOp.LT]
        assert len(conds) == 3

    def test_unroll_zero_drops_loop(self):
        prog = compile_source("""
        fun f(n) {
          i = 0;
          while (i < n) { i = i + 1; }
          return i;
        }
        """, LoweringConfig(loop_unroll=0))
        assert not any(isinstance(s, Branch) for s in stmts_of(prog, "f"))

    def test_loop_carried_values_chain(self):
        prog = compile_source("""
        fun f(n) {
          i = 0;
          while (i < n) { i = i + 1; }
          return i;
        }
        """, LoweringConfig(loop_unroll=2))
        prog.validate()
        # i is incremented twice along the all-taken path: i, i.1, i.2 exist.
        names = {s.result.name for s in stmts_of(prog, "f")}
        assert {"i", "i.1", "i.2"} <= names

    @pytest.mark.parametrize("engine", ["fusion", "pinpoint"])
    def test_zero_trip_counter_keeps_its_div_zero_source(self, engine):
        """A counter that leaves a loop which may run zero times keeps
        the data edge from its ``x = 0`` seed to the divisor (``a = 0``
        divides by zero; docs/loops.md)."""
        pdg = prepare_pdg(compile_source("""
        fun f(a) {
          x = 0;
          while (x < a) { x = x + 1; }
          y = 10 / x;
          return y;
        }
        """))
        result = build_engine(engine, pdg).analyze(DivByZeroChecker())
        feasible = [(f["source_function"], f["source"], f["sink_function"])
                    for f in findings_payload(result) if f["feasible"]]
        assert feasible == [("f", "x = 0", "f")]


class TestReturnPredication:
    def test_early_return_merges_retval(self):
        prog = compile_source(FIGURE1)
        foo = prog.functions["foo"]
        ret = foo.return_stmt
        assert ret is not None
        # The returned operand is a merge, not a constant.
        assert isinstance(ret.source, Var)

    def test_code_after_possible_return_is_guarded(self):
        prog = compile_source("""
        fun f(a, c) {
          if (a < 5) { return 0; }
          send(c);
          return 1;
        }
        """)
        # send must sit inside a branch (guarded by !retflag), not at the
        # top level.
        top_level_calls = [s for s in prog.functions["f"].body
                           if isinstance(s, Call)]
        assert not top_level_calls
        nested_calls = [s for s in stmts_of(prog, "f") if isinstance(s, Call)]
        assert len(nested_calls) == 1

    def test_return_in_both_branches_ends_function(self):
        prog = compile_source("""
        fun f(a) {
          if (a < 5) { return 1; } else { return 2; }
        }
        """)
        prog.validate()
        ret = prog.functions["f"].return_stmt
        assert ret is not None

    def test_statements_after_unconditional_return_dropped(self):
        prog = compile_source("""
        fun f(a) {
          return 1;
          x = 2;
          return x;
        }
        """)
        f = prog.functions["f"]
        assert not any(s.result.name.startswith("x")
                       for s in f.statements())

    def test_missing_return_yields_zero(self):
        prog = compile_source("fun f(a) { x = a; }")
        ret = prog.functions["f"].return_stmt
        assert ret is not None


class TestTypeChecking:
    def test_branch_condition_must_be_bool(self):
        with pytest.raises(LoweringError):
            compile_source("fun f(a) { if (a) { x = 1; } return 0; }")

    def test_arith_on_bool_rejected(self):
        with pytest.raises(LoweringError):
            compile_source("fun f(a) { x = (a < 1) + 2; return x; }")

    def test_logic_on_int_rejected(self):
        with pytest.raises(LoweringError):
            compile_source("fun f(a) { x = a && a; return 0; }")

    def test_mixed_return_types_rejected(self):
        with pytest.raises(LoweringError):
            compile_source("""
            fun f(a) {
              if (a < 1) { return a < 2; }
              return a;
            }
            """)

    def test_bool_function_type_inferred(self):
        prog = compile_source("""
        fun is_small(a) { return a < 10; }
        fun f(a) {
          if (is_small(a)) { return 1; }
          return 0;
        }
        """)
        prog.validate()

    def test_undefined_variable_rejected(self):
        with pytest.raises(LoweringError):
            compile_source("fun f() { return nope; }")

    def test_wrong_arity_call_rejected_at_the_call(self):
        with pytest.raises(LoweringError) as error:
            compile_source("fun g(a) { return a; }\nfun f(x) {\n"
                           "  y = g(x, x);\n  return y;\n}\n")
        assert str(error.value) == "3:7: call to g with 2 args, expected 1"

    def test_percent_identifiers_rejected(self):
        # '%'-prefixed names are reserved for internal temporaries; the
        # lexer refuses them outright.
        with pytest.raises(Exception):
            compile_source("fun f() { %x = 1; return 0; }")


class TestPrinting:
    def test_format_function_round_trips_structure(self):
        prog = compile_source(FIGURE1)
        text = format_function(prog.functions["foo"])
        assert "fun foo(a, b)" in text
        assert "bar(a)" in text and "bar(b)" in text
        assert "if (" in text
