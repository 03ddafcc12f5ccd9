"""Coverage for the IR printer, dot exports, and small odds and ends."""

import pytest

from repro.lang import BinOp, Branch, Const, Var, VarType, compile_source
from repro.lang.ir import Assign, Binary, Function, Identity, IfThenElse
from repro.pdg import build_pdg, compute_slice, pdg_to_dot
from repro.sparse import collect_candidates
from repro.checkers import NullDereferenceChecker
from ir_pretty import format_function, format_program, format_stmt

SRC = """
fun helper(x) {
  y = x + 1;
  return y;
}
fun f(a) {
  p = null;
  b = helper(a);
  if (b > 3) {
    deref(p);
  }
  return 0;
}
"""


class TestPrettyPrinter:
    def test_nested_branch_indentation(self):
        prog = compile_source("""
        fun f(a, b) {
          x = 0;
          if (a > 1) {
            if (b > 2) { x = 9; }
          }
          return x;
        }
        """)
        text = format_function(prog.functions["f"])
        lines = text.splitlines()
        inner = next(line for line in lines if "x.1" in line
                     and "ite" not in line)
        assert inner.startswith("      ")  # two levels of nesting

    def test_program_includes_externs(self):
        prog = compile_source(SRC)
        text = format_program(prog)
        assert "extern deref;" in text
        assert "fun helper(x)" in text and "fun f(a)" in text

    def test_single_statement_format(self):
        stmt = Binary(Var("c", VarType.BOOL), BinOp.LT,
                      Var("a"), Const(5))
        assert format_stmt(stmt) == "c = a < 5"

    def test_ite_repr(self):
        stmt = IfThenElse(Var("m"), Var("c", VarType.BOOL), Var("x"),
                          Const(0))
        assert repr(stmt) == "m = ite(c, x, 0)"

    def test_identity_repr(self):
        assert repr(Identity(Var("a"))) == "a = <a>"


class TestDotExports:
    def test_slice_highlighting(self):
        pdg = build_pdg(compile_source(SRC))
        [candidate] = collect_candidates(pdg, NullDereferenceChecker())
        the_slice = compute_slice(pdg, [candidate.path])
        dot = pdg_to_dot(pdg, highlight=the_slice)
        assert "lightyellow" in dot  # sliced vertices are filled

    def test_plain_export_has_clusters(self):
        dot = pdg_to_dot(build_pdg(compile_source(SRC)))
        assert "subgraph cluster_helper" in dot
        assert "subgraph cluster_f" in dot

    def test_quotes_escaped(self):
        dot = pdg_to_dot(build_pdg(compile_source(SRC)))
        # Every label is well-formed (balanced quotes per line).
        for line in dot.splitlines():
            assert line.count('"') % 2 == 0


class TestIrHelpers:
    def test_function_size_counts_nested(self):
        prog = compile_source(SRC)
        f = prog.functions["f"]
        flat = sum(1 for _ in f.statements())
        assert f.size() == flat
        assert any(isinstance(s, Branch) for s in f.statements())

    def test_defined_vars_maps_every_statement(self):
        prog = compile_source(SRC)
        f = prog.functions["f"]
        defined = f.defined_vars()
        assert set(defined) == {s.result.name for s in f.statements()}

    def test_program_size_sums_functions(self):
        prog = compile_source(SRC)
        assert prog.size() == sum(f.size()
                                  for f in prog.functions.values())

    def test_validate_catches_double_definition(self):
        fn = Function("bad", (Var("a"),), [
            Identity(Var("a")),
            Assign(Var("x"), Var("a")),
            Assign(Var("x"), Const(1)),
        ])
        from repro.lang.ir import Program
        prog = Program()
        prog.add(fn)
        with pytest.raises(ValueError, match="SSA"):
            prog.validate()

    def test_validate_catches_undefined_use(self):
        fn = Function("bad", (), [Assign(Var("x"), Var("ghost"))])
        from repro.lang.ir import Program
        prog = Program()
        prog.add(fn)
        with pytest.raises(ValueError, match="undefined"):
            prog.validate()

    def test_duplicate_function_rejected(self):
        from repro.lang.ir import Program
        prog = Program()
        prog.add(Function("f", (), []))
        with pytest.raises(ValueError, match="duplicate"):
            prog.add(Function("f", (), []))
