"""The constant fold behind div-zero's sources (``checkers/divzero.py``).

Four layers: the fold's operator table against the SMT semantics,
exhaustively at width 4; the fold's soundness against concrete
execution on fuzzed functions (every source is 0 on every input); the
fold's cache keyed by the graph; and handwritten programs for each
rule.
"""

import itertools
import random

from repro.checkers import DivByZeroChecker
from repro.checkers.divzero import fold_binary
from repro.engine import AnalysisSession, EngineSettings
from repro.fusion import ConditionTransformer, prepare_pdg
from repro.lang import BinOp, LoweringConfig, compile_source
from repro.smt.semantics import evaluate
from interp_oracle import FactModel, Interpreter

WIDTH = 4
#: Operators that also take two booleans (the transformer picks the
#: Boolean connective for them).
BOOLEAN_OPS = (BinOp.AND, BinOp.OR, BinOp.BAND, BinOp.BOR, BinOp.BXOR,
               BinOp.EQ, BinOp.NE)


TRANSFORMER = ConditionTransformer(prepare_pdg(compile_source(
    "fun f() {\n  return 0;\n}\n", LoweringConfig(width=WIDTH))))


def semantics(op: BinOp, a: int, b: int, boolean: bool = False) -> int:
    """``a op b`` as the condition transformer encodes it, evaluated."""
    mgr = TRANSFORMER.manager
    if boolean:
        lhs, rhs = mgr.bool_const(bool(a)), mgr.bool_const(bool(b))
    else:
        lhs, rhs = mgr.bv_const(a, WIDTH), mgr.bv_const(b, WIDTH)
    return evaluate(TRANSFORMER._binary_term(op, lhs, rhs), {})


def test_fold_table_is_the_smt_semantics():
    """Every operator on every pair of width-4 constants (and of
    booleans where the operator takes them)."""
    values = range(1 << WIDTH)
    for op in BinOp:
        if op not in (BinOp.AND, BinOp.OR):
            for a, b in itertools.product(values, repeat=2):
                assert fold_binary(op, a, b, WIDTH) == \
                    semantics(op, a, b), (op, a, b)
        if op in BOOLEAN_OPS:
            for a, b in itertools.product((0, 1), repeat=2):
                assert fold_binary(op, a, b, WIDTH) == \
                    semantics(op, a, b, boolean=True), (op, a, b)


def test_zero_operand_rules_hold_for_every_unknown():
    """Where one side is unknown and the fold still answers, every value
    of that side gives the answer; the rules fire where the docs say."""
    values = range(1 << WIDTH)
    fired = set()
    for op in BinOp:
        if op in (BinOp.AND, BinOp.OR):
            continue
        for known in values:
            for unknown_left in (False, True):
                a, b = (None, known) if unknown_left else (known, None)
                folded = fold_binary(op, a, b, WIDTH)
                if folded is None:
                    continue
                fired.add((op, unknown_left, known))
                for x in values:
                    pair = (x, known) if unknown_left else (known, x)
                    assert semantics(op, *pair) == folded, (op, pair)
    assert fired == (
        {(op, unknown_left, 0) for op in (BinOp.MUL, BinOp.BAND)
         for unknown_left in (False, True)}
        | {(op, False, 0) for op in (BinOp.REM, BinOp.SHL, BinOp.SHR)}
        | {(op, True, k) for op in (BinOp.SHL, BinOp.SHR)
           for k in range(WIDTH, 1 << WIDTH)})
    assert fold_binary(BinOp.DIV, 0, None, WIDTH) is None  # 0 / 0 = 15


def zero_names(source: str, function: str = "f") -> list[str]:
    pdg = prepare_pdg(compile_source(source))
    return [vertex.var.name for vertex in DivByZeroChecker().sources(pdg)
            if vertex.function == function]


def test_div_zero_fold_is_keyed_by_the_graph_not_its_address(monkeypatch):
    """CPython reuses a freed object's address, so ``id(pdg)`` can name
    a later PDG: a constant ``id`` simulates that reuse, and the checker
    must still fold again for a different graph."""
    monkeypatch.setattr("repro.checkers.divzero.id", lambda obj: 1,
                        raising=False)
    checker = DivByZeroChecker()
    zero = prepare_pdg(compile_source(
        "fun f(a) {\n  z = 0;\n  q = a / z;\n  return q;\n}\n"))
    other = prepare_pdg(compile_source(
        "fun f(a) {\n  z = a + 1;\n  q = a / z;\n  return q;\n}\n"))
    assert [vertex.var.name for vertex in checker.sources(zero)] == ["z"]
    first = checker._values
    assert checker.sources(other) == []
    second = checker._values
    assert second is not first
    checker.sources(other)
    assert checker._values is second
    assert [vertex.var.name for vertex in checker.sources(zero)] == ["z"]


def test_zero_operands():
    # The default width is 8, so of the shifts only the one by 9 clears
    # every bit; 0 / x is all ones when x is 0.
    assert zero_names("""fun f(x) {
  w = x * 0;
  y = x & 0;
  r = 0 % x;
  s = 0 << x;
  t = x >> 9;
  v = x << 7;
  u = 0 / x;
  q = x / w;
  return q;
}
""") == ["w", "y", "r", "s", "t"]


def test_ite_folds_on_a_constant_condition_or_equal_arms():
    names = zero_names("""fun f(a) {
  b = 4;
  if (b > 3) {
    v = 0;
  } else {
    v = a;
  }
  if (a > 3) {
    w = 0;
  } else {
    w = 2 - 2;
  }
  if (a > 5) {
    y = 0;
  } else {
    y = 1;
  }
  return y;
}
""")
    assert "v.2" in names and "w.2" in names, names
    assert "y.2" not in names, names


def test_a_callee_returning_zero_through_two_returns_is_a_source():
    source = """fun g(a) {
  if (a > 0) {
    return 0;
  }
  return 0;
}
fun f(a) {
  r = g(a);
  q = a / r;
  return q;
}
"""
    assert "r" in zero_names(source)
    assert "%ret" in zero_names(source, "g")


def test_a_callee_returning_a_parameter_is_unknown():
    """The parameter is unknown, whatever the actual: the zero reaches
    the division from ``z`` over the call and return edges instead."""
    source = """fun h(p) {
  return p;
}
fun f(a) {
  z = 0;
  r = h(z);
  q = a / r;
  return q;
}
"""
    assert zero_names(source) == ["z"]
    assert zero_names(source, "h") == []
    result = AnalysisSession(source, settings=EngineSettings()) \
        .analyze("div-zero")
    assert [(report.source.var.name, report.sink.var.name)
            for report in result.bugs] == [("z", "q")]


class ExprFuzzer:
    """Random extern-free function texts from a seeded RNG."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.counter = 0

    def expr(self, vars_, depth=0) -> str:
        rng = self.rng
        if depth > 2 or rng.random() < 0.35:
            if rng.random() < 0.5 and vars_:
                return rng.choice(vars_)
            return str(rng.randint(0, 40))
        op = rng.choice(["+", "-", "*", "/", "%", "&", "|", "^",
                         "<<", ">>"])
        left = self.expr(vars_, depth + 1)
        right = self.expr(vars_, depth + 1)
        if op in ("<<", ">>"):
            right = str(rng.randint(0, 3))
        return f"({left} {op} {right})"

    def cond(self, vars_) -> str:
        op = self.rng.choice(["<", "<=", ">", ">=", "==", "!="])
        return f"{self.expr(vars_, 2)} {op} {self.expr(vars_, 2)}"

    def function(self) -> str:
        rng = self.rng
        vars_ = ["a", "b"]
        lines = []
        for _ in range(rng.randint(2, 6)):
            name = f"v{self.counter}"
            self.counter += 1
            if rng.random() < 0.25:
                lines.append(f"  if ({self.cond(vars_)}) {{")
                lines.append(f"    {name} = {self.expr(vars_)};")
                lines.append("  } else {")
                lines.append(f"    {name} = {self.expr(vars_)};")
                lines.append("  }")
            else:
                lines.append(f"  {name} = {self.expr(vars_)};")
            vars_.append(name)
        ret = rng.choice(vars_)
        return "fun f(a, b) {\n" + "\n".join(lines) + \
            f"\n  return {ret};\n}}"


def test_every_source_is_zero_on_every_input():
    """Fold soundness: run each fuzzed function on all 256 inputs at
    width 4; every definition the fold marks zero produces 0."""
    sources = 0
    for seed in range(150):
        text = ExprFuzzer(random.Random(seed)).function()
        program = compile_source(text, LoweringConfig(width=WIDTH))
        zeros = DivByZeroChecker().sources(prepare_pdg(program))
        sources += len(zeros)
        model = FactModel("div-zero", frozenset(), defs=frozenset(
            (vertex.function, vertex.var.name) for vertex in zeros))
        interpreter = Interpreter(program, facts=(model,))
        for args in itertools.product(range(1 << WIDTH), repeat=2):
            births = interpreter.run("f", args).births
            assert not [origin for origin, bits in births if bits], \
                (text, args)
    assert sources > 100  # non-vacuous
