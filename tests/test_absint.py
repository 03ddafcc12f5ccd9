"""Unit tests for the sparse abstract interpreter (``repro.absint``).

Three layers: exhaustive interval-transfer soundness at a small width
(every op, every concrete pair must land inside the abstract result),
the sparse fixpoint on handwritten programs, and the fixpoint's forward
soundness against concrete execution on fuzzed functions.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.absint import Interval, Nullness, analyze_pdg, binary_interval
from repro.absint.transfer import wrap_range
from repro.fusion import prepare_pdg
from repro.lang import BinOp, Interpreter, Return, compile_source
from repro.smt import to_signed

WIDTH = 4
MASK = (1 << WIDTH) - 1


def concrete(op: BinOp, a: int, b: int) -> int:
    """The interpreter's bit-level semantics (signed result)."""
    au, bu = a & MASK, b & MASK
    if op is BinOp.ADD:
        bits = (au + bu) & MASK
    elif op is BinOp.SUB:
        bits = (au - bu) & MASK
    elif op is BinOp.MUL:
        bits = (au * bu) & MASK
    elif op is BinOp.DIV:
        bits = MASK if bu == 0 else (au // bu) & MASK
    elif op is BinOp.REM:
        bits = au if bu == 0 else au % bu
    elif op is BinOp.SHL:
        bits = 0 if bu >= WIDTH else (au << bu) & MASK
    elif op is BinOp.SHR:
        bits = 0 if bu >= WIDTH else au >> bu
    elif op is BinOp.BAND:
        bits = au & bu
    elif op is BinOp.BOR:
        bits = au | bu
    elif op is BinOp.BXOR:
        bits = au ^ bu
    elif op is BinOp.LT:
        bits = int(a < b)
    elif op is BinOp.LE:
        bits = int(a <= b)
    elif op is BinOp.GT:
        bits = int(a > b)
    elif op is BinOp.GE:
        bits = int(a >= b)
    elif op is BinOp.EQ:
        bits = int(au == bu)
    elif op is BinOp.NE:
        bits = int(au != bu)
    elif op is BinOp.AND:
        bits = int(bool(au) and bool(bu))
    elif op is BinOp.OR:
        bits = int(bool(au) or bool(bu))
    else:
        raise AssertionError(op)
    return to_signed(bits, WIDTH)


def all_values():
    return range(-(1 << (WIDTH - 1)), 1 << (WIDTH - 1))


def test_wrap_range_is_exact_or_top():
    for lo in range(-20, 21):
        for hi in range(lo, lo + 20):
            box = wrap_range(lo, hi, WIDTH)
            for x in range(lo, hi + 1):
                assert box.contains(to_signed(x & MASK, WIDTH)), (lo, hi, x)


def test_binary_transfer_sound_on_singletons():
    """Exhaustive: op(a, b) is inside binary_interval([a,a], [b,b])."""
    for op in BinOp:
        for a in all_values():
            for b in all_values():
                box = binary_interval(op, Interval.const(a),
                                      Interval.const(b), WIDTH)
                assert box.contains(concrete(op, a, b)), (op, a, b, box)


def test_binary_transfer_sound_on_ranges():
    """Sampled ranges: every concrete pair stays inside the box."""
    ranges = [Interval(-8, -1), Interval(-2, 3), Interval(0, 7),
              Interval(1, 4), Interval.top(WIDTH), Interval.const(0)]
    for op in BinOp:
        for ia in ranges:
            for ib in ranges:
                box = binary_interval(op, ia, ib, WIDTH)
                for a in range(ia.lo, ia.hi + 1):
                    for b in range(ib.lo, ib.hi + 1):
                        assert box.contains(concrete(op, a, b)), \
                            (op, ia, ib, a, b, box)


def test_interval_lattice_basics():
    top = Interval.top(8)
    five = Interval.const(5)
    assert five.join(Interval.const(9)) == Interval(5, 9)
    assert five.meet(Interval(0, 4)) is None
    assert five.meet(Interval(5, 9)) == five
    assert five.subset_of(top) and not top.subset_of(five)
    assert Interval.const(1).definitely_true
    assert Interval.const(0).definitely_false
    assert not Interval(0, 1).definitely_true


FIXPOINT_SRC = """
fun main(a) {
  x = 3;
  y = x + 4;
  if (a > 0) {
    z = 1;
  } else {
    z = 2;
  }
  w = a + 1;
  return y + z;
}
"""


def test_fixpoint_constants_and_joins():
    pdg = prepare_pdg(compile_source(FIXPOINT_SRC))
    state = analyze_pdg(pdg)
    assert state.var_value("main", "y").interval == Interval.const(7)
    # The ite merge of z joins both arms.
    joined = [state.value_of(v).interval for v in pdg.vertices
              if v.function == "main" and v.var.name.startswith("z")]
    assert Interval(1, 2) in joined, joined
    # Parameters stay top: w = a + 1 cannot be narrowed.
    assert state.var_value("main", "w").interval == Interval.top(
        pdg.program.width)


def test_div_zero_fixpoint_is_keyed_by_the_graph_not_its_address(
        monkeypatch):
    """CPython reuses a freed object's address, so ``id(pdg)`` can name
    a later PDG: a constant ``id`` simulates that reuse, and the checker
    must still run the fixpoint again for a different graph."""
    from repro.checkers.divzero import DivByZeroChecker

    monkeypatch.setattr("repro.checkers.divzero.id", lambda obj: 1,
                        raising=False)
    checker = DivByZeroChecker()
    zero = prepare_pdg(compile_source(
        "fun f(a) {\n  z = 0;\n  q = a / z;\n  return q;\n}\n"))
    other = prepare_pdg(compile_source(
        "fun f(a) {\n  z = a + 1;\n  q = a / z;\n  return q;\n}\n"))
    first = checker._fixpoint(zero)
    second = checker._fixpoint(other)
    assert second is not first
    assert checker._fixpoint(other) is second
    assert [vertex.stmt.result.name for vertex in checker.sources(zero)] \
        == ["z"]
    assert checker.sources(other) == []


def test_fixpoint_nullness():
    src = """
    fun main(a) {
      p = null;
      q = 5;
      deref(q);
      return 0;
    }
    """
    pdg = prepare_pdg(compile_source(src))
    state = analyze_pdg(pdg)
    assert state.var_value("main", "p").nullness is Nullness.NULL
    # Null reduces the interval to the zero constant.
    assert state.var_value("main", "p").interval == Interval.const(0)
    assert state.var_value("main", "q").nullness is Nullness.NOT_NULL


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


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9), a=st.integers(0, 255),
       b=st.integers(0, 255))
def test_concrete_return_value_inside_abstract_interval(seed, a, b):
    """Forward soundness: whatever the arguments, the concrete return
    value (and its taint/null provenance) lies inside the fixpoint's
    abstract value for the returned definition."""
    src = ExprFuzzer(random.Random(seed)).function()
    program = compile_source(src)
    pdg = prepare_pdg(program)
    state = analyze_pdg(pdg)

    concrete_value = Interpreter(program).run("f", (a, b)).return_value
    signed = to_signed(concrete_value.bits, program.width)
    for vertex in pdg.vertices:
        if vertex.function != "f" or not isinstance(vertex.stmt, Return):
            continue
        abstract = state.value_of(vertex)
        assert not abstract.is_bottom, src
        assert abstract.interval.contains(signed), \
            (src, a, b, signed, abstract)
        assert concrete_value.taints <= frozenset(abstract.taints), src
        if not abstract.nullness.may_be_null:
            assert not concrete_value.is_null, src
