"""Fuzzing the front end: random structured programs, checked two ways.

A miniature AST fuzzer (independent of the benchmark generator) produces
random straight-line/branching/looping functions; each program must
(a) lower to valid SSA, (b) build a well-formed PDG, and (c) agree
between the concrete interpreter and the SMT translation of the lowered
IR on random inputs — the strongest cross-validation of the whole
front-end + transformation chain.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion import ConditionTransformer, prepare_pdg
from repro.lang import LoweringConfig, compile_source
from repro.pdg import validate_pdg
from repro.smt import SmtSolver, SmtStatus
from interp_oracle import Interpreter


class ProgramFuzzer:
    """Deterministic random program texts from a hypothesis-drawn seed."""

    def __init__(self, rng) -> None:
        self.rng = rng
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"v{self.counter}"

    def expr(self, vars_, depth=0) -> str:
        rng = self.rng
        if depth > 2 or rng.random() < 0.3:
            if rng.random() < 0.5 and vars_:
                return rng.choice(vars_)
            return str(rng.randint(0, 30))
        op = rng.choice(["+", "-", "*", "&", "|", "^", "<<"])
        left = self.expr(vars_, depth + 1)
        right = self.expr(vars_, depth + 1)
        if op == "<<":
            right = str(rng.randint(0, 3))
        return f"({left} {op} {right})"

    def cond(self, vars_) -> str:
        op = self.rng.choice(["<", "<=", ">", ">=", "==", "!="])
        return f"{self.expr(vars_, 2)} {op} {self.expr(vars_, 2)}"

    def block(self, vars_, depth, budget) -> list[str]:
        rng = self.rng
        lines: list[str] = []
        local_vars = list(vars_)
        for _ in range(budget):
            roll = rng.random()
            if roll < 0.2 and depth < 2:
                inner = self.block(local_vars, depth + 1, rng.randint(1, 3))
                pad = "  " * (depth + 1)
                lines.append(f"{pad}if ({self.cond(local_vars)}) {{")
                lines.extend(inner)
                if rng.random() < 0.4:
                    lines.append(f"{pad}}} else {{")
                    lines.extend(self.block(local_vars, depth + 1,
                                            rng.randint(1, 2)))
                lines.append(f"{pad}}}")
            elif roll < 0.3 and depth < 1:
                v = self.fresh()
                pad = "  " * (depth + 1)
                lines.append(f"{pad}{v} = 0;")
                bound = rng.choice(local_vars) if local_vars else "3"
                lines.append(f"{pad}while ({v} < {bound}) {{")
                lines.append(f"{pad}  {v} = {v} + "
                             f"{rng.randint(1, 7)};")
                lines.append(f"{pad}}}")
                local_vars.append(v)
            else:
                v = self.fresh()
                pad = "  " * (depth + 1)
                lines.append(f"{pad}{v} = {self.expr(local_vars)};")
                local_vars.append(v)
        # Record block-local variables for the caller via mutation of the
        # outer list only at depth 0 (branch locals are scoped away).
        if depth == 0:
            vars_[:] = local_vars
        return lines

    def function(self) -> str:
        vars_ = ["a", "b"]
        body = self.block(vars_, 0, self.rng.randint(2, 6))
        ret = self.rng.choice(vars_)
        return "fun f(a, b) {\n" + "\n".join(body) + \
            f"\n  return {ret};\n}}"


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**9), a=st.integers(0, 255),
       b=st.integers(0, 255))
def test_fuzzed_program_full_pipeline(seed, a, b):
    import random

    src = ProgramFuzzer(random.Random(seed)).function()
    program = compile_source(src, LoweringConfig(loop_unroll=2, width=8))
    program.validate()

    pdg = prepare_pdg(program)
    report = validate_pdg(pdg)
    assert report.ok, (report.errors, src)

    # The post-dominance control-dependence computation agrees with the
    # PDG's control parents on every fuzzed shape.
    from cfg_oracle import ControlFlowGraph, statement_control_deps
    from_cfg = statement_control_deps(ControlFlowGraph(program.functions["f"]))
    for vertex in pdg.function_vertices("f"):
        parent = pdg.control_parent(vertex)
        from_pdg = set() if parent is None else {id(parent.stmt)}
        assert from_cfg[id(vertex.stmt)] == from_pdg, src

    # Interpreter semantics...
    concrete = Interpreter(program).run("f", (a, b)).return_value.bits

    # ...must match the SMT translation with pinned parameters.
    transformer = ConditionTransformer(pdg)
    mgr = transformer.manager
    needed = frozenset(v.index for v in pdg.function_vertices("f"))
    template = transformer.template("f", needed)
    fn = program.functions["f"]
    constraints = list(template.constraints)
    for param, value in zip(fn.params, (a, b)):
        constraints.append(mgr.eq(transformer.var_term("f", param),
                                  mgr.bv_const(value, 8)))
    result = SmtSolver(mgr).check(constraints, want_model=True)
    assert result.status is SmtStatus.SAT, src
    ret = pdg.return_vertex("f")
    ret_term = transformer.var_term("f", ret.var)
    assert result.model.get(ret_term) == concrete, src
