"""Interpreter tests: concrete semantics, witness replay, and the
differential property against the SMT translation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import PinpointEngine
from repro.bench import SubjectSpec, generate_subject
from repro.checkers import NullDereferenceChecker, cwe402_checker
from repro.checkers.taint import (CWE23_SANITIZERS, CWE23_SOURCES,
                                  CWE402_SANITIZERS, CWE402_SOURCES)
from repro.fusion import (ConditionTransformer, FusionConfig, FusionEngine,
                          GraphSolverConfig, prepare_pdg)
from repro.lang import LoweringConfig, compile_source
from repro.smt import SmtSolver, SmtStatus
from interp_oracle import (SANITIZERS, TAINT_SOURCES, InterpError,
                           Interpreter, Value)


def interp(src, fn="f", args=(), **kwargs):
    program = compile_source(src, LoweringConfig(**kwargs)) \
        if kwargs else compile_source(src)
    return Interpreter(program).run(fn, args)


def fusion_with_models(pdg) -> FusionEngine:
    """Fusion extracting a model per report, with every callee cloned.
    A quick path's HAVOC summary drops the binding of a return that
    bottoms out in an extern, so that return is free in the model and
    may take a value no execution produces; with quick paths off every
    value a replay computes is pinned by the condition."""
    return FusionEngine(pdg, FusionConfig(solver=GraphSolverConfig(
        want_model=True, use_quickpaths=False)))


def empty_function_model(callee, args) -> Value:
    """Externs as the condition transformer models them (Figure 5, last
    rule): a one-actual extern returns its actual's bits.  The witness is
    a model of that semantics, so a replay must use it too; the
    interpreter's default havoc (0) would contradict any witness whose
    branch reads an extern's result."""
    return Value(args[0].bits) if len(args) == 1 else Value(0)


def replays_into_sink(program, report) -> bool:
    """Run the path's root activation on the witness's values for its
    parameters (0 where the model leaves one free) and check that a null
    reaches the report's sink.  The root is the sink side of the path: a
    fact that escapes its birth function through a return replays from
    the caller whose body reaches the sink."""
    root = report.candidate.path.root_frame()
    params = program.functions[root.function].params
    args = [report.witness.get(f"{root.function}::{p.name}#f{root.fid}", 0)
            for p in params]
    execution = Interpreter(program, extern_model=empty_function_model) \
        .run(root.function, args)
    return any(event.passed_null for event in
               execution.events_for(report.sink.stmt.callee))


def test_taint_tables_equal_the_checkers():
    """The oracle spells its taint model out; it must be the union of
    the taint checkers' tables."""
    assert TAINT_SOURCES == CWE23_SOURCES | CWE402_SOURCES
    assert SANITIZERS == CWE23_SANITIZERS | CWE402_SANITIZERS


class TestBasicExecution:
    def test_arithmetic(self):
        result = interp("fun f(a, b) { c = a * 2 + b; return c; }",
                        args=(10, 5))
        assert result.return_value.bits == 25

    def test_wraparound(self):
        result = interp("fun f(a) { return a + 200; }", args=(100,))
        assert result.return_value.bits == (300 % 256)

    def test_branching(self):
        src = "fun f(a) { x = 0; if (a > 5) { x = 1; } return x; }"
        assert interp(src, args=(9,)).return_value.bits == 1
        assert interp(src, args=(3,)).return_value.bits == 0

    def test_early_return(self):
        src = """
        fun f(a) {
          if (a > 5) { return 100; }
          return 7;
        }
        """
        assert interp(src, args=(9,)).return_value.bits == 100
        assert interp(src, args=(1,)).return_value.bits == 7

    def test_while_loop_executes_within_bound(self):
        src = """
        fun f(n) {
          i = 0;
          while (i < n) { i = i + 1; }
          return i;
        }
        """
        # Unrolled 3 times: inputs <= 3 compute exactly.
        assert interp(src, args=(3,), loop_unroll=3,
                      width=8).return_value.bits == 3

    def test_calls(self):
        src = """
        fun double(x) { return x * 2; }
        fun f(a) {
          b = double(a);
          c = double(b);
          return c;
        }
        """
        assert interp(src, args=(3,)).return_value.bits == 12

    def test_signed_comparison(self):
        # 200 is -56 signed: less than 5.
        assert interp("fun f(a) { return a < 5; }",
                      args=(200,)).return_value.bits == 1

    def test_division_by_zero_semantics(self):
        assert interp("fun f(a) { return a / 0; }",
                      args=(9,)).return_value.bits == 255
        assert interp("fun f(a) { return a % 0; }",
                      args=(9,)).return_value.bits == 9

    def test_missing_function(self):
        program = compile_source("fun f() { return 0; }")
        with pytest.raises(InterpError):
            Interpreter(program).run("g")

    def test_wrong_arity(self):
        program = compile_source("fun f(a) { return a; }")
        with pytest.raises(InterpError):
            Interpreter(program).run("f", ())


class TestProvenance:
    def test_null_reaches_sink(self):
        result = interp("""
        fun f() {
          p = null;
          deref(p);
          return 0;
        }
        """)
        [event] = result.events_for("deref")
        assert event.passed_null

    def test_null_killed_by_arithmetic(self):
        result = interp("""
        fun f() {
          p = null;
          q = p + 1;
          deref(q);
          return 0;
        }
        """)
        [event] = result.events_for("deref")
        assert not event.passed_null

    def test_taint_survives_arithmetic(self):
        result = interp("""
        fun f() {
          t = getpass();
          u = t * 3 + 1;
          sendmsg(u);
          return 0;
        }
        """)
        [event] = result.events_for("sendmsg")
        assert event.passed_taint("getpass")

    def test_sanitizer_strips_taint(self):
        result = interp("""
        fun f() {
          t = gets();
          u = sanitize_path(t);
          fopen(u);
          return 0;
        }
        """)
        [event] = result.events_for("fopen")
        assert not event.passed_taint("gets")

    def test_custom_extern_model(self):
        program = compile_source("fun f() { x = magic(); return x; }")
        interp_obj = Interpreter(
            program, extern_model=lambda name, args: Value(42))
        assert interp_obj.run("f").return_value.bits == 42


class TestWitnessReplay:
    """The solver's model, fed back through the interpreter, must drive
    the tracked value into the sink — end-to-end confirmation of every
    feasible report — and the reported set must match the generator's
    ground-truth labels."""

    SRC = """
    fun bar(x) {
      y = x * 2;
      z = y;
      return z;
    }
    fun entry(a, b) {
      p = null;
      c = bar(a);
      d = bar(b);
      if (c < d) {
        deref(p);
      }
      return 0;
    }
    """

    def test_replayed_witness_triggers_the_bug(self):
        program = compile_source(self.SRC)
        pdg = prepare_pdg(program)
        config = FusionConfig(solver=GraphSolverConfig(want_model=True))
        result = FusionEngine(pdg, config).analyze(NullDereferenceChecker())
        [report] = result.bugs
        assert report.witness

        # Root-frame parameter values from the model.
        fn = program.functions["entry"]
        args = [report.witness.get(f"entry::{p.name}#f0", 0)
                for p in fn.params]
        execution = Interpreter(program).run("entry", args)
        deref_events = execution.events_for("deref")
        assert deref_events and deref_events[0].passed_null

    def test_taint_witness_replay(self):
        src = """
        fun entry(k) {
          s = getpass();
          if (k > 40) {
            sendmsg(s);
          }
          return 0;
        }
        """
        program = compile_source(src)
        pdg = prepare_pdg(program)
        config = FusionConfig(solver=GraphSolverConfig(want_model=True))
        result = FusionEngine(pdg, config).analyze(cwe402_checker())
        [report] = result.bugs
        k = report.witness.get("entry::k#f0", 0)
        execution = Interpreter(program).run("entry", [k])
        assert any(e.passed_taint("getpass")
                   for e in execution.events_for("sendmsg"))


    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_reports_never_contradict_execution(self, seed):
        """On generated subjects, Fusion (default and with models) and
        Pinpoint report every labelled-feasible source and no
        labelled-infeasible one, and every witness of the model-extracting
        Fusion replays into a null reaching the sink (Pinpoint extracts
        no models)."""
        spec = SubjectSpec("fuzz-witness-replay", seed=seed,
                           num_functions=6, layers=3, avg_stmts=5,
                           call_fanout=2, null_bugs=(1, 1, 1))
        subject = generate_subject(spec)
        program = subject.program
        pdg = prepare_pdg(program)
        truth = subject.truth_for("null-deref")
        feasible = {bug.source_function for bug in truth
                    if bug.path_feasible}
        infeasible = {bug.source_function for bug in truth
                      if not bug.path_feasible}

        fusion = fusion_with_models(pdg).analyze(NullDereferenceChecker())
        default = FusionEngine(pdg).analyze(NullDereferenceChecker())
        pinpoint = PinpointEngine(pdg).analyze(NullDereferenceChecker())
        for result in (fusion, default, pinpoint):
            reported = {report.source.function for report in result.bugs}
            assert feasible <= reported, (seed, result.engine)
            assert not reported & infeasible, (seed, result.engine)
        for report in fusion.bugs:
            assert replays_into_sink(program, report), \
                (seed, report, report.witness)

    def test_witness_replays_when_source_escapes_via_return(self):
        """A fact born in a parameter-free callee and escaping through a
        return edge must be replayed from the *caller* — the function
        whose execution actually reaches the sink — not the birth
        function (whose replay would never call anything)."""
        program = compile_source("""
fun make() {
  p = null;
  return p;
}
fun use(k) {
  p = make();
  c = 1;
  d = 2;
  if (c < d) {
    deref(p);
  }
  return 0;
}
""")
        pdg = prepare_pdg(program)
        fusion = fusion_with_models(pdg).analyze(NullDereferenceChecker())
        pinpoint = PinpointEngine(pdg).analyze(NullDereferenceChecker())
        for result in (fusion, pinpoint):
            assert result.bugs, "the escaped null must reach the deref"
            for report in result.bugs:
                assert report.candidate.path.root_frame().function == "use"
        for report in fusion.bugs:
            assert replays_into_sink(program, report), report.witness


class TestDifferentialAgainstSmt:
    """The interpreter and the SMT translation are independent semantics
    for the same IR; on extern-free programs they must agree exactly."""

    @settings(max_examples=30, deadline=None)
    @given(a=st.integers(0, 255), b=st.integers(0, 255),
           seed=st.integers(0, 3))
    def test_function_value_agrees(self, a, b, seed):
        bodies = [
            "c = a * 3 + b; d = c << 1; return d - a;",
            "c = a & b; if (a > b) { c = a | b; } return c + 1;",
            "c = 0; if (a < 10) { c = a * a; } else { c = b; } return c;",
            "c = a / (b | 1); return c % 13;",
        ]
        src = f"fun f(a, b) {{ {bodies[seed]} }}"
        program = compile_source(src)
        concrete = Interpreter(program).run("f", (a, b)).return_value.bits

        pdg = prepare_pdg(program)
        transformer = ConditionTransformer(pdg)
        mgr = transformer.manager
        needed = frozenset(v.index for v in pdg.function_vertices("f"))
        template = transformer.template("f", needed)
        fn = program.functions["f"]
        constraints = list(template.constraints)
        for param, value in zip(fn.params, (a, b)):
            constraints.append(mgr.eq(
                transformer.var_term("f", param),
                mgr.bv_const(value, program.width)))
        result = SmtSolver(mgr).check(constraints, want_model=True)
        assert result.status is SmtStatus.SAT
        ret = pdg.return_vertex("f")
        ret_term = transformer.var_term("f", ret.var)
        model_value = result.model.get(ret_term)
        assert model_value == concrete, src
