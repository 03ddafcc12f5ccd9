"""Whole-pipeline ground truth: every verdict against execution.

Hypothesis writes small programs at width 4, with at most 3 parameters
per function.  The reference interpreter (``tests/interp_oracle.py``)
runs every function on every input (16^3 = 4,096 at most), with the
extern model the condition transformer assumes
(``tests/test_interp.py::empty_function_model``) and the checkers' fact
models, and collects each (source, sink) pair a run drives a null or a
taint through.  That set is the exact bug set of the lowered program:
a pair is a bug when some execution of some function reaches it.

div-zero's facts start at the checker's own sources: the interpreter
tags each value a source definition produces, and records the divisor
of every executed ``/`` or ``%`` by a variable.  Two checks follow:
every source is 0 on every execution that reaches it (the soundness
of the constant fold behind them), and a (source, division) pair is a
bug when a run drives that zero into the divisor.

Every pipeline's verdict set (the pairs of its feasible reports) must
equal it, for null-deref, cwe-23, cwe-402 and div-zero:

* Fusion, fusion-unopt, Pinpoint and the full-walk oracle
  (``tests/full_walk_oracle.py``), at the default unroll bound 2;
* Fusion and Pinpoint at unroll bound 1, against the truth of the IR
  lowered at bound 1;
* a demand query per sink line, a warm store replaying a cold run, and
  ``analyze`` requests to an in-process ``ServeApp``.  A line names the
  variables it assigns, so a division nested in a larger expression
  (lowered to a temporary) is no line's sink: div-zero's demand
  verdicts are held to the truth at the sinks its lines resolve to.

An extern called with zero or several actuals is havoc to the
transformer, while the interpreter gives it one value.  The generator
keeps such results (and everything computed from them) out of branch
and loop conditions and out of the actuals of defined functions, whose
bodies may branch on their parameters; they still flow into arithmetic,
externs, sinks and returns.

The example count is capped (``max_examples`` below) and derandomized,
so tier-1 runs the same programs every time.
"""

import asyncio
import itertools
import re
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.checkers import DivByZeroChecker
from repro.checkers.nullderef import DEREF_SINKS
from repro.checkers.taint import (CWE23_SANITIZERS, CWE23_SINKS,
                                  CWE23_SOURCES, CWE402_SANITIZERS,
                                  CWE402_SINKS, CWE402_SOURCES)
from repro.engine import AnalysisSession, EngineSettings
from repro.engine.core import CHECKER_FACTORIES
from repro.exec import ArtifactStore
from repro.fusion import prepare_pdg
from repro.lang import LoweringConfig, compile_source
from repro.query.sites import line_index, resolve_sink_sites
from repro.serve import ServeApp, ServeConfig
from full_walk_oracle import FullWalkFusion, FullWalkPinpoint
from interp_oracle import FactModel, Interpreter
from test_interp import empty_function_model

WIDTH = 4
MAX_PARAMS = 3

#: The checkers' facts, written out (test_fact_models_equal_the_checkers
#: holds them to the checkers' tables).
NULL_SINKS = frozenset({"deref", "load", "store", "memcpy", "strlen",
                        "use_ptr"})
FACTS = (
    FactModel("null-deref", NULL_SINKS, null=True),
    FactModel("cwe-23", frozenset({"fopen", "open_file", "opendir",
                                   "unlink"}),
              sources=frozenset({"gets", "read_input", "recv", "getenv"}),
              stoppers=frozenset({"canonicalize", "sanitize_path", "fopen",
                                  "open_file", "opendir", "unlink"})),
    FactModel("cwe-402", frozenset({"send", "sendmsg", "write_socket",
                                    "log_remote"}),
              sources=frozenset({"getpass", "get_password", "read_key",
                                 "load_secret"}),
              stoppers=frozenset({"redact", "hash_secret", "send",
                                  "sendmsg", "write_socket",
                                  "log_remote"})),
)
#: The facts the generator steers sinks towards (divisions it writes
#: anyway), and every checker the pipelines run.
FACT_NAMES = tuple(model.name for model in FACTS)
CHECKERS = FACT_NAMES + ("div-zero",)

# Externs the generator calls, by fact.
SINKS = {"null-deref": ("deref", "load"), "cwe-23": ("fopen", "unlink"),
         "cwe-402": ("send", "sendmsg")}
TWO_ARG_SINKS = {"null-deref": "memcpy", "cwe-402": "log_remote"}
SOURCES = {"cwe-23": "gets", "cwe-402": "getpass"}  # zero actuals: havoc
ONE_ARG_SOURCES = {"cwe-23": "recv", "cwe-402": "load_secret"}
SANITIZERS = {"sanitize_path": "cwe-23", "redact": "cwe-402"}
ONE_ARG_EXTERNS = ("sanitize_path", "redact", "strdup", "trim")
TWO_ARG_EXTERNS = ("concat", "join")  # havoc
ARITH = ("+", "-", "*", "&", "|", "^", "/", "%")
COMPARE = ("<", "<=", ">", ">=", "==", "!=")


def test_fact_models_equal_the_checkers():
    null, cwe23, cwe402 = FACTS
    assert null.sinks == DEREF_SINKS
    assert (cwe23.sources, cwe23.sinks) == (CWE23_SOURCES, CWE23_SINKS)
    assert cwe23.stoppers == CWE23_SANITIZERS | CWE23_SINKS
    assert (cwe402.sources, cwe402.sinks) == (CWE402_SOURCES, CWE402_SINKS)
    assert cwe402.stoppers == CWE402_SANITIZERS | CWE402_SINKS


# --------------------------------------------------------------------- #
# The generator
# --------------------------------------------------------------------- #

class _Function:
    """Writes one function.  ``env`` maps each visible variable to
    (clean, facts): whether it is computed without any havoc extern
    result, and the checkers whose fact it may carry (a guess that only
    steers sinks towards carriers)."""

    def __init__(self, draw, name: str, callees: list) -> None:
        self.draw = draw
        self.name = name
        self.callees = callees  # (name, arity, returns_havoc, facts)
        self.params = ["a", "b", "c"][:draw(st.integers(0, MAX_PARAMS))]
        self.fresh = 0
        self.returns_havoc = False
        self.returns_facts = frozenset()

    def build(self) -> str:
        env = {param: (True, frozenset()) for param in self.params}
        body = self.block(env, depth=0, locked=frozenset(),
                          frozen=frozenset(), size=(2, 6))
        lines = [f"fun {self.name}({', '.join(self.params)}) {{", *body,
                 self.ret(env, "  "), "}"]
        return "\n".join(lines)

    def ret(self, env, indent: str) -> str:
        value, clean, facts = self.expr(env, clean_only=False)
        self.returns_havoc |= not clean
        self.returns_facts |= facts
        return f"{indent}return {value};"

    def new_var(self) -> str:
        self.fresh += 1
        return f"v{self.fresh}"

    def var(self, env, clean_only: bool = False, fact=None):
        """A visible variable (clean ones only if asked), mostly one
        that may carry ``fact`` when there is one; None if none is."""
        names = [name for name, (clean, _) in env.items()
                 if clean or not clean_only]
        carriers = [name for name in names if fact in env[name][1]]
        if carriers and self.draw(st.integers(0, 3)):
            names = carriers
        return self.draw(st.sampled_from(names)) if names else None

    def operand(self, env, clean_only: bool) -> tuple[str, bool, frozenset]:
        name = self.var(env, clean_only)
        if name is None or self.draw(st.integers(0, 3)) == 0:
            return (str(self.draw(st.integers(0, (1 << WIDTH) - 1))), True,
                    frozenset())
        return (name, *env[name])

    def expr(self, env, clean_only: bool) -> tuple[str, bool, frozenset]:
        left = self.operand(env, clean_only)
        if self.draw(st.booleans()):
            return left
        right = self.operand(env, clean_only)
        op = self.draw(st.sampled_from(ARITH))
        return (f"({left[0]} {op} {right[0]})", left[1] and right[1],
                (left[2] | right[2]) - {"null-deref"})

    def guard(self, env) -> str:
        def compare():
            left = self.expr(env, clean_only=True)[0]
            right = self.expr(env, clean_only=True)[0]
            return f"({left} {self.draw(st.sampled_from(COMPARE))} {right})"

        shape = self.draw(st.integers(0, 3))
        if shape == 0:
            return f"({compare()} && {compare()})"
        if shape == 1:
            return f"({compare()} || {compare()})"
        return compare()

    def assign(self, env, locked, frozen, value: str, clean: bool,
               facts: frozenset, indent: str) -> str:
        """``target = value;``: a fresh variable or a reassignment.  Inside
        a loop, outer variables (``locked``) only take clean values, so
        every iteration's conditions stay clean; loop counters and bounds
        (``frozen``) are never reassigned."""
        targets = [name for name in env if name not in frozen
                   and (clean or name not in locked)]
        if targets and self.draw(st.integers(0, 2)) == 0:
            target = self.draw(st.sampled_from(targets))
        else:
            target = self.new_var()
        env[target] = (clean, facts)
        return f"{indent}{target} = {value};"

    def block(self, env, depth: int, locked, frozen,
              size=(1, 3)) -> list[str]:
        lines = []
        for _ in range(self.draw(st.integers(*size))):
            lines.extend(self.statement(env, depth, locked, frozen))
        return lines

    def statement(self, env, depth: int, locked, frozen) -> list[str]:
        draw, indent = self.draw, "  " * (depth + 1)
        kinds = ["arith", "null", "null", "source", "source", "source1",
                 "extern1", "extern2", "sink", "sink", "sink", "sink2"]
        if self.callees:
            kinds += ["call", "call"]
        if depth < 2:
            kinds += ["if", "if", "while"]
        kind = draw(st.sampled_from(kinds))
        fact = draw(st.sampled_from(FACT_NAMES))
        if kind in ("source1", "extern1", "extern2", "sink",
                    "sink2") and not env:
            kind = "null"
        carried = sorted({name for _, facts in env.values()
                          for name in facts})
        if kind.startswith("sink") and carried and draw(st.integers(0, 3)):
            fact = draw(st.sampled_from(carried))
        if kind == "sink2" and fact not in TWO_ARG_SINKS:
            kind = "sink"
        if kind in ("source", "source1") and fact not in SOURCES:
            kind = "null"

        def assign(value, clean, facts):
            return [self.assign(env, locked, frozen, value, clean,
                                frozenset(facts), indent)]

        if kind == "arith":
            return assign(*self.expr(env, clean_only=False))
        if kind == "null":
            return assign("null", True, {"null-deref"})
        if kind == "source":
            return assign(f"{SOURCES[fact]}()", False, {fact})
        if kind in ("source1", "extern1", "extern2"):
            arg = self.var(env)
            clean, facts = env[arg]
            facts = facts - {"null-deref"}
            if kind == "source1":
                return assign(f"{ONE_ARG_SOURCES[fact]}({arg})", clean,
                              facts | {fact})
            if kind == "extern1":
                callee = draw(st.sampled_from(ONE_ARG_EXTERNS))
                return assign(f"{callee}({arg})", clean,
                              facts - {SANITIZERS.get(callee)})
            other = self.var(env)
            return assign(f"{draw(st.sampled_from(TWO_ARG_EXTERNS))}"
                          f"({arg}, {other})", False,
                          facts | (env[other][1] - {"null-deref"}))
        if kind == "sink":
            callee = draw(st.sampled_from(SINKS[fact]))
            return [f"{indent}{callee}({self.var(env, fact=fact)});"]
        if kind == "sink2":
            first, second = (self.var(env, fact=fact) for _ in range(2))
            return [f"{indent}{TWO_ARG_SINKS[fact]}({first}, {second});"]
        if kind == "call":
            callee, arity, returns_havoc, facts = draw(st.sampled_from(
                self.callees))
            args = [self.operand(env, clean_only=True) for _ in range(arity)]
            for _, _, arg_facts in args:
                facts |= arg_facts
            text = ", ".join(arg[0] for arg in args)
            return assign(f"{callee}({text})", not returns_havoc, facts)
        if kind == "if":
            return self.if_statement(env, depth, locked, frozen, indent)
        return self.while_statement(env, depth, locked, frozen, indent)

    def if_statement(self, env, depth, locked, frozen, indent) -> list[str]:
        lines = [f"{indent}if ({self.guard(env)}) {{"]
        branches = []
        for arm in range(1 + self.draw(st.integers(0, 1))):
            if arm:
                lines.append(f"{indent}}} else {{")
            inner = dict(env)
            lines.extend(self.block(inner, depth + 1, locked, frozen))
            if self.draw(st.integers(0, 4)) == 0:
                lines.append(self.ret(inner, indent + "  "))
            branches.append(inner)
        lines.append(f"{indent}}}")
        self.merge(env, branches)
        return lines

    def while_statement(self, env, depth, locked, frozen,
                        indent) -> list[str]:
        counter = self.new_var()
        start = self.expr(env, clean_only=True)[0]
        env[counter] = (True, frozenset())
        bound = self.operand(env, clean_only=True)[0]
        step = self.draw(st.integers(1, 3))
        lines = [f"{indent}{counter} = {start};",
                 f"{indent}while (({counter} < {bound})) {{"]
        inner = dict(env)
        lines.extend(self.block(inner, depth + 1, locked | set(env),
                                frozen | {counter, bound}))
        lines.append(f"{indent}  {counter} = {counter} + {step};")
        lines.append(f"{indent}}}")
        self.merge(env, [inner])
        return lines

    @staticmethod
    def merge(env, branches) -> None:
        """After a branch or loop: an outer variable is clean only if it
        stayed clean on every arm, and may carry any arm's facts."""
        for name, (clean, facts) in env.items():
            for branch in branches:
                clean = clean and branch[name][0]
                facts |= branch[name][1]
            env[name] = (clean, facts)


@st.composite
def programs(draw) -> str:
    callees, texts = [], []
    for index in range(draw(st.integers(1, 3))):
        function = _Function(draw, f"f{index}", list(callees))
        texts.append(function.build())
        callees.append((function.name, len(function.params),
                        function.returns_havoc, function.returns_facts))
    return "\n".join(texts) + "\n"


# --------------------------------------------------------------------- #
# Truth and verdicts
# --------------------------------------------------------------------- #

def truth(source: str, unroll: int) -> dict[str, set]:
    """Each checker's (source site, sink site) pairs over every input of
    every function of ``source`` lowered at ``unroll``.  Also checks
    that every div-zero source is 0 whenever it executes."""
    program = compile_source(source, LoweringConfig(width=WIDTH,
                                                    loop_unroll=unroll))
    zero_sources = DivByZeroChecker().sources(prepare_pdg(program))
    facts = FACTS + (FactModel("div-zero", frozenset(), defs=frozenset(
        site(vertex) for vertex in zero_sources)),)
    interpreter = Interpreter(program, extern_model=empty_function_model,
                              facts=facts)
    pairs = {model.name: set() for model in facts}
    for name, function in program.functions.items():
        for args in itertools.product(range(1 << WIDTH),
                                      repeat=len(function.params)):
            run = interpreter.run(name, args)
            nonzero = [origin for origin, bits in run.births if bits]
            assert not nonzero, f"{name}{args}: sources not 0: {nonzero}"
            for model in facts:
                pairs[model.name] |= run.pairs(model)
    return pairs


def site(vertex) -> tuple[str, str]:
    return vertex.function, vertex.var.name


def result_pairs(result) -> set:
    return {(site(report.source), site(report.sink))
            for report in result.bugs}


def finding_pairs(pdg, findings) -> set:
    """The feasible pairs of a findings payload (the wire shape names
    each statement by its text)."""
    by_text = {(vertex.function, repr(vertex.stmt)): site(vertex)
               for vertex in pdg.vertices}
    return {(by_text[f["source_function"], f["source"]],
             by_text[f["sink_function"], f["sink"]])
            for f in findings if f["feasible"]}


def session(source, engine="fusion", unroll=2, store=None):
    return AnalysisSession(source, settings=EngineSettings(
        engine=engine, width=WIDTH, loop_unroll=unroll), store=store)


def sink_lines(source: str) -> list[int]:
    """Lines that call a sink or divide."""
    names = [name for sinks in SINKS.values() for name in sinks]
    names += TWO_ARG_SINKS.values()
    pattern = re.compile(r"\b(%s)\(|[/%%]" % "|".join(names))
    return [number for number, line in enumerate(source.splitlines(), 1)
            if pattern.search(line)]


def engine_verdicts(source: str, unroll: int) -> dict[str, dict]:
    """pipeline -> checker -> pairs, for the engines run in-process."""
    verdicts = {}
    engines = ("fusion", "pinpoint") if unroll != 2 \
        else ("fusion", "fusion-unopt", "pinpoint")
    for engine in engines:
        hot = session(source, engine, unroll)
        verdicts[f"{engine}@{unroll}"] = {
            checker: result_pairs(hot.analyze(checker))
            for checker in CHECKERS}
    if unroll == 2:
        pdg = session(source).pdg
        for oracle in (FullWalkFusion, FullWalkPinpoint):
            verdicts[oracle.__name__] = {
                checker: result_pairs(oracle(pdg).analyze(
                    CHECKER_FACTORIES[checker]()))
                for checker in CHECKERS}
    return verdicts


def demand_verdicts(source: str) -> tuple[dict[str, set], set]:
    """checker -> pairs of the per-line demand queries, plus the
    div-zero sinks those lines resolve to."""
    hot = session(source)
    verdicts = {}
    for checker in CHECKERS:
        pairs = set()
        for line in sink_lines(source):
            try:
                verdict = hot.query(checker, sink=line)
            except ValueError:  # no sink of this checker on the line
                continue
            pairs |= finding_pairs(hot.pdg, verdict.findings)
        verdicts[checker] = pairs
    index = line_index(source)
    divisions = {site(vertex) for line in sink_lines(source)
                 for vertex in resolve_sink_sites(
                     hot.pdg, index, DivByZeroChecker(), line)}
    return verdicts, divisions


def warm_store_verdicts(source: str, root: str) -> dict[str, set]:
    store = ArtifactStore(root)
    for checker in CHECKERS:
        session(source, store=store).analyze(checker)
    warm = session(source, store=store)
    verdicts = {}
    for checker in CHECKERS:
        result = warm.analyze(checker)
        assert result.smt_queries == 0, checker
        verdicts[checker] = result_pairs(result)
    return verdicts


def serve_verdicts(source: str, root: str) -> dict[str, set]:
    async def drive():
        app = ServeApp(ServeConfig(
            settings=EngineSettings(width=WIDTH), cache_root=root))
        try:
            def rpc(method, **params):
                return app.handle({"jsonrpc": "2.0", "id": 1,
                                   "method": method, "params": params})
            init = await rpc("initialize", tenant="t", source=source)
            assert "result" in init, init.get("error")
            pdg = app.tenants.get("t").session.pdg
            verdicts = {}
            for checker in CHECKERS:
                response = await rpc("analyze", tenant="t",
                                     checker=checker)
                assert "result" in response, response.get("error")
                verdicts[checker] = finding_pairs(
                    pdg, response["result"]["findings"])
            return verdicts
        finally:
            app.close()

    return asyncio.run(drive())


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(source=programs())
# The call runs only under the inner loop's guard, which no execution
# passes; the path enters f0 through the call edge and never comes back
# to the call statement, so the guard used to be missing from its
# condition and every engine reported the null.
@example(source="""fun f0(a, b, c) {
  memcpy(b, a);
  return 0;
}
fun f1(a, b) {
  v1 = a;
  while ((v1 < 3)) {
    a = null;
    v2 = (10 / 12);
    while ((v2 < a)) {
      b = f0(9, a, v2);
      v2 = v2 + 2;
    }
    v1 = v1 + 1;
  }
  return 8;
}
""")
def test_every_pipeline_decides_the_executed_bug_set(source):
    expected = {unroll: truth(source, unroll) for unroll in (1, 2)}
    demand, divisions = demand_verdicts(source)
    verdicts = {**engine_verdicts(source, 1), **engine_verdicts(source, 2),
                "demand": demand}
    with tempfile.TemporaryDirectory() as root:
        verdicts["warm-store"] = warm_store_verdicts(source, root)
    with tempfile.TemporaryDirectory() as root:
        verdicts["serve"] = serve_verdicts(source, root)
    for pipeline, by_checker in verdicts.items():
        unroll = 1 if pipeline.endswith("@1") else 2
        for checker, pairs in by_checker.items():
            reached = expected[unroll][checker]
            if pipeline == "demand" and checker == "div-zero":
                reached = {pair for pair in reached if pair[1] in divisions}
            assert pairs == reached, (
                f"{pipeline} {checker}: reported {sorted(pairs)}, "
                f"executions reach {sorted(reached)}")
