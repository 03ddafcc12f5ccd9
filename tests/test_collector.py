"""The scoped collector pause (``repro.collector.paused``).

Each unit of analysis work runs with Python's cyclic collector switched
off: an engine's ``analyze``, a session's ``update_source`` and
solving ``query``, a process worker's batch, and outside a session
``compile_source`` and ``build_pdg``.  These tests hold the scope to
its rules: the caller's collector state comes back on every exit
(errors, nesting, overlapping threads, a forked child), nothing
collects inside a compile and build, every SMT check runs paused
(faults and timeouts included), a demand-query memo hit enters no
scope, garbage made while paused is still freed, the analysis path
makes no reference cycles (the contract that makes a long pause safe),
and the CLI's telemetry counts the collections of its run.
"""

import asyncio
import collections
import gc
import inspect
import json
import os
import random
import re
import sys
import tempfile
import threading
import weakref

import pytest

from repro.bench.generator import SubjectSpec, generate_subject
from repro.bench.subjects import materialize
from repro.checkers import NullDereferenceChecker
from repro.cli import main
from repro.collector import paused
from repro.engine import AnalysisSession, EngineSettings
from repro.exec import ArtifactStore, ExecConfig, FaultPlan, FaultPolicy
from repro.exec import scheduler
from repro.fusion import prepare_pdg
from repro.lang import LexError, ParseError, compile_source
from repro.lang import frontend, parser
from repro.lang.frontend import FrontendCache
from repro.lang.ir import Call, Function, Identity, Program, Return, Var
from repro.pdg import build_pdg
from repro.pdg import builder
from repro.serve import ServeApp, ServeConfig
from repro.smt.solver import SmtSolver
from repro.sparse import collect_candidates

LEX_ERROR = "fun main(a) {\nx = $;\nreturn 0;\n}\n"
PARSE_ERROR = "fun main(a) {\nx = ;\nreturn 0;\n}\n"
RECURSIVE = """
fun down(n) {
  if (n < 1) { return 0; }
  m = down(n - 1);
  return m + 1;
}
fun main(a) {
  r = down(a);
  return r;
}
"""


@pytest.fixture(autouse=True)
def collector_enabled():
    """Every test starts with the collector on and leaves it on."""
    assert gc.isenabled()
    yield
    gc.enable()


@pytest.fixture
def collector_seen(monkeypatch):
    """``(callee, gc.isenabled())`` as seen by each call the scoped
    compile and build paths make: the per-item parse of
    ``FrontendCache.compile`` (scoped by
    ``AnalysisSession.update_source``), the whole-module parse of
    ``compile_source`` and each per-function walk of ``build_pdg``."""
    seen = []

    def spy(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            seen.append((f"{module.__name__}.{name}", gc.isenabled()))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    spy(frontend, "parse")
    spy(parser, "parse")
    spy(builder, "walk_function")
    return seen


def wrong_arity_program() -> Program:
    program = Program()
    program.add(Function("g", (Var("a"),), [Identity(Var("a")),
                                            Return(Var("r"), Var("a"))]))
    program.add(Function("f", (Var("x"),), [
        Identity(Var("x")), Call(Var("y"), "g", (Var("x"), Var("x"))),
        Return(Var("r"), Var("y"))]))
    return program


# ---------------------------------------------------------------------- #
# The scope restores the caller's state
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("source,error", [(LEX_ERROR, LexError),
                                          (PARSE_ERROR, ParseError)],
                         ids=["lex", "parse"])
@pytest.mark.parametrize("compile_", [
    lambda source: FrontendCache().compile(source),
    compile_source,
    lambda source: AnalysisSession().update_source(source),
], ids=["FrontendCache.compile", "compile_source", "update_source"])
def test_frontend_error_restores_the_collector(compile_, source, error):
    with pytest.raises(error):
        compile_(source)
    assert gc.isenabled()


def test_build_error_restores_the_collector(collector_seen):
    with pytest.raises(ValueError, match="^call to g with 2 args"):
        build_pdg(wrong_arity_program())
    assert [enabled for _, enabled in collector_seen] == [False, False]
    assert gc.isenabled()


def test_each_graph_allocator_runs_paused(collector_seen):
    AnalysisSession(RECURSIVE)
    prepare_pdg(compile_source(RECURSIVE))
    assert {callee for callee, _ in collector_seen} == {
        "repro.lang.frontend.parse", "repro.lang.parser.parse",
        "repro.pdg.builder.walk_function"}
    assert not any(enabled for _, enabled in collector_seen)
    assert gc.isenabled()


def test_a_disabled_collector_stays_disabled(collector_seen):
    gc.disable()
    AnalysisSession(RECURSIVE).analyze("null-deref")
    with paused:
        pass
    prepare_pdg(compile_source(RECURSIVE))
    assert collector_seen
    assert not any(enabled for _, enabled in collector_seen)
    assert not gc.isenabled()


def test_nested_build_restores_once(collector_seen):
    """``build_pdg(unroll=True)`` on a recursive program calls itself on
    the unrolled program: the inner scope must not switch the collector
    back on, and the outer one restores it."""
    program = compile_source(RECURSIVE)
    with pytest.raises(ValueError, match="recursion"):
        build_pdg(program)
    collector_seen.clear()
    pdg = build_pdg(program, unroll=True)
    # One walk per function of the program, then of the unrolled one.
    assert len(collector_seen) > 2 * len(program.functions)
    assert not any(enabled for _, enabled in collector_seen)
    assert gc.isenabled()
    assert len(pdg.vertices) > 0
    # Under an enclosing scope, leaving both builds keeps it paused.
    with paused:
        build_pdg(program, unroll=True)
        assert not gc.isenabled()
    assert gc.isenabled()


def test_overlapping_threads_leave_the_collector_enabled():
    """Thread A enters, thread B enters, A leaves while B is inside (the
    collector must stay off), then B leaves (it must come back on)."""
    a_in, b_in, a_out, b_release = (threading.Event() for _ in range(4))
    seen = {}

    def first():
        with paused:
            a_in.set()
            b_in.wait(10)
        a_out.set()

    def second():
        a_in.wait(10)
        with paused:
            b_in.set()
            a_out.wait(10)
            seen["after_a_left"] = gc.isenabled()
            b_release.wait(10)

    threads = [threading.Thread(target=first),
               threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    assert a_out.wait(10)
    b_release.set()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    assert seen == {"after_a_left": False}
    assert gc.isenabled()


def test_overlapping_compiles_leave_the_collector_enabled():
    source = generate_subject(SubjectSpec(name="threads", seed=5,
                                          num_functions=24)).source
    errors = []

    def compile_and_build():
        try:
            for _ in range(3):
                AnalysisSession(source)
        except Exception as error:  # reported below
            errors.append(error)

    threads = [threading.Thread(target=compile_and_build)
               for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive()
    assert errors == []
    assert gc.isenabled()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_inside_a_scope_collects():
    """A worker forked while another thread compiles must not inherit a
    disabled collector; a scope in the child works as usual, and the
    scope the child inherited leaves nothing behind when it exits."""
    inside, release = threading.Event(), threading.Event()

    def hold():
        with paused:
            inside.set()
            release.wait(10)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert inside.wait(10)
        assert not gc.isenabled()
        pid = os.fork()
        if pid == 0:  # the child: report through the exit status
            ok = gc.isenabled()
            with paused:
                ok = ok and not gc.isenabled()
            os._exit(0 if ok and gc.isenabled() else 1)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    finally:
        release.set()
        holder.join(10)
    assert not holder.is_alive()
    assert gc.isenabled()

    # The forking thread inside a scope: the child leaves that scope too.
    with paused:
        pid = os.fork()
        if pid == 0:
            ok = gc.isenabled()
            paused.__exit__(None, None, None)
            ok = ok and gc.isenabled()
            with paused:  # the depth count did not go below zero
                ok = ok and not gc.isenabled()
            os._exit(0 if ok and gc.isenabled() else 1)
        _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert gc.isenabled()


def test_no_collection_inside_compile_and_build():
    """A collection counts as inside when it starts with a frame of
    ``FrontendCache.compile`` or ``build_pdg`` on the stack.  The
    session's ``update_source`` scopes both; the cache alone has no
    scope."""
    source = generate_subject(SubjectSpec(name="quiet", seed=9,
                                          num_functions=80)).source
    codes = {FrontendCache.compile.__code__,
             inspect.unwrap(build_pdg).__code__}
    inside = []

    def count(phase, info):
        frame = sys._getframe(1)
        while phase == "start" and frame is not None:
            if frame.f_code in codes:
                inside.append(info["generation"])
                return
            frame = frame.f_back

    gc.callbacks.append(count)
    try:
        session = AnalysisSession(source)
        paused_collections = len(inside)
        # The same compile without the scope: the counter does see it.
        FrontendCache().compile(source)
    finally:
        gc.callbacks.remove(count)
    assert len(session.program.functions) >= 80
    assert len(session.pdg.vertices) > 1000
    assert paused_collections == 0
    assert len(inside) > 10


# ---------------------------------------------------------------------- #
# Garbage made while paused is still freed
# ---------------------------------------------------------------------- #

def function_blocks(source: str) -> dict[str, str]:
    """Each top-level ``fun`` definition's text (generated code closes
    every function with a ``}`` in column 0)."""
    blocks, name, lines = {}, None, []
    for line in source.splitlines():
        if name is None:
            match = re.match(r"fun (\w+)\(", line)
            if match:
                name, lines = match.group(1), [line]
            continue
        lines.append(line)
        if line == "}":
            blocks[name] = "\n".join(lines)
            name = None
    return blocks


def edits(source: str, seed: int):
    """The benchmark's edit stream: two comment-only edits on any
    function, then one ``+ N`` -> ``+ N+1`` bump in a function a bug
    guard calls.  Yields (kind, new source)."""
    rng = random.Random(seed)
    functions = function_blocks(source)
    names = sorted(functions)
    bumpable = sorted(
        name for name in {callee for name, text in functions.items()
                          if name.startswith("bug_")
                          for callee in re.findall(r"\b(fn_\w+)\(", text)}
        if re.search(r"\+ \d+", functions[name]))
    count = 0
    while True:
        count += 1
        if count % 3 == 0:
            name = rng.choice(bumpable)
            header, _, body = functions[name].partition("\n")
            hit = rng.choice(list(re.finditer(r"\+ (\d+)", body)))
            body = (body[:hit.start(1)] + str(int(hit.group(1)) + 1)
                    + body[hit.end(1):])
            kind = "bump"
        else:
            name = rng.choice(names)
            header, _, body = functions[name].partition("\n")
            header = header.split("  #")[0] + f"  # rev {count}"
            kind = "noop"
        text = f"{header}\n{body}"
        source = source.replace(functions[name], text)
        functions[name] = text
        yield kind, source


def test_edits_free_every_old_graph():
    subject = generate_subject(SubjectSpec(
        name="edit", seed=21, num_functions=80, null_bugs=(3, 2, 2),
        taint23_bugs=(2, 1, 1), taint402_bugs=(2, 1, 1), layers=4,
        avg_stmts=12, call_fanout=2))
    session = AnalysisSession(subject.source)
    graphs = [weakref.ref(session.pdg)]
    kinds = []
    stream = edits(subject.source, seed=1)
    for _ in range(12):
        kind, source = next(stream)
        kinds.append(kind)
        session.update_source(source)
        if graphs[-1]() is not session.pdg:
            graphs.append(weakref.ref(session.pdg))
        session.analyze("null-deref")
        assert gc.isenabled()
    assert kinds.count("bump") == 4
    assert len(graphs) == 5  # each bump built a new graph
    gc.collect()
    assert [ref() for ref in graphs if ref() is not None] == [session.pdg]


# ---------------------------------------------------------------------- #
# The analysis path makes no reference cycles
# ---------------------------------------------------------------------- #

CHECKERS = ("null-deref", "cwe-23", "cwe-402", "div-zero")
#: Sink calls per checker, for picking hover-style query lines.
SINK_CALLS = {"null-deref": "deref", "cwe-23": "fopen", "cwe-402": "send"}


def hover_queries(session):
    """One demand query per (checker, line) that calls the checker's
    sink, then the first one again (a memo hit)."""
    queries = [(checker, number)
               for number, line in enumerate(session.source.splitlines(), 1)
               for checker, call in SINK_CALLS.items()
               if re.search(rf"\b{call}\(", line)]
    for checker, line in queries + queries[:1]:
        session.query(checker, sink=line)
    return len(queries)


def test_the_analysis_path_makes_no_cycles(tmp_path):
    """With the collector off from the start, the analysis path leaves
    nothing for it to find: everything it made was freed by reference
    counting.  A long pause (one per ``analyze``, and overlapping serve
    requests can chain them) is safe only because of this."""
    sources = {name: materialize(name).source for name in ("vortex",
                                                           "ffmpeg")}
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for source in sources.values():
            for engine in ("fusion", "pinpoint"):
                session = AnalysisSession(source, settings=EngineSettings(
                    engine=engine))
                for checker in CHECKERS:
                    session.analyze(checker)
        store = ArtifactStore(str(tmp_path))
        session = AnalysisSession(sources["vortex"], store=store)
        session.analyze("null-deref")
        edited = re.sub(r"\+ (\d+)", lambda m: f"+ {int(m.group(1)) + 1}",
                        sources["vortex"], count=1)
        old_pdg = session.pdg
        session.update_source(edited)
        assert session.pdg is not old_pdg  # the edit changed the IR
        del old_pdg
        session.analyze("null-deref")
        warm = AnalysisSession(edited, store=store)
        assert warm.analyze("null-deref").smt_queries == 0
        assert hover_queries(AnalysisSession(sources["ffmpeg"])) > 4
        found = gc.collect()
        garbage = collections.Counter(
            f"{type(obj).__name__} {getattr(obj, '__qualname__', '')}"
            .strip() for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert found == 0, f"reference cycles: {garbage.most_common(12)}"


# ---------------------------------------------------------------------- #
# Every SMT check runs with the collector off
# ---------------------------------------------------------------------- #

@pytest.fixture
def check_seen(monkeypatch):
    """``gc.isenabled()`` at every ``SmtSolver.check``."""
    seen = []
    real = SmtSolver.check

    def check(self, *args, **kwargs):
        seen.append(gc.isenabled())
        return real(self, *args, **kwargs)

    monkeypatch.setattr(SmtSolver, "check", check)
    return seen


def assert_checked_paused(seen: list) -> None:
    assert seen, "the run made no SMT check"
    assert not any(seen)
    assert gc.isenabled()
    seen.clear()


@pytest.mark.parametrize("engine", ["fusion", "pinpoint"])
def test_analyze_checks_paused(check_seen, engine):
    session = AnalysisSession(materialize("vortex").source,
                              settings=EngineSettings(engine=engine))
    session.analyze("null-deref")
    assert_checked_paused(check_seen)


def test_query_checks_paused_and_a_memo_hit_makes_no_check(check_seen):
    session = AnalysisSession(materialize("vortex").source)
    line = next(number for number, text
                in enumerate(session.source.splitlines(), 1)
                if "deref(" in text)
    session.query("null-deref", sink=line)
    assert_checked_paused(check_seen)
    assert session.query("null-deref", sink=line).from_cache
    assert check_seen == []
    assert gc.isenabled()


def test_serve_requests_check_paused(check_seen):
    source = materialize("vortex").source
    line = next(number for number, text
                in enumerate(source.splitlines(), 1) if "deref(" in text)

    async def drive():
        with tempfile.TemporaryDirectory() as root:
            app = ServeApp(ServeConfig(cache_root=root))
            try:
                def rpc(method, **params):
                    return app.handle({"jsonrpc": "2.0", "id": 1,
                                       "method": method, "params": params})
                await rpc("initialize", tenant="t", source=source)
                # The query first: after an analyze, the tenant's store
                # would replay its verdict.
                response = await rpc("query", tenant="t", sink=line)
                assert "result" in response, response.get("error")
                assert_checked_paused(check_seen)
                response = await rpc("analyze", tenant="t")
                assert "result" in response, response.get("error")
                assert_checked_paused(check_seen)
            finally:
                app.close()

    asyncio.run(drive())


def test_process_batch_checks_paused(check_seen, monkeypatch):
    """A forked worker starts with the collector on (the fork hook), so
    the batch needs its own scope; called here in-process."""
    engine = AnalysisSession(materialize("vortex").source).engine
    candidates = collect_candidates(engine.pdg, NullDereferenceChecker())
    monkeypatch.setattr(scheduler, "_PROCESS_STATE", None)
    scheduler._process_init(scheduler._WorkerState(
        engine, candidates, FaultPolicy(), process_worker=True))
    count = len(candidates)
    outcomes = scheduler._process_batch(range(count), 0, 0, None)
    assert len(outcomes) == count
    assert_checked_paused(check_seen)


def test_a_raising_query_checks_paused(check_seen):
    session = AnalysisSession(materialize("vortex").source)
    result = session.analyze("null-deref", exec_config=ExecConfig(
        fault_plan=FaultPlan.parse("raise=0")))
    assert result.reports[0].decided_by.value == "error"
    assert_checked_paused(check_seen)


def test_an_expired_query_timeout_leaves_the_collector_on(check_seen):
    session = AnalysisSession(materialize("ffmpeg").source)
    result = session.analyze("null-deref", exec_config=ExecConfig(
        faults=FaultPolicy(query_timeout=0.002)))
    assert result.unknown_queries > 0
    assert_checked_paused(check_seen)


# ---------------------------------------------------------------------- #
# Telemetry
# ---------------------------------------------------------------------- #

def test_cli_telemetry_counts_collections(tmp_path, capsys):
    path = tmp_path / "t.json"
    assert main(["analyze", "--subject", "mcf",
                 "--telemetry", str(path)]) == 0
    capsys.readouterr()
    section = json.loads(path.read_text())["gc"]
    assert list(section) == ["collections_gen0", "collections_gen1",
                             "collections_gen2"]
    assert all(isinstance(value, int) and value >= 0
               for value in section.values())
