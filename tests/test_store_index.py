"""The artifact store's per-version key index (`repro.exec.store`).

Contract under test (docs/caching.md, "A warm run proceeds in two
steps"):

* a program version's store keys are derived once: every ``analyze``
  and every demand query on one version share one
  :class:`~repro.exec.store.ProgramIndex`, and an edit builds exactly
  one more, deriving keys and walking the PDG only for what it changed;
* the index's keys are exactly what ``function_key`` and a
  per-function interface recomputation give;
* entry keys and dependency records are unchanged by the index (a
  store written before it replays in full);
* a commit writes only the entries it solved: a warm run writes
  nothing;
* the index lives and dies with its PDG: it never keeps an old program
  version alive.
"""

import gc
import hashlib
import json
import re
import weakref

import pytest

import repro.exec.store as store_module
import repro.pdg.builder as builder
from repro.bench import SubjectSpec, generate_subject
from repro.checkers import NullDereferenceChecker
from repro.engine import AnalysisSession
from repro.engine.core import CHECKER_FACTORIES
from repro.exec import ArtifactStore, Telemetry
from repro.exec.store import ABSENT_INTERFACE, ProgramIndex
from repro.fusion import prepare_pdg
from repro.fusion.quickpath import QuickPathTable
from repro.lang import compile_source
from repro.query import line_index, resolve_sink_sites
from repro.sparse.engine import collect_candidates
from test_store import program_keys


def fuzz_source(seed: int) -> str:
    spec = SubjectSpec("store-index", seed=seed, num_functions=6,
                       layers=2, avg_stmts=5, call_fanout=2,
                       null_bugs=(1, 1, 1))
    return generate_subject(spec).source


def edit_one_constant(source: str) -> str:
    edited, count = re.subn(r"\+ (\d+);",
                            lambda m: f"+ {int(m.group(1)) + 1};",
                            source, count=1)
    assert count == 1, "generator produced no additive constant"
    return edited


def sink_lines(session) -> list[int]:
    checker = NullDereferenceChecker()
    index = line_index(session.source)
    return [line for line in range(1, session.source.count("\n") + 2)
            if resolve_sink_sites(session.pdg, index, checker, line)]


@pytest.fixture
def counters(monkeypatch):
    """Count index builds, binds, the functions ``function_key`` and
    ``walk_function`` ran on, and ``_interface_key`` calls."""
    counts = {"indexes": 0, "binds": 0, "keyed": [], "walked": [],
              "interfaces": 0}
    build, bind, key, walk, interface = (
        ProgramIndex.__init__, ArtifactStore.bind, store_module.function_key,
        builder.walk_function, store_module._interface_key)

    def counting_build(self, pdg, previous=None):
        counts["indexes"] += 1
        build(self, pdg, previous)

    def counting_bind(self, *args, **kwargs):
        counts["binds"] += 1
        return bind(self, *args, **kwargs)

    def counting_key(function, width):
        counts["keyed"].append(function)
        return key(function, width)

    def counting_walk(function, defined=()):
        counts["walked"].append(function)
        return walk(function, defined)

    def counting_interface(*args):
        counts["interfaces"] += 1
        return interface(*args)

    monkeypatch.setattr(ProgramIndex, "__init__", counting_build)
    monkeypatch.setattr(ArtifactStore, "bind", counting_bind)
    monkeypatch.setattr(store_module, "function_key", counting_key)
    monkeypatch.setattr(builder, "walk_function", counting_walk)
    monkeypatch.setattr(store_module, "_interface_key", counting_interface)
    return counts


def test_one_index_per_program_version(tmp_path, counters):
    source = fuzz_source(1)
    session = AnalysisSession(source, store=ArtifactStore(str(tmp_path)))
    for checker in CHECKER_FACTORIES:
        session.analyze(checker)
    lines = sink_lines(session)
    assert len(lines) >= 2
    for line in lines:
        session.query("null-deref", sink=line)
    assert counters["binds"] > len(CHECKER_FACTORIES), \
        "no demand query reached the store"
    assert counters["indexes"] == 1
    functions = list(session.pdg.program.functions.values())
    assert counters["keyed"] == counters["walked"] == functions
    assert counters["interfaces"] == len(functions)

    binds = counters["binds"]
    del counters["keyed"][:], counters["walked"][:]
    session.update_source(edit_one_constant(source))
    for checker in CHECKER_FACTORIES:
        session.analyze(checker)
    assert counters["binds"] == binds + len(CHECKER_FACTORIES)
    assert counters["indexes"] == 2
    # A one-literal edit keys and walks the one function it changed; the
    # other functions' keys and walks come from the old version.
    [edited] = [fn for fn in session.pdg.program.functions.values()
                if not any(fn is old for old in functions)]
    assert counters["keyed"] == counters["walked"] == [edited]
    # Interface keys: the edited function and its transitive callers.
    callees = session.pdg.store_index.callees
    stale = {edited.name}
    while True:
        callers = {name for name, called in callees.items()
                   if stale.intersection(called)} - stale
        if not callers:
            break
        stale |= callers
    assert len(stale) < len(functions)
    assert counters["interfaces"] == len(functions) + len(stale)


def test_index_keys_match_fresh_derivation(tmp_path):
    session = AnalysisSession(fuzz_source(2),
                              store=ArtifactStore(str(tmp_path)))
    session.analyze("null-deref")
    pdg = session.pdg
    index = pdg.store_index
    assert index is ProgramIndex.of(pdg)
    assert index.content == program_keys(pdg.program)
    assert set(index.interface) == set(pdg.program.functions)
    for name in pdg.program.functions:
        # A fresh quick-path table per function: no shared memo.
        assert index.interface[name] == store_module._interface_key(
            pdg, QuickPathTable(pdg), name)
    assert [index.position[vertex.index] for vertex in pdg.vertices] == [
        pdg.function_vertices(vertex.function).index(vertex)
        for vertex in pdg.vertices]
    absent = json.dumps({"exists": False}, sort_keys=True,
                        separators=(",", ":"))
    assert ABSENT_INTERFACE == hashlib.sha256(absent.encode()).hexdigest()


#: A null value returned through a callee, so the path has a call frame.
GOLDEN_SOURCE = """
fun pass(v) {
  w = v;
  return w;
}

fun bar(x) {
  y = x * 2;
  return y;
}

fun foo(a, b) {
  p = null;
  q = pass(p);
  c = bar(a);
  if (c > b) {
    deref(q);
  }
  return 0;
}
"""


def test_entry_keys_and_deps_are_pinned(tmp_path):
    """Entry keys and dependency records are part of the on-disk
    format: a store written before the index existed must replay, so
    these literals change only with STORE_SCHEMA or
    FINGERPRINT_VERSION.  The key was re-pinned when STORE_SCHEMA went
    from /2 to /3 (it was ``55373884...2f6d81aa708``)."""
    pdg = prepare_pdg(compile_source(GOLDEN_SOURCE))
    checker = NullDereferenceChecker()
    candidates = collect_candidates(pdg, checker)
    assert len(candidates) == 1
    [candidate] = candidates
    assert any(step.frame.callsite is not None
               for step in candidate.path.steps)
    binding = ArtifactStore(str(tmp_path)).bind(
        pdg, {"engine": "golden"}, checker.name, Telemetry())
    assert binding.candidate_key(candidate) == (
        "88125625c7c7590db4435f3cd7185c3db7a5caec07c5bf8ad2b00b86956703c9")
    assert binding.dependencies(candidate) == {
        "content": {
            "bar": "f43b245fb8e1ec67f3409f32256779e4"
                   "632ef2345373c16743c3fe615e6fc074",
            "foo": "728137856dde819a5836aaeeb4241b3e"
                   "37b0f3dd92d4766df4feb73e9d1636af",
            "pass": "7909054492569bf1613491d86682870f"
                    "f9b37d4ab731cd24bf3a1b736d7e1b33",
        },
        "interface": {"deref": ABSENT_INTERFACE},
    }


def test_unchanged_records_are_not_rewritten(tmp_path, monkeypatch):
    writes = []
    write = ArtifactStore._write_json

    def counting_write(self, path, payload):
        writes.append(path)
        write(self, path, payload)

    monkeypatch.setattr(ArtifactStore, "_write_json", counting_write)
    source = fuzz_source(5)
    store = ArtifactStore(str(tmp_path))
    session = AnalysisSession(source, store=store)
    session.analyze("null-deref")
    cold = store.last_run
    assert len(writes) == cold.committed == cold.misses > 0
    session.analyze("null-deref")
    AnalysisSession(source, store=store).analyze("null-deref")
    assert len(writes) == cold.committed and store.last_run.committed == 0
    session.update_source(edit_one_constant(source))
    session.analyze("null-deref")
    edited = store.last_run
    assert len(writes) == cold.committed + edited.committed


def test_old_version_is_released_after_an_edit(tmp_path):
    source = fuzz_source(3)
    session = AnalysisSession(source, store=ArtifactStore(str(tmp_path)))
    session.analyze("null-deref")
    for line in sink_lines(session):
        session.query("null-deref", sink=line)
    assert session.pdg.store_index is not None
    old_pdg = weakref.ref(session.pdg)
    session.update_source(edit_one_constant(source))
    gc.collect()
    assert old_pdg() is None
