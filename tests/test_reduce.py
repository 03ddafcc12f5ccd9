"""Unit tests for checker-specific PDG sparsification (repro.pdg.reduce).

Five layers are pinned here:

* Rule-3 slicing is exactly the backward data closure;
* the seeded :func:`build_view` equals the full-classification oracle
  (``tests/view_oracle.py``) field by field;
* the demand query's source pre-filter (one backward walk from the
  sinks over a view's kept edges) equals brute-force forward
  reachability from each source;
* a :class:`SparsePDGView` preserves candidate collection — including
  frame-id interning order — its live sources are the checker's
  observable sources, and a div-zero view's restricted fold agrees
  with the full fold on every function it folds;
* an edit that changes the program invalidates every view of the old
  engine, and the session then answers exactly like a fresh one.
"""

import random

import pytest

from repro.bench import SubjectSpec, generate_subject
from repro.checkers import (Checker, DivByZeroChecker,
                            NullDereferenceChecker)
from repro.checkers.taint import cwe23_checker, cwe402_checker
from repro.engine import AnalysisSession, EngineSettings
from repro.engine.core import findings_payload
from repro.exec import Telemetry
from repro.fusion import prepare_pdg
from repro.lang import LoweringConfig, compile_source
from repro.pdg import compute_slice
from repro.pdg.reduce import build_view
from repro.query.engine import _select_sources
from repro.sparse.engine import collect_candidates
from full_walk_oracle import FullView
from test_divzero_fold import WIDTH, ExprFuzzer
from view_oracle import full_view


def fuzz_pdg(seed: int, **overrides):
    spec_kwargs = dict(num_functions=6, layers=3, avg_stmts=5,
                      call_fanout=2, null_bugs=(1, 1, 1))
    spec_kwargs.update(overrides)
    spec = SubjectSpec("fuzz-reduce", seed=seed, **spec_kwargs)
    return prepare_pdg(generate_subject(spec).program)


# ---------------------------------------------------------------------
# Rule-3 slicing vs brute force


def brute_closure(num_nodes, edges, seeds):
    succs = [[] for _ in range(num_nodes)]
    for src, dst in edges:
        succs[src].append(dst)
    seen = set()
    work = list(seeds)
    while work:
        node = work.pop()
        if node in seen:
            continue
        seen.add(node)
        work.extend(succs[node])
    return seen


def reversed_data_edges(pdg):
    return [(vertex.index, edge.src.index)
            for vertex in pdg.vertices for edge in pdg.data_preds(vertex)]


def sliced_cases(pdg):
    """(path, its slice, the slice's Rule-3 seeds: definitions of the
    required conditions) for every null-deref candidate of ``pdg``."""
    candidates = collect_candidates(pdg, NullDereferenceChecker())
    assert candidates, "fuzz spec generated no candidates"
    for candidate in candidates:
        the_slice = compute_slice(pdg, [candidate.path])
        seeds = set()
        for req in the_slice.requirements:
            definition = pdg.def_of_operand(req.vertex.function,
                                            req.vertex.stmt.cond)
            if definition is not None:
                seeds.add(definition.index)
        yield candidate.path, the_slice, seeds


def needed_indices(the_slice):
    return {vertex.index for vertices in the_slice.needed.values()
            for vertex in vertices}


@pytest.mark.parametrize("seed", range(6))
def test_compute_slice_is_backward_data_closure(seed):
    """Rule 2 and Rule 3 by brute force: every branch governing a path
    vertex is required, and the slice needs exactly the backward data
    closure of the required conditions' definitions, per function."""
    pdg = fuzz_pdg(seed)
    edges = reversed_data_edges(pdg)
    for path, the_slice, seeds in sliced_cases(pdg):
        required = {req.vertex.index for req in the_slice.requirements}
        for step in path.steps:
            assert {branch.index for branch
                    in pdg.control_chain(step.vertex)} <= required
        assert needed_indices(the_slice) == \
            brute_closure(pdg.num_vertices, edges, seeds)
        for function, vertices in the_slice.needed.items():
            assert all(vertex.function == function for vertex in vertices)


# ---------------------------------------------------------------------
# seeded view construction vs the full-classification oracle


class NoFootprintChecker(NullDereferenceChecker):
    """Declares no footprint: volatile sources, every edge kind, and the
    default sink sites (every vertex)."""

    def footprint(self):
        return Checker.footprint(self)


VIEW_CHECKERS = {
    "null-deref": NullDereferenceChecker,
    "cwe-23": cwe23_checker,
    "cwe-402": cwe402_checker,
    "div-zero": DivByZeroChecker,
    "no-footprint": NoFootprintChecker,
}


@pytest.mark.parametrize("name", sorted(VIEW_CHECKERS))
@pytest.mark.parametrize("seed", range(8))
def test_seeded_view_matches_full_classification(seed, name):
    pdg = fuzz_pdg(seed, taint23_bugs=(1, 1, 0), taint402_bugs=(1, 0, 1),
                   loop_density=0.3)
    view = build_view(pdg, VIEW_CHECKERS[name]())
    oracle = full_view(pdg, VIEW_CHECKERS[name]())
    for field in ("_kept", "region", "sources_total",
                  "nodes_kept", "edges_kept"):
        assert getattr(view, field) == getattr(oracle, field), field
    assert [vertex.index for vertex in view.live_sources] == \
        [vertex.index for vertex in oracle.live_sources]
    # The live sources are the observable ones among all sources, also
    # where sources_for folds only the observable vertices' functions.
    assert view.live_sources == [
        vertex for vertex in VIEW_CHECKERS[name]().sources(pdg)
        if view.observable(vertex)]
    shown = view.kept_vertices()
    assert view.observable_indices & shown == \
        oracle.observable_indices & shown


# ---------------------------------------------------------------------
# the demand query's source pre-filter vs forward reachability


@pytest.mark.parametrize("seed", range(10))
def test_source_prefilter_matches_forward_reachability(seed):
    """For every checker and every sink vertex, ``_select_sources``
    keeps exactly the live sources from which the sink is forward
    reachable over the view's kept edges, with and without def-site
    filtering; every other live source is counted as skipped."""
    pdg = fuzz_pdg(seed, taint23_bugs=(1, 1, 0), taint402_bugs=(1, 0, 1),
                   loop_density=0.3)
    outcomes = set()
    for name in sorted(VIEW_CHECKERS):
        view = build_view(pdg, VIEW_CHECKERS[name]())
        edges = [(index, edge.dst.index)
                 for index, entries in view._kept.items()
                 for edge, _ in entries]
        reach = {source.index: brute_closure(pdg.num_vertices, edges,
                                             [source.index])
                 for source in view.live_sources}
        sinks = sorted({edge.dst.index for entries in view._kept.values()
                        for edge, is_sink in entries if is_sink})
        every_other = frozenset(source.index
                                for source in view.live_sources[::2])
        for sink in sinks:
            for defs in (None, every_other):
                selected, skipped = _select_sources(
                    view, frozenset([sink]), defs)
                expected = [source for source in view.live_sources
                            if sink in reach[source.index]
                            and (defs is None or source.index in defs)]
                assert selected == expected, (name, sink, defs)
                assert skipped == len(view.live_sources) - len(expected)
                outcomes.add((defs is None, bool(selected), bool(skipped)))
    # Non-vacuous: some query keeps a source, some skips one for
    # reachability alone, and the def-site filter skips some too.
    assert any(unfiltered and selected
               for unfiltered, selected, _ in outcomes), outcomes
    assert any(unfiltered and skipped
               for unfiltered, _, skipped in outcomes), outcomes
    assert any(not unfiltered and skipped
               for unfiltered, _, skipped in outcomes), outcomes


# ---------------------------------------------------------------------
# view identity: collection, slicing, restricted fold


def canonical_candidates(candidates):
    return [tuple((step.vertex.index, step.frame.fid)
                  for step in candidate.path.steps)
            for candidate in candidates]


@pytest.mark.parametrize("seed", range(12))
def test_view_collection_identity(seed):
    """Candidates collected through the pruned view equal the full
    walk's — same paths, same interned frame ids."""
    pdg = fuzz_pdg(seed)
    checker = NullDereferenceChecker()
    full = collect_candidates(pdg, checker, view=FullView(pdg, checker))
    view = build_view(pdg, checker)
    sparse = collect_candidates(pdg, checker, view=view)
    assert canonical_candidates(sparse) == canonical_candidates(full)
    assert view.edges_kept <= view.edges_before


def fold_pdg(seed: int):
    """Three fuzzed functions, a caller dividing by one of them, and an
    unrelated function with a zero but no division."""
    fuzzer = ExprFuzzer(random.Random(seed))
    texts = [fuzzer.function().replace("fun f(", f"fun f{index}(", 1)
             for index in range(3)]
    texts.append("fun g(a, b) {\n  z = 0;\n  c = f0(a, b);\n"
                 "  q = a / c;\n  r = q % z;\n  return r;\n}")
    texts.append("fun idle(a) {\n  z = 0;\n  y = z + a;\n  return y;\n}")
    return prepare_pdg(compile_source("\n".join(texts) + "\n",
                                      LoweringConfig(width=WIDTH)))


@pytest.mark.parametrize("seed", range(6))
def test_restricted_fixpoint_matches_full_on_covered(seed):
    """A div-zero view folds only the functions holding its observable
    vertices and their callees; there its values equal the full fold's,
    and its live sources are ``sources(pdg)`` filtered by
    ``view.observable``."""
    pdg = fold_pdg(seed)
    restricted = DivByZeroChecker()
    view = build_view(pdg, restricted)
    full = DivByZeroChecker()
    sources = full.sources(pdg)
    assert view.observable_indices
    for vertex in pdg.vertices:
        if vertex.function in restricted._folded:
            assert restricted._values[vertex.index] == \
                full._values[vertex.index], vertex.index
    assert view.live_sources == [vertex for vertex in sources
                                 if view.observable(vertex)]
    # The restricted run never folded the division-free function.
    assert "idle" not in restricted._folded
    assert restricted._folded < full._folded


# ---------------------------------------------------------------------
# edits (ViewRegistry.adopt via AnalysisSession)


LEAF = """fun leaf(x) {
  y = x + 1;
  return y;
}"""

TAINTED = """fun taint_main(a) {
  t = gets();
  s = t + a;
  fopen(s);
  return 0;
}"""

SOURCE = LEAF + "\n" + TAINTED + """
fun main(a) {
  p = null;
  c = leaf(a);
  if (c < a) { deref(p); }
  return taint_main(c);
}
"""

#: Edits that change the program's IR, by what they touch.
IR_EDITS = {
    "leaf-body": SOURCE.replace("y = x + 1", "y = x + 2"),
    "taint-function": SOURCE.replace("s = t + a", "s = t + t"),
    "new-function": SOURCE + "\nfun extra(q) {\n  return q;\n}\n",
}

CHECKERS = ("null-deref", "cwe-23", "cwe-402", "div-zero")


def reduce_counters(session):
    telemetry = Telemetry()
    session.engine.views.flush_telemetry(telemetry)
    return telemetry.as_dict()["reduce"]


def sink_lines(source, callees=("fopen", "deref")):
    return [number for number, line in enumerate(source.splitlines(), 1)
            if any(f"{callee}(" in line for callee in callees)]


@pytest.mark.parametrize("edit", sorted(IR_EDITS))
def test_ir_edit_rebuilds_every_view(edit):
    """An edit that changes the IR invalidates every view the old
    engine held, whatever the edit touched, and the edited session's
    ``analyze`` and ``query`` payloads equal a fresh session's."""
    edited = IR_EDITS[edit]
    session = AnalysisSession(SOURCE, settings=EngineSettings())
    for checker in CHECKERS:
        session.analyze(checker)
    old_engine = session.engine
    session.update_source(edited)
    assert session.engine is not old_engine
    counters = reduce_counters(session)
    assert counters["views_invalidated"] == len(CHECKERS)
    assert "views_remapped" not in counters

    fresh = AnalysisSession(edited, settings=EngineSettings())
    telemetry = Telemetry()
    for checker in CHECKERS:
        assert findings_payload(session.analyze(
            checker, telemetry=telemetry)) == \
            findings_payload(fresh.analyze(checker)), checker
    assert telemetry.as_dict()["reduce"]["views_built"] == len(CHECKERS)
    for line in sink_lines(edited):
        for checker in ("null-deref", "cwe-23"):
            try:
                expected = fresh.query(checker, sink=line).to_payload()
            except ValueError:  # the line holds no sink of this checker
                continue
            assert session.query(checker, sink=line).to_payload() == \
                expected, (checker, line)


def test_adopt_never_remaps_volatile_footprints():
    """Div-by-zero sources are value-dependent: any edit anywhere can
    create one, so its view never survives an edit."""
    session = AnalysisSession(SOURCE, settings=EngineSettings())
    session.analyze("div-zero")
    session.update_source(IR_EDITS["leaf-body"])
    counters = reduce_counters(session)
    assert counters["views_invalidated"] == 1
    assert "views_remapped" not in counters


def test_index_shifting_edit_answers_queries_like_a_fresh_session():
    """An edit that shifts every vertex index after ``leaf``: the
    rebuilt taint view's reachability pre-filter speaks the new graph's
    indices."""
    source = LEAF + "\n" + TAINTED + """
fun main(a) {
  c = leaf(a);
  return taint_main(c);
}
"""
    grown = source.replace("  y = x + 1;\n", "  y = x + 1;\n" + "".join(
        f"  z{k} = x + {k};\n" for k in range(4)))

    def fopen_line(text):
        return sink_lines(text, ("fopen",))[0]

    session = AnalysisSession(source, settings=EngineSettings())
    assert session.query("cwe-23", sink=fopen_line(source)).feasible
    session.update_source(grown)
    assert reduce_counters(session)["views_invalidated"] == 1
    warm = session.query("cwe-23", sink=fopen_line(grown))
    fresh = AnalysisSession(grown, settings=EngineSettings()).query(
        "cwe-23", sink=fopen_line(grown))
    assert fresh.reachable and fresh.feasible
    assert warm.to_payload() == fresh.to_payload()


def test_divzero_view_identity():
    """The volatile-source checker (fixpoint-derived sources) still
    collects identically through its view."""
    for seed in range(8):
        pdg = fuzz_pdg(seed)
        checker = DivByZeroChecker()
        full = collect_candidates(pdg, checker,
                                  view=FullView(pdg, checker))
        view = build_view(pdg, checker)
        sparse = collect_candidates(pdg, checker, view=view)
        assert canonical_candidates(sparse) == canonical_candidates(full)


def test_taint_view_prunes_aggressively():
    pdg = AnalysisSession(SOURCE).pdg
    view = build_view(pdg, cwe23_checker())
    assert view.edges_kept * 2 <= view.edges_before
    assert view.nodes_kept < view.nodes_before
