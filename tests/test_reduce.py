"""Unit tests for checker-specific PDG sparsification (repro.pdg.reduce).

Four layers are pinned here:

* the :class:`Condensation` (SCC collapse, transitive reduction, chain
  elision with bypass stitching) answers reachability and closure
  queries identically to brute-force graph walks, and Rule-3 slicing is
  exactly the backward data closure;
* the seeded :func:`build_view` equals the full-classification oracle
  (``tests/view_oracle.py``) field by field;
* a :class:`SparsePDGView` preserves candidate collection — including
  frame-id interning order — and the restricted fixpoint's abstract
  values at every covered vertex;
* the :class:`ViewRegistry` migration policy across daemon edits:
  remap for provably unaffected views, invalidation (and a fresh,
  still-identical rebuild) for everything else.
"""

import random

import pytest

from repro.bench import SubjectSpec, generate_subject
from repro.checkers import (Checker, DivByZeroChecker,
                            NullDereferenceChecker)
from repro.checkers.taint import cwe23_checker, cwe402_checker
from repro.engine import AnalysisSession, EngineSettings
from repro.fusion import prepare_pdg
from repro.pdg import compute_slice
from repro.pdg.reduce import Condensation, build_view
from repro.sparse.engine import collect_candidates
from view_oracle import full_view


def fuzz_pdg(seed: int, **overrides):
    spec_kwargs = dict(num_functions=6, layers=3, avg_stmts=5,
                      call_fanout=2, null_bugs=(1, 1, 1))
    spec_kwargs.update(overrides)
    spec = SubjectSpec("fuzz-reduce", seed=seed, **spec_kwargs)
    return prepare_pdg(generate_subject(spec).program)


# ---------------------------------------------------------------------
# Condensation vs brute force


def random_graph(seed: int, num_nodes: int = 32):
    rng = random.Random(seed)
    edges = []
    for _ in range(num_nodes * 2):
        edges.append((rng.randrange(num_nodes), rng.randrange(num_nodes)))
    # A few deliberate cycles so non-trivial SCCs always exist.
    for _ in range(4):
        a, b = rng.randrange(num_nodes), rng.randrange(num_nodes)
        edges.append((a, b))
        edges.append((b, a))
    return num_nodes, edges


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


@pytest.mark.parametrize("seed", range(10))
def test_condensation_reachability_matches_brute_force(seed):
    num_nodes, edges = random_graph(seed)
    cond = Condensation(range(num_nodes), edges)
    closures = [brute_closure(num_nodes, edges, [node])
                for node in range(num_nodes)]
    for src in range(num_nodes):
        for dst in range(num_nodes):
            assert cond.reachable(src, dst) == (dst in closures[src]), \
                (seed, src, dst)


@pytest.mark.parametrize("seed", range(10))
def test_condensation_closure_matches_brute_force(seed):
    """closure_sccs — including lazy bypass expansion and mid-chain
    seeds — yields exactly the brute-force forward closure."""
    num_nodes, edges = random_graph(seed)
    cond = Condensation(range(num_nodes), edges)
    rng = random.Random(seed + 1000)
    for _ in range(8):
        seeds = {rng.randrange(num_nodes)
                 for _ in range(rng.randrange(1, 5))}
        expected = brute_closure(num_nodes, edges, seeds)
        sccs = cond.closure_sccs({cond.scc_of[s] for s in seeds})
        got = {member for comp in sccs for member in cond.members[comp]}
        assert got == expected, (seed, seeds)


def test_chain_elision_bypass_preserves_membership():
    """A long chain is elided down to bypass stitches, yet every chain
    member still shows up in closures crossing (or seeded inside) it."""
    # 0 -> 1 -> 2 -> 3 -> 4 -> 5, plus a side branch 0 -> 6.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 6)]
    cond = Condensation(range(7), edges)
    assert cond.bypass_edges >= 1
    full = cond.closure_sccs({cond.scc_of[0]})
    assert {m for c in full for m in cond.members[c]} == set(range(7))
    # Seeded mid-chain: the tail (and nothing upstream) is collected.
    mid = cond.closure_sccs({cond.scc_of[3]})
    assert {m for c in mid for m in cond.members[c]} == {3, 4, 5}


def test_condensation_over_sparse_node_ids():
    """Node ids need not be dense: members and reachability speak in
    the ids given, and a node outside the graph reaches only itself."""
    cond = Condensation([40, 10, 30, 20], [(10, 20), (20, 10), (20, 30)])
    assert sorted(cond.members) == [[10, 20], [30], [40]]
    assert cond.reachable(10, 30) and not cond.reachable(30, 10)
    assert not cond.reachable(10, 40)
    assert cond.reachable(99, 99) and not cond.reachable(10, 99)


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


@pytest.mark.parametrize("seed", range(6))
def test_sliced_membership_survives_condensed_closure(seed):
    """Closures read off a condensation of the reversed data edges keep
    exactly the Rule-3 membership: PDG-shaped graphs carry the long
    def-use chains that chain elision stitches over."""
    pdg = fuzz_pdg(seed)
    cond = Condensation(range(pdg.num_vertices), reversed_data_edges(pdg))
    for _, the_slice, seeds in sliced_cases(pdg):
        sccs = cond.closure_sccs({cond.scc_of[index] for index in seeds})
        assert {member for comp in sccs for member in cond.members[comp]} \
            == needed_indices(the_slice)


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
    for field in ("_kept", "_kept_pos", "region", "sources_total",
                  "touched_functions", "source_reach_functions",
                  "nodes_kept", "edges_kept"):
        assert getattr(view, field) == getattr(oracle, field), field
    assert [vertex.index for vertex in view.live_sources] == \
        [vertex.index for vertex in oracle.live_sources]
    shown = view.region.union(edge.dst.index
                              for entries in view._kept.values()
                              for edge, _ in entries)
    assert view.observable_indices & shown == \
        oracle.observable_indices & shown
    assert view._sink_dsts & shown == oracle._sink_dsts & shown
    assert view.condensation.num_nodes == view.nodes_kept
    assert view.condensation.scc_count <= view.nodes_kept


# ---------------------------------------------------------------------
# view identity: collection, slicing, restricted fixpoint


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
    full = collect_candidates(pdg, checker)
    view = build_view(pdg, checker)
    sparse = collect_candidates(pdg, checker, view=view)
    assert canonical_candidates(sparse) == canonical_candidates(full)
    assert view.edges_kept <= view.edges_before


@pytest.mark.parametrize("seed", range(6))
def test_restricted_fixpoint_matches_full_on_covered(seed):
    from repro.absint.fixpoint import analyze_pdg

    pdg = fuzz_pdg(seed)
    view = build_view(pdg, NullDereferenceChecker())
    covered = view.covered()
    if not covered:
        pytest.skip("view empty for this seed")
    full = analyze_pdg(pdg)
    restricted = view.fixpoint_state()
    for vertex_index in covered:
        assert restricted.values[vertex_index] == \
            full.values[vertex_index], vertex_index
    # The restricted run walked only the covered subset.
    assert restricted.stats.vertices <= full.stats.vertices


# ---------------------------------------------------------------------
# cross-edit migration (ViewRegistry.adopt via AnalysisSession)


LEAF = """fun leaf(x) {
  y = x + 1;
  return y;
}"""

LEAF_EDITED = """fun leaf(x) {
  y = x + 2;
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


def reduce_counters(session):
    from repro.exec import Telemetry

    telemetry = Telemetry()
    session.engine.views.flush_telemetry(telemetry)
    return telemetry.as_dict()["reduce"]


def test_adopt_remaps_views_untouched_by_the_edit():
    session = AnalysisSession(SOURCE, settings=EngineSettings())
    before = session.analyze("cwe-23")
    session.update_source(SOURCE.replace(LEAF, LEAF_EDITED))
    counters = reduce_counters(session)
    assert counters["views_remapped"] == 1
    assert counters["views_invalidated"] == 0
    after = session.analyze("cwe-23")
    assert [r.feasible for r in after.reports] == \
        [r.feasible for r in before.reports]


def test_adopt_invalidates_views_observing_the_edit():
    session = AnalysisSession(SOURCE, settings=EngineSettings())
    session.analyze("cwe-23")
    # Editing the function holding the taint source/sink must drop the
    # taint view (rebuilt on next use, still correct).
    session.update_source(SOURCE.replace("s = t + a", "s = t + t"))
    counters = reduce_counters(session)
    assert counters["views_invalidated"] == 1
    assert counters["views_remapped"] == 0
    result = session.analyze("cwe-23")
    assert any(r.feasible for r in result.reports)


def test_adopt_never_remaps_volatile_footprints():
    """Div-by-zero sources are value-dependent: any edit anywhere can
    create one, so its view never survives an edit."""
    session = AnalysisSession(SOURCE, settings=EngineSettings())
    session.analyze("div-zero")
    session.update_source(SOURCE.replace(LEAF, LEAF_EDITED))
    counters = reduce_counters(session)
    assert counters["views_invalidated"] == 1
    assert counters["views_remapped"] == 0


def test_remapped_view_answers_queries_like_a_fresh_one():
    """An edit that shifts every vertex index after ``leaf`` keeps the
    taint view (remapped), and the remapped view's reachability
    pre-filter must speak the new graph's indices."""
    source = LEAF + "\n" + TAINTED + """
fun main(a) {
  c = leaf(a);
  return taint_main(c);
}
"""
    grown = source.replace("  y = x + 1;\n", "  y = x + 1;\n" + "".join(
        f"  z{k} = x + {k};\n" for k in range(4)))

    def fopen_line(text):
        return next(number for number, line
                    in enumerate(text.splitlines(), 1) if "fopen" in line)

    session = AnalysisSession(source, settings=EngineSettings())
    assert session.query("cwe-23", sink=fopen_line(source)).feasible
    session.update_source(grown)
    assert reduce_counters(session)["views_remapped"] == 1
    warm = session.query("cwe-23", sink=fopen_line(grown))
    fresh = AnalysisSession(grown, settings=EngineSettings()).query(
        "cwe-23", sink=fopen_line(grown))
    assert fresh.reachable and fresh.feasible
    assert warm.to_payload() == fresh.to_payload()


def test_adopt_drops_everything_when_functions_appear():
    session = AnalysisSession(SOURCE, settings=EngineSettings())
    session.analyze("cwe-23")
    session.update_source(
        SOURCE + "\nfun extra(q) {\n  return q;\n}\n")
    counters = reduce_counters(session)
    assert counters["views_invalidated"] == 1
    assert counters["views_remapped"] == 0


def test_divzero_view_identity():
    """The volatile-source checker (fixpoint-derived sources) still
    collects identically through its view."""
    for seed in range(8):
        pdg = fuzz_pdg(seed)
        checker = DivByZeroChecker()
        full = collect_candidates(pdg, checker)
        view = build_view(pdg, checker)
        sparse = collect_candidates(pdg, checker, view=view)
        assert canonical_candidates(sparse) == canonical_candidates(full)


def test_taint_view_prunes_aggressively():
    pdg = AnalysisSession(SOURCE).pdg
    view = build_view(pdg, cwe23_checker())
    assert view.edges_kept * 2 <= view.edges_before
    assert view.nodes_kept < view.nodes_before
