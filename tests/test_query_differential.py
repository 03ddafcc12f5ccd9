"""Differential suite: demand queries == full ``analyze`` verdicts.

For a 25-seed corpus of generated programs, the demand API must be
*invisible* as a decision vehicle:

* for every sink line of a program, a cold ``session.query`` returns
  findings byte-identical to the corresponding subset of a full
  ``analyze``'s findings payload — same reports, same order, same
  witnesses, same key order (``json.dumps`` equality) — on both the
  fusion and pinpoint engines;
* the pair region the query walks is a subset of the sink's backward
  slice (the region-subset guarantee of docs/queries.md), computed
  here by an independent brute-force slicer;
* with a shared artifact store, a query after a full analysis replays
  every verdict without a single solve and still returns identical
  bytes;
* full analyses executed inline and on a process pool agree with the
  (sequential) demand verdicts byte-for-byte.
"""

import json

import pytest

from repro.bench import SubjectSpec, generate_subject
from repro.checkers import NullDereferenceChecker
from repro.engine import AnalysisSession, EngineSettings, findings_payload
from repro.exec import ArtifactStore, ExecConfig, Telemetry
from repro.query import line_index, resolve_def_sites, resolve_sink_sites

SEEDS = list(range(25))
ENGINES = ("fusion", "pinpoint")
CHECKER = "null-deref"


def fuzz_source(seed: int) -> str:
    spec = SubjectSpec("query-diff", seed=seed, num_functions=5,
                       layers=2, avg_stmts=5, call_fanout=2,
                       null_bugs=(1, 1, 1))
    return generate_subject(spec).source


def sink_lines(session, source):
    """(line, resolved sink vertices) for every line carrying a sink."""
    checker = NullDereferenceChecker()
    index = line_index(source)
    out = []
    for line in range(1, source.count("\n") + 2):
        sinks = resolve_sink_sites(session.pdg, index, checker, line)
        if sinks:
            out.append((line, sinks))
    return out


def backward_slice(pdg, sink_indices):
    """Independent reference slicer: everything backward-reachable from
    the sinks over data edges and control parents, closed over the
    parameters of every touched function."""
    seen = set(sink_indices)
    frontier = list(sink_indices)

    def expand():
        while frontier:
            vertex = pdg.vertices[frontier.pop()]
            for edge in pdg.data_preds(vertex):
                if edge.src.index not in seen:
                    seen.add(edge.src.index)
                    frontier.append(edge.src.index)
            parent = pdg.control_parent(vertex)
            if parent is not None and parent.index not in seen:
                seen.add(parent.index)
                frontier.append(parent.index)

    expand()
    changed = True
    while changed:
        changed = False
        for function in {pdg.vertices[index].function for index in seen}:
            for param in pdg.param_vertices(function):
                if param.index not in seen:
                    seen.add(param.index)
                    frontier.append(param.index)
                    changed = True
        expand()
    return seen


def assert_queries_match_full(source, full, query_session):
    """Every sink line's query verdict == the full run's subset, and
    its region is inside the independent backward slice."""
    full_findings = findings_payload(full)
    lines = sink_lines(query_session, source)
    assert lines, "fuzz subject lost its sinks"
    for line, sinks in lines:
        sink_set = {vertex.index for vertex in sinks}
        expected = [finding for finding, report
                    in zip(full_findings, full.reports)
                    if report.sink.index in sink_set]
        verdict = query_session.query(CHECKER, sink=(line, None))
        assert json.dumps(verdict.findings) == json.dumps(expected), \
            f"line {line}: demand verdict drifted from the full run"
        reference = backward_slice(query_session.pdg, sink_set)
        assert set(verdict.region_indices) <= reference, \
            f"line {line}: region escaped the sink's backward slice"
        assert verdict.feasible == any(f["feasible"] for f in expected)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
def test_cold_query_matches_full_analyze(seed, engine):
    source = fuzz_source(seed)
    settings = EngineSettings(engine=engine)
    full_session = AnalysisSession(source, settings=settings)
    full = full_session.analyze(CHECKER)
    query_session = AnalysisSession(source, settings=settings)
    assert_queries_match_full(source, full, query_session)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", SEEDS[:10])
def test_warm_store_query_replays_without_solving(seed, engine,
                                                  tmp_path):
    source = fuzz_source(seed)
    settings = EngineSettings(engine=engine)
    store = ArtifactStore(str(tmp_path / "store"))
    warm = AnalysisSession(source, settings=settings, store=store)
    full = warm.analyze(CHECKER)
    full_findings = findings_payload(full)

    query_session = AnalysisSession(source, settings=settings,
                                    store=store)
    for line, sinks in sink_lines(query_session, source):
        sink_set = {vertex.index for vertex in sinks}
        expected = [finding for finding, report
                    in zip(full_findings, full.reports)
                    if report.sink.index in sink_set]
        verdict = query_session.query(CHECKER, sink=(line, None))
        assert json.dumps(verdict.findings) == json.dumps(expected)
        assert verdict.replayed_verdicts == verdict.candidates
        assert verdict.smt_queries == 0


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_memo_hits_do_not_recount_store_replays(seed, tmp_path):
    """A repeated query is answered from the per-pair memo and replays
    nothing: ``decided_by.store`` counts only the verdicts a store
    binding replayed, and no other key of the export counts replays."""
    source = fuzz_source(seed)
    store = ArtifactStore(str(tmp_path / "store"))
    AnalysisSession(source, store=store).analyze(CHECKER)
    session = AnalysisSession(source, store=store)
    telemetry = Telemetry()
    verdicts = [session.query(CHECKER, sink=(line, None),
                              telemetry=telemetry)
                for line, _ in sink_lines(session, source)
                for _ in range(3)]
    snapshot = telemetry.as_dict()
    assert snapshot["query"]["region_cache_hits"] == len(verdicts) * 2 // 3
    replayed = sum(verdict.replayed_verdicts for verdict in verdicts
                   if not verdict.from_cache)
    assert snapshot["decided_by"]["store"] == replayed > 0
    assert [(section, key) for section, values in snapshot.items()
            if section != "spans" and isinstance(values, dict)
            for key in values if "replay" in key] == []


@pytest.mark.parametrize("rung", ("inline", "process"))
@pytest.mark.parametrize("seed", SEEDS[:5])
def test_query_matches_parallel_backends(seed, rung):
    source = fuzz_source(seed)
    settings = EngineSettings(engine="fusion")
    full_session = AnalysisSession(source, settings=settings)
    exec_config = ExecConfig(jobs=1 if rung == "inline" else 2)
    full = full_session.analyze(CHECKER, exec_config=exec_config)
    query_session = AnalysisSession(source, settings=settings)
    assert_queries_match_full(source, full, query_session)


@pytest.mark.parametrize("engine", ENGINES)
def test_triage_session_query_matches_full(engine):
    """Settings recovered from a journal written while the triage pass
    existed (``triage: false``, ``sparsify: true``) are the defaults, and
    a session built from them answers demand queries as the full
    analysis does."""
    payload = {**EngineSettings(engine=engine).to_payload(),
               "triage": False, "sparsify": True}
    settings = EngineSettings.from_payload(payload)
    assert settings == EngineSettings(engine=engine)
    source = fuzz_source(3)
    full_session = AnalysisSession(source, settings=settings)
    full = full_session.analyze(CHECKER)
    query_session = AnalysisSession(source, settings=settings)
    assert_queries_match_full(source, full, query_session)


def forward_reach(start, successors):
    seen = {start}
    work = [start]
    while work:
        for index in successors(work.pop()):
            if index not in seen:
                seen.add(index)
                work.append(index)
    return seen


def test_prefilter_skips_exactly_the_sources_that_cannot_reach():
    """``sources_scanned``/``sources_skipped`` match brute-force
    reachability from each source to the sink over the view's kept
    edges."""
    checker = NullDereferenceChecker()
    for seed in SEEDS[:6]:
        source = fuzz_source(seed)
        session = AnalysisSession(source)
        pdg = session.pdg
        view = session.engine.views.view_for(checker)
        sources = view.live_sources

        def successors(index):
            return [edge.dst.index for edge, _
                    in view.kept_entries(pdg.vertices[index])]

        for line, sinks in sink_lines(session, source):
            sink_set = {vertex.index for vertex in sinks}
            scanned = sum(1 for vertex in sources
                          if forward_reach(vertex.index, successors)
                          & sink_set)
            verdict = session.query(CHECKER, sink=(line, None))
            assert verdict.sources_scanned == scanned, (seed, line)
            assert verdict.sources_skipped == len(sources) - scanned


def test_def_restriction_narrows_to_the_pair():
    """A def-line restriction keeps exactly the full-run findings whose
    source was born on that line."""
    source = fuzz_source(0)
    settings = EngineSettings(engine="fusion")
    full_session = AnalysisSession(source, settings=settings)
    full = full_session.analyze(CHECKER)
    full_findings = findings_payload(full)
    query_session = AnalysisSession(source, settings=settings)
    feasible = [report for report in full.reports if report.feasible]
    assert feasible, "fuzz subject lost its planted bug"

    null_lines = [number for number, text
                  in enumerate(source.splitlines(), 1)
                  if "null" in text]
    lines = sink_lines(query_session, source)
    index = line_index(source)
    narrowed = 0
    for def_line in null_lines:
        for line, sinks in lines:
            sink_set = {vertex.index for vertex in sinks}
            try:
                verdict = query_session.query(CHECKER, sink=(line, None),
                                              def_line=def_line)
            except ValueError:
                continue  # no checker source on that line
            defs = {vertex.index for vertex in resolve_def_sites(
                query_session.pdg, index, NullDereferenceChecker(),
                def_line)}
            expected = [finding for finding, report
                        in zip(full_findings, full.reports)
                        if report.sink.index in sink_set
                        and report.source.index in defs]
            assert json.dumps(verdict.findings) == json.dumps(expected)
            narrowed += 1
    assert narrowed > 0
