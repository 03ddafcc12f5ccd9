"""Protocol-level unit tests for the serve daemon.

Pins the daemon's failure contract: malformed input of every shape gets
a structured error envelope (never a crash, never a dropped request),
deadline overruns degrade to UNKNOWN verdicts, shutdown drains in-flight
jobs before answering, and a hot engine's counters are per-request.
"""

import asyncio
import json
import tempfile

import pytest

from repro.bench import SubjectSpec, generate_subject
from repro.checkers import NullDereferenceChecker
from repro.engine import AnalysisSession, EngineSettings
from repro.exec import ArtifactStore, FaultPlan, Telemetry
from repro.exec.telemetry import SCHEMA
from repro.fusion import FusionEngine, prepare_pdg
from repro.lang import LoweringConfig, compile_source
from repro.serve import (COMPILE_ERROR, INVALID_PARAMS, INVALID_REQUEST,
                         METHOD_NOT_FOUND, OVERLOADED, PARSE_ERROR,
                         SHUTTING_DOWN, UNKNOWN_TENANT, ServeApp,
                         ServeConfig, run_stdio)
from repro.serve.tenancy import splice_function

SOURCE = """
fun bar(x) {
  y = x * 2;
  return y;
}
fun main(a, b) {
  p = null;
  c = bar(a);
  d = bar(b);
  if (c < d) { deref(p); }
  return 0;
}
"""

#: Same interface, flipped guard: the deref becomes infeasible.
EDITED_MAIN = """fun main(a, b) {
  p = null;
  c = bar(a);
  d = bar(b);
  if (c < c) { deref(p); }
  return 0;
}"""


def fuzz_source(seed: int) -> str:
    spec = SubjectSpec("serve-unit", seed=seed, num_functions=4,
                       layers=2, avg_stmts=5, call_fanout=2,
                       null_bugs=(1, 0, 1))
    return generate_subject(spec).source


def run(coro):
    return asyncio.run(coro)


def rpc(app, method, request_id=1, **params):
    return app.handle({"jsonrpc": "2.0", "id": request_id,
                       "method": method, "params": params})


async def make_app(tmp, **kwargs) -> ServeApp:
    return ServeApp(ServeConfig(cache_root=tmp, **kwargs))


# ---------------------------------------------------------------------
# malformed requests → structured errors, never a crash


def test_malformed_json_is_parse_error():
    async def main():
        app = ServeApp()
        try:
            envelope = await app.handle("{nope")
            assert envelope["error"]["code"] == PARSE_ERROR
            assert envelope["id"] is None
        finally:
            app.close()
    run(main())


@pytest.mark.parametrize("raw,code", [
    ("[1, 2]", INVALID_REQUEST),                    # not an object
    ('{"id": 5, "method": "ping"}', INVALID_REQUEST),  # no jsonrpc
    ('{"jsonrpc": "2.0", "id": 5}', INVALID_REQUEST),  # no method
    ('{"jsonrpc": "2.0", "id": 5, "method": 7}', INVALID_REQUEST),
    ('{"jsonrpc": "2.0", "id": 5, "method": "ping", "params": 3}',
     INVALID_PARAMS),
])
def test_invalid_envelopes(raw, code):
    async def main():
        app = ServeApp()
        try:
            envelope = await app.handle(raw)
            assert envelope["error"]["code"] == code
            if '"id": 5' in raw:
                # The id is recovered so the error still correlates.
                assert envelope["id"] == 5
        finally:
            app.close()
    run(main())


def test_unknown_method_and_bad_params():
    async def main():
        app = ServeApp()
        try:
            envelope = await rpc(app, "frobnicate")
            assert envelope["error"]["code"] == METHOD_NOT_FOUND
            envelope = await rpc(app, "initialize", tenant="t")
            assert envelope["error"]["code"] == INVALID_PARAMS
            envelope = await rpc(app, "analyze", tenant="t",
                                 checker="no-such-checker")
            assert envelope["error"]["code"] == INVALID_PARAMS
            envelope = await rpc(app, "analyze", tenant="t",
                                 deadline_s=-1)
            assert envelope["error"]["code"] == INVALID_PARAMS
        finally:
            app.close()
    run(main())


def test_unknown_tenant_and_compile_error():
    async def main():
        with tempfile.TemporaryDirectory() as tmp:
            app = await make_app(tmp)
            try:
                envelope = await rpc(app, "analyze", tenant="ghost")
                assert envelope["error"]["code"] == UNKNOWN_TENANT
                envelope = await rpc(app, "initialize", tenant="t",
                                     source="fun main( {")
                assert envelope["error"]["code"] == COMPILE_ERROR
                # The failed initialize left no broken session behind.
                names = (await rpc(app, "tenants"))["result"]["tenants"]
                assert names == []
            finally:
                app.close()
    run(main())


def test_bad_edit_never_bricks_the_session():
    async def main():
        with tempfile.TemporaryDirectory() as tmp:
            app = await make_app(tmp)
            try:
                ok = await rpc(app, "initialize", tenant="t",
                               source=SOURCE)
                assert ok["result"]["generation"] == 1
                bad = await rpc(app, "update", tenant="t",
                                source="fun main( {")
                assert bad["error"]["code"] == COMPILE_ERROR
                # The previous program version is still analysable.
                res = await rpc(app, "analyze", tenant="t")
                assert "result" in res
                assert res["result"]["generation"] == 1
            finally:
                app.close()
    run(main())


# ---------------------------------------------------------------------
# deadlines, admission, shutdown


def test_deadline_expiry_degrades_to_unknown():
    """An injected pathological delay plus a small per-request deadline
    must yield UNKNOWN verdicts — not a hang, not a crash."""
    async def main():
        with tempfile.TemporaryDirectory() as tmp:
            plan = FaultPlan(delay_on_query={0: 30.0, 1: 30.0, 2: 30.0,
                                            3: 30.0})
            app = await make_app(tmp, fault_plan=plan)
            try:
                await rpc(app, "initialize", tenant="t", source=SOURCE)
                res = await rpc(app, "analyze", tenant="t",
                                deadline_s=0.2)
                counters = res["result"]["counters"]
                assert counters["candidates"] > 0
                assert counters["unknown_queries"] == \
                    counters["candidates"]
                # Soundy bug-finding: UNKNOWN verdicts stay reported
                # (feasible) but carry no witness — nothing was proven.
                assert all(f["witness"] == {}
                           for f in res["result"]["findings"])
            finally:
                app.close()
    run(main())


def test_admission_rejects_with_429_when_full():
    async def main():
        with tempfile.TemporaryDirectory() as tmp:
            app = await make_app(tmp, max_queue=1)
            try:
                app.admission.enter()  # occupy the only slot
                envelope = await rpc(app, "initialize", tenant="t",
                                     source=SOURCE)
                assert envelope["error"]["code"] == OVERLOADED
                assert envelope["error"]["data"]["max_depth"] == 1
                app.admission.leave()
                ok = await rpc(app, "initialize", tenant="t",
                               source=SOURCE)
                assert "result" in ok
                snapshot = (await rpc(app, "telemetry"))["result"]
                assert snapshot["serve"]["rejected"] == 1
            finally:
                app.close()
    run(main())


def test_shutdown_drains_in_flight_jobs():
    async def main():
        with tempfile.TemporaryDirectory() as tmp:
            app = await make_app(tmp)
            try:
                await rpc(app, "initialize", tenant="t", source=SOURCE)
                analyze = asyncio.ensure_future(
                    rpc(app, "analyze", tenant="t"))
                await asyncio.sleep(0)  # let it get admitted
                shutdown = asyncio.ensure_future(rpc(app, "shutdown"))
                res = await analyze
                assert "result" in res, "in-flight job was dropped"
                down = await shutdown
                assert down["result"]["drained"] is True
                late = await rpc(app, "analyze", tenant="t")
                assert late["error"]["code"] == SHUTTING_DOWN
                assert app.stopped.is_set()
            finally:
                app.close()
    run(main())


def test_stdio_round_trip_and_concurrent_ping():
    """The stdio front end answers every line and exits on shutdown.
    The requests are pipelined — analyze arrives right behind
    initialize — so this also pins heavy-request ordering: the analyze
    must see the tenant, never race a 404."""
    async def main():
        reader = asyncio.StreamReader()
        lines = []
        requests = [
            {"jsonrpc": "2.0", "id": 1, "method": "initialize",
             "params": {"tenant": "t", "source": SOURCE}},
            {"jsonrpc": "2.0", "id": 2, "method": "ping", "params": {}},
            {"jsonrpc": "2.0", "id": 3, "method": "analyze",
             "params": {"tenant": "t"}},
            {"jsonrpc": "2.0", "id": 4, "method": "shutdown",
             "params": {}},
        ]
        for request in requests:
            reader.feed_data((json.dumps(request) + "\n").encode())
        reader.feed_eof()
        await run_stdio(None, reader=reader, writeline=lines.append)
        responses = {json.loads(line)["id"]: json.loads(line)
                     for line in lines}
        assert set(responses) == {1, 2, 3, 4}
        assert responses[2]["result"]["pong"] is True
        assert responses[3]["result"]["counters"]["bugs"] >= 0
        assert responses[4]["result"]["drained"] is True
    run(main())


# ---------------------------------------------------------------------
# telemetry /7


def test_telemetry_serve_section_schema():
    async def main():
        with tempfile.TemporaryDirectory() as tmp:
            app = await make_app(tmp)
            try:
                await rpc(app, "initialize", tenant="t", source=SOURCE)
                await rpc(app, "analyze", tenant="t")
                snapshot = (await rpc(app, "telemetry"))["result"]
                assert snapshot["schema"] == SCHEMA
                serve = snapshot["serve"]
                for key in ("requests", "errors", "rejected",
                            "sessions_alive", "replayed_verdicts",
                            "queue_depth", "queue_peak",
                            "p50_latency_s", "p95_latency_s"):
                    assert key in serve, key
                assert serve["requests"] >= 2
                assert serve["sessions_alive"] == 1
                assert serve["queue_depth"] == 0
                assert serve["p95_latency_s"] >= serve["p50_latency_s"]
                # Per-request telemetry was folded into the server's.
                assert snapshot["solver"]["total"] > 0
                # /7: the sparsification section rides along.
                reduce = snapshot["reduce"]
                for key in ("views_built", "view_cache_hits",
                            "views_invalidated",
                            "nodes_kept", "nodes_elided",
                            "edges_kept", "edges_elided",
                            "live_sources", "sources_elided"):
                    assert key in reduce, key
                assert reduce["views_built"] == 1
            finally:
                app.close()
    run(main())


def test_update_rebuilds_every_view():
    """A source edit that changes the program invalidates every
    per-checker view, each is rebuilt on its next use, and the updated
    tenant's findings equal a fresh tenant's on the edited source
    (docs/sparsification.md)."""
    async def main():
        with tempfile.TemporaryDirectory() as tmp:
            app = await make_app(tmp)
            try:
                await rpc(app, "initialize", tenant="t", source=SOURCE)
                await rpc(app, "analyze", tenant="t",
                          checker="null-deref")
                await rpc(app, "analyze", tenant="t", checker="cwe-23")
                before = (await rpc(app, "telemetry"))["result"]["reduce"]
                assert before["views_built"] == 2
                await rpc(app, "update", tenant="t", function="main",
                          text=EDITED_MAIN)
                updated = [(await rpc(app, "analyze", tenant="t",
                                      checker=checker))["result"]
                           for checker in ("null-deref", "cwe-23")]
                after = (await rpc(app, "telemetry"))["result"]["reduce"]
                assert after["views_invalidated"] == \
                    before["views_invalidated"] + 2
                assert after["views_built"] == before["views_built"] + 2
                await rpc(app, "initialize", tenant="fresh",
                          source=splice_function(SOURCE, "main",
                                                 EDITED_MAIN))
                for checker, result in zip(("null-deref", "cwe-23"),
                                           updated):
                    fresh = (await rpc(app, "analyze", tenant="fresh",
                                       checker=checker))["result"]
                    assert result["findings"] == fresh["findings"], checker
            finally:
                app.close()
    run(main())


def test_telemetry_merge_folds_counters():
    first, second = Telemetry(), Telemetry()
    first.count("scheduled_queries", 3)
    second.count("scheduled_queries", 2)
    second.record_cache("slice", 4, 1, 0, capacity=16)
    second.record_incremental(sessions=2, assumption_solves=5)
    second.record_memory(100, 10)
    first.record_memory(70, 30)
    first.record_gc(collections_gen0=2)
    second.record_gc(collections_gen0=3, collections_gen2=1)
    first.merge(second)
    merged = first.as_dict()
    assert merged["counters"]["scheduled_queries"] == 5
    assert merged["caches"]["slice"]["hits"] == 4
    assert merged["caches"]["slice"]["capacity"] == 16
    assert merged["incremental"]["assumption_solves"] == 5
    # Memory peaks fold as maxima, not sums.
    assert merged["memory"]["peak_units"] == 100
    assert merged["memory"]["peak_condition_units"] == 30
    assert merged["gc"] == {"collections_gen0": 5, "collections_gen1": 0,
                            "collections_gen2": 1}


# ---------------------------------------------------------------------
# function splicing (LSP-style incremental edits)


def test_splice_function_replaces_only_the_named_body():
    spliced = splice_function(SOURCE, "main", EDITED_MAIN)
    assert "c < c" in spliced
    assert "c < d" not in spliced
    assert spliced.count("fun main(") == 1
    assert spliced.count("fun bar(") == 1


def test_splice_function_appends_unknown_name():
    extra = "fun helper(a) {\n  return a;\n}"
    spliced = splice_function(SOURCE, "helper", extra)
    assert "fun helper(a)" in spliced
    assert "fun main(" in spliced


def test_splice_function_rejects_name_mismatch():
    from repro.serve import ServeError
    with pytest.raises(ServeError):
        splice_function(SOURCE, "main", "fun other() {\n}")


# ---------------------------------------------------------------------
# hot-engine counter regression (the satellite bug fix)


def test_hot_engine_counters_are_per_request():
    """Reusing one engine object across analyze() calls must not leak
    query records or double-count incremental session telemetry."""
    source = fuzz_source(3)
    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(tmp)
        from repro.fusion import FusionConfig, GraphSolverConfig
        from repro.smt import SolverConfig
        pdg = prepare_pdg(compile_source(source, LoweringConfig()))
        engine = FusionEngine(pdg, FusionConfig(
            solver=GraphSolverConfig(
                want_model=True, solver=SolverConfig(incremental=True))))

        cold_tel = Telemetry()
        cold = engine.analyze(NullDereferenceChecker(), store=store,
                              telemetry=cold_tel)
        assert cold.smt_queries > 0
        cold_records = len(engine.query_records)
        cold_solves = cold_tel.as_dict()["incremental"][
            "assumption_solves"]
        assert cold_solves > 0

        warm_tel = Telemetry()
        warm = engine.analyze(NullDereferenceChecker(), store=store,
                              telemetry=warm_tel)
        # Same engine object, fully warm store: everything replays.
        assert warm.smt_queries == 0
        assert warm.replayed_verdicts == warm.candidates
        assert warm.error_queries == 0
        # query_records is per-request, not cumulative.
        assert len(engine.query_records) == 0
        assert cold_records == cold.smt_queries
        # Incremental telemetry records this run's delta, not the hot
        # engine's lifetime totals (nothing solved → nothing recorded).
        assert warm_tel.as_dict()["incremental"][
            "assumption_solves"] == 0


def test_hot_session_counters_without_store():
    """Even with no store (every request re-solves), the second request
    reports its own numbers, not request 1 + request 2."""
    session = AnalysisSession(fuzz_source(4),
                              settings=EngineSettings())
    first = session.analyze("null-deref")
    second = session.analyze("null-deref")
    assert second.smt_queries == first.smt_queries
    assert len(session.engine.query_records) == second.smt_queries
