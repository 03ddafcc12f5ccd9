"""Soak suite: the daemon under concurrent, faulty, multi-tenant load.

Eight concurrent clients interleave edits and analyses across two
tenants and every response must be (a) present — unique request ids,
zero lost responses, (b) correct — findings byte-identical to one of
the tenant's precomputed program variants, and (c) isolated — no
finding ever names another tenant's functions and queue depth never
exceeds the admission bound.  A second storm runs with an injected
worker crash plan (a real SIGKILL under the process backend) and the
same zero-lost-responses bar; a third runs under a seeded store-fault
plan (the CI chaos matrix pins the seeds via ``REPRO_FAULT_SEEDS``).
"""

import asyncio
import json
import os
import random
import tempfile

import pytest

from repro.engine import AnalysisSession, findings_payload
from repro.exec import FaultPlan
from repro.serve import OVERLOADED, ServeApp, ServeConfig
from fault_plans import seeded_plan

CLIENTS = 8
OPS_PER_CLIENT = 5
TENANTS = ("alpha", "beta")

FAULT_SEEDS = [int(seed) for seed in
               os.environ.get("REPRO_FAULT_SEEDS", "3").split(",")]


def tenant_source(prefix: str, flipped: bool) -> str:
    """One tenant's program; ``flipped`` turns the bug infeasible while
    keeping every interface identical."""
    guard = "c < c" if flipped else "c < d"
    return f"""
fun {prefix}_bar(x) {{
  y = x * 2;
  return y;
}}
fun {prefix}_main(a, b) {{
  p = null;
  c = {prefix}_bar(a);
  d = {prefix}_bar(b);
  if ({guard}) {{ deref(p); }}
  return 0;
}}
"""


def expected_findings(prefix: str) -> dict[bool, str]:
    """Canonical findings bytes for both variants of one tenant."""
    payloads = {}
    for flipped in (False, True):
        session = AnalysisSession(tenant_source(prefix, flipped))
        result = session.analyze("null-deref")
        payloads[flipped] = json.dumps(findings_payload(result))
    return payloads


async def rpc_with_retry(app: ServeApp, request: dict,
                         responses: dict) -> dict:
    """Send one request, retrying on 429 — under overload the client
    backs off, it never loses the request."""
    for _ in range(200):
        envelope = await app.handle(request)
        error = envelope.get("error")
        if error is not None and error["code"] == OVERLOADED:
            await asyncio.sleep(0.02)
            continue
        assert envelope["id"] not in responses, "duplicate response id"
        responses[envelope["id"]] = envelope
        return envelope
    raise AssertionError("request starved by admission control")


async def soak(app: ServeApp, expected: dict) -> dict:
    responses: dict = {}

    for tenant in TENANTS:
        init = await rpc_with_retry(app, {
            "jsonrpc": "2.0", "id": f"init-{tenant}",
            "method": "initialize",
            "params": {"tenant": tenant,
                       "source": tenant_source(tenant, False)}},
            responses)
        assert "result" in init, init.get("error")

    async def client(client_id: int) -> None:
        rng = random.Random(client_id)
        tenant = TENANTS[client_id % len(TENANTS)]
        for op in range(OPS_PER_CLIENT):
            request_id = f"c{client_id}-{op}"
            if rng.random() < 0.4:
                flipped = rng.random() < 0.5
                envelope = await rpc_with_retry(app, {
                    "jsonrpc": "2.0", "id": request_id,
                    "method": "update",
                    "params": {"tenant": tenant,
                               "source": tenant_source(tenant,
                                                       flipped)}},
                    responses)
                assert "result" in envelope, envelope.get("error")
            else:
                envelope = await rpc_with_retry(app, {
                    "jsonrpc": "2.0", "id": request_id,
                    "method": "analyze",
                    "params": {"tenant": tenant}}, responses)
                assert "result" in envelope, envelope.get("error")
                findings = json.dumps(envelope["result"]["findings"])
                # Correct: the response matches one of this tenant's two
                # program variants (another client may have edited it
                # concurrently; per-tenant serialization makes the set
                # of valid answers exactly these two).
                assert findings in set(expected[tenant].values()), \
                    f"{tenant}: unexpected findings {findings}"
                # Isolated: never another tenant's functions.
                for other in TENANTS:
                    if other != tenant:
                        assert f"{other}_" not in findings

    await asyncio.gather(*(client(i) for i in range(CLIENTS)))

    # Zero lost responses: every request id is answered exactly once.
    expected_ids = {f"init-{t}" for t in TENANTS} | {
        f"c{i}-{op}" for i in range(CLIENTS)
        for op in range(OPS_PER_CLIENT)}
    assert set(responses) == expected_ids

    snapshot = (await app.handle({
        "jsonrpc": "2.0", "id": "tel", "method": "telemetry",
        "params": {}}))["result"]
    serve = snapshot["serve"]
    assert serve["sessions_alive"] == len(TENANTS)
    assert serve["queue_depth"] == 0
    assert serve["queue_peak"] <= app.config.max_queue
    return snapshot


def test_soak_two_tenants_eight_clients():
    expected = {t: expected_findings(t) for t in TENANTS}

    async def main():
        with tempfile.TemporaryDirectory() as root:
            app = ServeApp(ServeConfig(cache_root=root, workers=4,
                                       max_queue=4))
            try:
                snapshot = await soak(app, expected)
                # The warm path did real work: verdicts were replayed
                # across requests, and overload (if any) was absorbed by
                # client retries, never by dropping requests.
                assert snapshot["decided_by"]["store"] > 0
            finally:
                app.close()

    asyncio.run(main())


def test_soak_with_injected_worker_sigkill():
    """Same storm, but every scheduler run's first batch crashes its
    worker once — a real SIGKILL in a process pool, an injected
    WorkerCrash on the inline rung where there is no fork — and the
    retry ladder must still deliver every response with correct
    verdicts."""
    expected = {t: expected_findings(t) for t in TENANTS}
    plan = FaultPlan(crash_on_batch=frozenset({0}), crash_times=1)

    async def main():
        with tempfile.TemporaryDirectory() as root:
            app = ServeApp(ServeConfig(cache_root=root, workers=4,
                                       max_queue=8, jobs=2,
                                       fault_plan=plan))
            try:
                snapshot = await soak(app, expected)
                # At least the cold analyses hit the crash plan; the
                # scheduler recovered by requeueing onto a fresh pool.
                faults = snapshot["faults"]
                assert faults["requeued_batches"] + \
                    faults["batch_retries"] > 0
                assert snapshot["serve"]["errors"] == 0
            finally:
                app.close()

    asyncio.run(main())


def test_query_latency_on_hot_tenant():
    """The demand-query latency contract (docs/queries.md): on a hot
    ~2k-line tenant, ``query`` RPCs answer under 100 ms p95.  The one
    full analyze that warms the tenant is excluded — it is exactly the
    cost the demand API exists to avoid."""
    import time

    from repro.bench import SubjectSpec, generate_subject
    from repro.checkers import NullDereferenceChecker
    from repro.query import line_index, resolve_sink_sites

    spec = SubjectSpec("soak-query", seed=11, num_functions=80,
                       layers=4, avg_stmts=8, call_fanout=2,
                       null_bugs=(3, 3, 3))
    source = generate_subject(spec).source
    assert source.count("\n") >= 2000, "tenant shrank below 2k lines"
    probe = AnalysisSession(source)
    checker = NullDereferenceChecker()
    index = line_index(source)
    lines = [number for number in range(1, source.count("\n") + 2)
             if resolve_sink_sites(probe.pdg, index, checker, number)]
    assert lines, "soak tenant lost its sinks"

    async def main():
        with tempfile.TemporaryDirectory() as root:
            app = ServeApp(ServeConfig(cache_root=root, workers=2))
            try:
                responses: dict = {}
                init = await rpc_with_retry(app, {
                    "jsonrpc": "2.0", "id": "init", "method":
                    "initialize",
                    "params": {"tenant": "hot", "source": source}},
                    responses)
                assert "result" in init, init.get("error")
                # Warm the tenant once (excluded from the latency bar).
                warm = await rpc_with_retry(app, {
                    "jsonrpc": "2.0", "id": "warm", "method": "analyze",
                    "params": {"tenant": "hot"}}, responses)
                assert "result" in warm, warm.get("error")

                samples = []
                for op in range(40):
                    line = lines[op % len(lines)]
                    start = time.monotonic()
                    envelope = await rpc_with_retry(app, {
                        "jsonrpc": "2.0", "id": f"q{op}",
                        "method": "query",
                        "params": {"tenant": "hot", "sink": line}},
                        responses)
                    samples.append(time.monotonic() - start)
                    assert "result" in envelope, envelope.get("error")
                    result = envelope["result"]
                    assert result["region_nodes"] < result["pdg_nodes"]
                samples.sort()
                p95 = samples[max(0, int(0.95 * len(samples)) - 1)]
                assert p95 < 0.100, \
                    f"query p95 {p95 * 1000:.1f} ms breaks the 100 ms " \
                    f"contract (samples: {[round(s, 4) for s in samples]})"

                snapshot = (await app.handle({
                    "jsonrpc": "2.0", "id": "tel",
                    "method": "telemetry", "params": {}}))["result"]
                query = snapshot["query"]
                assert query["demand_queries"] == 40
                # Repeats hit the per-pair memo instead of re-walking.
                assert query["region_cache_hits"] >= 40 - len(lines)
            finally:
                app.close()

    asyncio.run(main())


@pytest.mark.parametrize("seed", FAULT_SEEDS)
def test_soak_with_seeded_store_faults(seed):
    """Same storm under a seeded store-fault plan (EIO, torn writes,
    bit flips): faulted store I/O may cost re-solves or quarantines,
    never a wrong verdict, a lost response, or a dead daemon."""
    expected = {t: expected_findings(t) for t in TENANTS}
    plan = seeded_plan(seed, num_queries=0, store_ops=6)
    assert plan != FaultPlan()

    async def main():
        with tempfile.TemporaryDirectory() as root:
            app = ServeApp(ServeConfig(cache_root=root, workers=4,
                                       max_queue=8, fault_plan=plan))
            try:
                snapshot = await soak(app, expected)
                assert snapshot["serve"]["errors"] == 0
                store = snapshot["store"]
                # The seeded plan fired at least one store fault, and
                # every one degraded to a counted miss or quarantine.
                assert store["io_errors"] + store["corrupt_entries"] \
                    + store["quarantined"] >= 1, store
            finally:
                app.close()

    asyncio.run(main())
