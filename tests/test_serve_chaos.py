"""Chaos suite: a real ``repro serve`` process under kill -9 and store
faults.

Unlike tests/test_serve_recovery.py (in-process apps), these tests
exercise the full deployment shape: a subprocess daemon speaking
line-delimited JSON-RPC on stdio, SIGKILLed without warning, restarted
over the same cache root — the restart must serve the journaled tenant
with byte-identical findings and zero SMT queries.  The store-fault
matrix (CI chaos job; seeds pinned via ``REPRO_FAULT_SEEDS``) runs the
same protocol with injected store EIO/torn-write/bit-flip faults and
asserts the daemon survives and counts them in the schema /8 telemetry.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.exec.telemetry import SCHEMA

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: CI matrix entries pin the seeds via REPRO_FAULT_SEEDS; locally a fixed
#: default keeps the run fast and deterministic.
FAULT_SEEDS = [int(seed) for seed in
               os.environ.get("REPRO_FAULT_SEEDS", "3").split(",")]

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


class ServeProcess:
    """One ``repro serve --stdio`` subprocess with a line-RPC client."""

    def __init__(self, cache_root: str, *extra_args: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") \
            + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--stdio",
             "--cache-root", cache_root, "--watchdog-interval", "0",
             *extra_args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=env, cwd=REPO_ROOT, text=True)
        self._next_id = 0

    def rpc(self, method: str, **params) -> dict:
        self._next_id += 1
        request = {"jsonrpc": "2.0", "id": self._next_id,
                   "method": method, "params": params}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        assert line, f"daemon died answering {method!r}"
        envelope = json.loads(line)
        assert envelope["id"] == self._next_id
        return envelope

    def sigkill(self) -> None:
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)

    def shutdown(self) -> None:
        envelope = self.rpc("shutdown")
        assert envelope["result"]["drained"]
        self.proc.stdin.close()
        assert self.proc.wait(timeout=30) == 0

    def reap(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


@pytest.fixture
def daemon_factory(tmp_path):
    spawned = []

    def spawn(*extra_args: str) -> ServeProcess:
        daemon = ServeProcess(str(tmp_path), *extra_args)
        spawned.append(daemon)
        return daemon

    yield spawn
    for daemon in spawned:
        daemon.reap()


def test_sigkill_restart_differential(daemon_factory):
    first = daemon_factory()
    init = first.rpc("initialize", tenant="t", source=SOURCE)
    assert "result" in init, init
    cold = first.rpc("analyze", tenant="t")["result"]
    assert cold["counters"]["smt_queries"] > 0
    first.sigkill()  # no drain, no clean marker — a real crash

    second = daemon_factory()
    listing = second.rpc("tenants")["result"]
    assert listing["recoverable"] == ["t"]
    warm = second.rpc("analyze", tenant="t")["result"]
    assert warm["counters"]["smt_queries"] == 0
    assert warm["counters"]["replayed_verdicts"] \
        == warm["counters"]["candidates"]
    assert json.dumps(warm["findings"]) == json.dumps(cold["findings"])
    telemetry = second.rpc("telemetry")["result"]
    assert telemetry["schema"] == SCHEMA
    assert telemetry["serve"]["sessions_recovered"] == 1
    assert telemetry["serve"]["recoveries_crash"] == 1
    second.shutdown()

    # Third generation: the drained restart recovers *clean*.
    third = daemon_factory()
    third.rpc("analyze", tenant="t")
    telemetry = third.rpc("telemetry")["result"]
    assert telemetry["serve"]["recoveries_clean"] == 1
    assert telemetry["serve"]["recoveries_crash"] == 0
    third.shutdown()


@pytest.mark.parametrize("seed", FAULT_SEEDS)
def test_store_fault_matrix_never_kills_the_daemon(daemon_factory, seed):
    from fault_plans import seeded_plan
    from repro.exec import FaultPlan

    plan = seeded_plan(seed, num_queries=0, store_ops=6)
    assert plan != FaultPlan()
    daemon = daemon_factory("--fault-plan", plan.describe())
    daemon.rpc("initialize", tenant="t", source=SOURCE)
    cold = daemon.rpc("analyze", tenant="t")["result"]
    warm = daemon.rpc("analyze", tenant="t")["result"]
    # Faulted store I/O may cost re-solves, never verdicts.
    assert json.dumps(warm["findings"]) == json.dumps(cold["findings"])
    telemetry = daemon.rpc("telemetry")["result"]
    assert telemetry["schema"] == SCHEMA
    store = telemetry["store"]
    assert {"corrupt_entries", "quarantined", "io_errors"} <= set(store)
    # The seeded plan fired at least one store fault by now.
    assert store["io_errors"] + store["corrupt_entries"] >= 1
    daemon.shutdown()


def test_client_disconnect_fault_is_counted(tmp_path):
    """The serve-level disconnect site: in-process HTTP client whose
    response is cut mid-send; the daemon counts it and keeps serving."""
    import asyncio

    from repro.exec import FaultPlan
    from repro.serve import ServeApp, ServeConfig
    from repro.serve.app import _serve_client

    async def main():
        app = ServeApp(ServeConfig(
            cache_root=str(tmp_path), watchdog_interval=0.0,
            fault_plan=FaultPlan(
                client_disconnect_on=frozenset({0}))))
        try:
            async def roundtrip(payload: dict) -> bytes:
                reader = asyncio.StreamReader()
                body = json.dumps(payload).encode()
                reader.feed_data(
                    b"POST /rpc HTTP/1.1\r\nContent-Length: "
                    + str(len(body)).encode() + b"\r\n\r\n" + body)
                reader.feed_eof()
                transport = _MemoryWriter()
                await _serve_client(app, reader, transport)
                return b"".join(transport.chunks)

            request = {"jsonrpc": "2.0", "id": 1, "method": "ping",
                       "params": {}}
            torn = await roundtrip(request)
            clean = await roundtrip(dict(request, id=2))
            assert len(torn) < len(clean)  # response 0 was cut short
            assert b'"pong": true' in clean
            assert app.telemetry.serve["client_disconnects"] == 1
        finally:
            app.close()

    class _MemoryWriter:
        def __init__(self):
            self.chunks = []

        def write(self, data: bytes) -> None:
            self.chunks.append(data)

        async def drain(self) -> None:
            pass

        def close(self) -> None:
            pass

        async def wait_closed(self) -> None:
            pass

    asyncio.run(main())
