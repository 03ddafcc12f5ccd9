"""Crash-only serving: journal durability and session recovery.

The restart-recovery differential (ISSUE acceptance): a daemon killed
without warning and restarted over the same cache root serves the same
tenants — recovered lazily from their session journals — with
byte-identical findings and zero SMT queries (the warm artifact store
replays every verdict).  A drained shutdown leaves a clean-shutdown
marker so telemetry can tell deploys from crashes.
"""

import asyncio
import json
import os

from repro.serve import ServeApp, ServeConfig, UNKNOWN_TENANT
from repro.serve.journal import (COMPACT_THRESHOLD, JOURNAL_SCHEMA,
                                 SessionJournal)

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


def run(coro):
    return asyncio.run(coro)


def rpc(app, method, request_id=1, **params):
    return app.handle({"jsonrpc": "2.0", "id": request_id,
                       "method": method, "params": params})


def make_app(tmp, **kwargs) -> ServeApp:
    kwargs.setdefault("watchdog_interval", 0.0)
    return ServeApp(ServeConfig(cache_root=tmp, **kwargs))


# --------------------------------------------------------------------- #
# Journal unit tests
# --------------------------------------------------------------------- #


class TestJournal:
    def test_round_trip(self, tmp_path):
        journal = SessionJournal(str(tmp_path), "t")
        journal.record_source(1, "fun main() { return 0; }",
                              {"engine": "fusion"})
        state = SessionJournal(str(tmp_path), "t").load()
        assert state is not None
        assert state.tenant == "t" and state.generation == 1
        assert state.source == "fun main() { return 0; }"
        assert state.settings == {"engine": "fusion"}
        assert not state.clean

    def test_newest_generation_wins(self, tmp_path):
        journal = SessionJournal(str(tmp_path), "t")
        journal.record_source(1, "v1", {})
        journal.record_source(2, "v2", {})
        state = journal.load()
        assert state.generation == 2 and state.source == "v2"

    def test_torn_tail_line_is_skipped(self, tmp_path):
        journal = SessionJournal(str(tmp_path), "t")
        journal.record_source(1, "v1", {})
        journal.record_source(2, "v2", {})
        with open(journal.path, "r+", encoding="utf-8") as handle:
            body = handle.read()
            handle.seek(0)
            handle.truncate()
            handle.write(body[:len(body) - 20])  # tear the last record
        state = journal.load()
        assert state is not None
        assert state.generation == 1 and state.source == "v1"
        assert state.records_skipped == 1

    def test_bit_flip_never_trusted(self, tmp_path):
        journal = SessionJournal(str(tmp_path), "t")
        journal.record_source(1, "v1", {})
        with open(journal.path, "rb") as handle:
            body = bytearray(handle.read())
        body[len(body) // 2] ^= 0x01
        with open(journal.path, "wb") as handle:
            handle.write(bytes(body))
        assert journal.load() is None

    def test_foreign_schema_is_skipped(self, tmp_path):
        journal = SessionJournal(str(tmp_path), "t")
        journal.record_source(1, "v1", {})
        import hashlib

        record = {"schema": "repro-serve-journal/999", "kind": "source",
                  "tenant": "t", "generation": 9, "source": "evil",
                  "settings": {}}
        canonical = json.dumps(record, sort_keys=True,
                               separators=(",", ":"))
        sealed = json.dumps(
            dict(record,
                 sha256=hashlib.sha256(canonical.encode()).hexdigest()),
            sort_keys=True, separators=(",", ":"))
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write(sealed + "\n")
        state = journal.load()
        assert state.generation == 1 and state.records_skipped == 1

    def test_compaction_bounds_the_file(self, tmp_path):
        journal = SessionJournal(str(tmp_path), "t")
        for generation in range(1, COMPACT_THRESHOLD + 5):
            journal.record_source(generation, f"v{generation}", {})
        assert journal.compactions >= 1
        with open(journal.path, encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) < COMPACT_THRESHOLD
        state = journal.load()
        assert state.generation == COMPACT_THRESHOLD + 4

    def test_clean_shutdown_marker(self, tmp_path):
        journal = SessionJournal(str(tmp_path), "t")
        journal.record_source(3, "v3", {})
        journal.record_clean_shutdown(3)
        assert journal.load().clean
        # A newer source supersedes the marker: that version never saw
        # a drained shutdown.
        journal.record_source(4, "v4", {})
        assert not journal.load().clean

    def test_write_errors_are_soft(self, tmp_path):
        blocked = os.path.join(str(tmp_path), "flat")
        with open(blocked, "w") as handle:
            handle.write("a file where the store dir should be")
        journal = SessionJournal(blocked, "t")
        journal.record_source(1, "v1", {})  # must not raise
        assert journal.write_errors >= 1
        assert journal.load() is None


# --------------------------------------------------------------------- #
# Restart-recovery differential
# --------------------------------------------------------------------- #


class TestCrashRecovery:
    def test_sigkill_restart_replays_with_zero_queries(self, tmp_path):
        async def main():
            tmp = str(tmp_path)
            app1 = make_app(tmp)
            try:
                init = await rpc(app1, "initialize", tenant="t",
                                 source=SOURCE)
                assert "result" in init
                cold = await rpc(app1, "analyze", tenant="t")
                assert cold["result"]["counters"]["smt_queries"] > 0
            finally:
                # Crash: no shutdown RPC, no clean marker.
                app1.close()

            app2 = make_app(tmp)
            try:
                listing = (await rpc(app2, "tenants"))["result"]
                assert listing["tenants"] == []
                assert listing["recoverable"] == ["t"]
                warm = await rpc(app2, "analyze", tenant="t")
                result = warm["result"]
                assert result["counters"]["smt_queries"] == 0
                assert result["counters"]["replayed_verdicts"] \
                    == result["counters"]["candidates"]
                assert json.dumps(result["findings"]) \
                    == json.dumps(cold["result"]["findings"])
                assert result["generation"] \
                    == cold["result"]["generation"]
                serve = (await rpc(app2, "telemetry"))["result"]["serve"]
                assert serve["sessions_recovered"] == 1
                assert serve["recoveries_crash"] == 1
                assert serve["recoveries_clean"] == 0
            finally:
                app2.close()
        run(main())

    def test_clean_shutdown_is_counted_as_clean(self, tmp_path):
        async def main():
            tmp = str(tmp_path)
            app1 = make_app(tmp)
            try:
                await rpc(app1, "initialize", tenant="t", source=SOURCE)
                await rpc(app1, "analyze", tenant="t")  # warm the store
                drained = await rpc(app1, "shutdown")
                assert drained["result"]["drained"]
            finally:
                app1.close()

            app2 = make_app(tmp)
            try:
                warm = await rpc(app2, "analyze", tenant="t")
                assert warm["result"]["counters"]["smt_queries"] == 0
                serve = (await rpc(app2, "telemetry"))["result"]["serve"]
                assert serve["recoveries_clean"] == 1
                assert serve["recoveries_crash"] == 0
            finally:
                app2.close()
        run(main())

    def test_update_then_crash_recovers_latest_generation(self, tmp_path):
        async def main():
            tmp = str(tmp_path)
            app1 = make_app(tmp)
            try:
                await rpc(app1, "initialize", tenant="t", source=SOURCE)
                await rpc(app1, "update", tenant="t", function="main",
                          text=EDITED_MAIN)
                edited = await rpc(app1, "analyze", tenant="t")
                assert edited["result"]["generation"] == 2
            finally:
                app1.close()

            app2 = make_app(tmp)
            try:
                warm = await rpc(app2, "analyze", tenant="t")
                assert warm["result"]["generation"] == 2
                assert json.dumps(warm["result"]["findings"]) \
                    == json.dumps(edited["result"]["findings"])
                assert warm["result"]["counters"]["smt_queries"] == 0
            finally:
                app2.close()
        run(main())

    def test_no_journal_means_no_recovery(self, tmp_path):
        async def main():
            tmp = str(tmp_path)
            app1 = make_app(tmp, journal=False)
            try:
                await rpc(app1, "initialize", tenant="t", source=SOURCE)
            finally:
                app1.close()
            app2 = make_app(tmp, journal=False)
            try:
                lost = await rpc(app2, "analyze", tenant="t")
                assert lost["error"]["code"] == UNKNOWN_TENANT
            finally:
                app2.close()
        run(main())

    def test_corrupt_journal_declines_recovery(self, tmp_path):
        async def main():
            tmp = str(tmp_path)
            app1 = make_app(tmp)
            try:
                await rpc(app1, "initialize", tenant="t", source=SOURCE)
            finally:
                app1.close()
            tenants_dir = os.path.join(tmp, "tenants")
            (digest,) = os.listdir(tenants_dir)
            journal_path = os.path.join(tenants_dir, digest,
                                        "journal.jsonl")
            with open(journal_path, "w") as handle:
                handle.write("garbage\n")
            app2 = make_app(tmp)
            try:
                lost = await rpc(app2, "analyze", tenant="t")
                assert lost["error"]["code"] == UNKNOWN_TENANT
            finally:
                app2.close()
        run(main())


# --------------------------------------------------------------------- #
# Journals written by the previous version
# --------------------------------------------------------------------- #

#: ``EngineSettings.to_payload()`` as the version with the triage pass,
#: the ``--[no-]sparsify`` switch, solver sessions, loop summaries and an
#: engine-level query timeout journaled it, at its defaults.
PARENT_SETTINGS = {"engine": "fusion", "want_model": True,
                   "incremental": True, "triage": False, "sparsify": True,
                   "query_timeout": None, "loop_unroll": 2, "width": 8,
                   "loop_strategy": "summaries", "loop_paths": 64}


class TestParentJournals:
    @staticmethod
    def crash_with_journal(tmp, settings):
        """Run a tenant cold, crash, and leave a journal whose only
        record carries ``settings``.  Returns the cold analyze result."""
        async def main():
            app = make_app(tmp)
            try:
                await rpc(app, "initialize", tenant="t", source=SOURCE)
                return (await rpc(app, "analyze", tenant="t"))["result"]
            finally:
                app.close()
        cold = run(main())
        tenants_dir = os.path.join(tmp, "tenants")
        (digest,) = os.listdir(tenants_dir)
        journal = SessionJournal(os.path.join(tenants_dir, digest), "t")
        os.remove(journal.path)
        journal.record_source(1, SOURCE, settings)
        return cold

    def test_parent_defaults_recover(self, tmp_path):
        self.assert_recovers(str(tmp_path), PARENT_SETTINGS)

    def test_parent_sessions_off_recovers(self, tmp_path):
        """A journal from a ``--no-incremental`` daemon recovers too:
        this version always runs what that setting ran."""
        self.assert_recovers(str(tmp_path),
                             {**PARENT_SETTINGS, "incremental": False})

    def test_parent_unrolled_loops_recover(self, tmp_path):
        """A journal from a daemon that unrolled loops recovers, at any
        path budget: decoded from JSON, neither value is the literal
        ``RETIRED_SETTINGS`` holds."""
        self.assert_recovers(str(tmp_path),
                             {**PARENT_SETTINGS, "loop_strategy": "unroll",
                              "loop_paths": 200})

    def assert_recovers(self, tmp, settings):
        cold = self.crash_with_journal(tmp, settings)

        async def main():
            app = make_app(tmp)
            try:
                assert (await rpc(app, "tenants"))["result"]["recoverable"] \
                    == ["t"]
                warm = (await rpc(app, "analyze", tenant="t"))["result"]
                assert warm["counters"]["smt_queries"] == 0
                assert json.dumps(warm["findings"]) \
                    == json.dumps(cold["findings"])
                serve = (await rpc(app, "telemetry"))["result"]["serve"]
                assert serve["sessions_recovered"] == 1
            finally:
                app.close()
        run(main())

    def test_retired_switch_flipped_declines(self, tmp_path):
        for flipped in ({"triage": True}, {"sparsify": False},
                        {"incremental": "false"},
                        {"loop_strategy": "bogus"}, {"loop_paths": "64"},
                        {"loop_unroll": -1}, {"query_timeout": 5.0},
                        {"want_model": False}):
            tmp = str(tmp_path / next(iter(flipped)))
            self.crash_with_journal(tmp, {**PARENT_SETTINGS, **flipped})

            async def main():
                app = make_app(tmp)
                try:
                    lost = await rpc(app, "analyze", tenant="t")
                    assert lost["error"]["code"] == UNKNOWN_TENANT, flipped
                finally:
                    app.close()
            run(main())


# --------------------------------------------------------------------- #
# Health, readiness, watchdog
# --------------------------------------------------------------------- #


class TestHealth:
    def test_health_method_reports_ready(self, tmp_path):
        async def main():
            app = make_app(str(tmp_path))
            try:
                health = (await rpc(app, "health"))["result"]
                assert health == {"ok": True, "ready": True,
                                  "reasons": []}
            finally:
                app.close()
        run(main())

    def test_draining_flips_readiness(self, tmp_path):
        async def main():
            app = make_app(str(tmp_path))
            try:
                app._draining = True
                health = (await rpc(app, "health"))["result"]
                assert health["ok"] and not health["ready"]
                assert "draining" in health["reasons"]
            finally:
                app.close()
        run(main())

    def test_watchdog_rebuilds_a_wedged_executor(self, tmp_path):
        import threading
        import time

        app = ServeApp(ServeConfig(cache_root=str(tmp_path), workers=1,
                                   watchdog_interval=0.1))
        release = threading.Event()
        try:
            app._pool.submit(release.wait)  # wedge the only worker
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if app.telemetry.serve["watchdog_rebuilds"] >= 1:
                    break
                time.sleep(0.05)
            assert app.telemetry.serve["watchdog_rebuilds"] >= 1
            # The rebuilt pool accepts and runs new work.
            assert app._pool.submit(lambda: 42).result(timeout=5.0) == 42
        finally:
            release.set()
            app.close()


class TestJournalTelemetry:
    def test_journal_records_are_counted(self, tmp_path):
        async def main():
            app = make_app(str(tmp_path))
            try:
                await rpc(app, "initialize", tenant="t", source=SOURCE)
                await rpc(app, "update", tenant="t", function="main",
                          text=EDITED_MAIN)
                serve = (await rpc(app, "telemetry"))["result"]["serve"]
                assert serve["journal_records"] == 2
            finally:
                app.close()
        run(main())

    def test_journal_schema_is_stamped(self, tmp_path):
        async def main():
            app = make_app(str(tmp_path))
            try:
                await rpc(app, "initialize", tenant="t", source=SOURCE)
            finally:
                app.close()
            tenants_dir = os.path.join(str(tmp_path), "tenants")
            (digest,) = os.listdir(tenants_dir)
            path = os.path.join(tenants_dir, digest, "journal.jsonl")
            with open(path) as handle:
                record = json.loads(handle.readline())
            assert record["schema"] == JOURNAL_SCHEMA
        run(main())
