"""The hot analysis daemon: one engine, many requests.

``ServeApp`` owns the server-lifetime state — a :class:`~repro.serve
.tenancy.TenantRegistry` of resident :class:`~repro.engine
.AnalysisSession` objects, the :class:`~repro.serve.admission
.AdmissionQueue`, a worker thread pool for the CPU-bound analysis, and
one server-lifetime :class:`~repro.exec.telemetry.Telemetry` that every
per-request telemetry instance is folded into.  The front ends are thin:
``run_stdio`` speaks line-delimited JSON-RPC on stdin/stdout (the LSP
deployment shape), ``run_http`` is a dependency-free asyncio HTTP
listener mapping ``POST /rpc`` onto the same dispatcher and streaming
telemetry snapshots from ``GET /telemetry``.

Request lifecycle for the heavy methods (``initialize`` / ``update`` /
``analyze`` / ``query``):

1. admission — rejected with 429 before any analysis state is touched
   when the bounded queue is full; rejected with 503 while draining;
2. per-tenant lock — mutations to one tenant are serialized, different
   tenants run concurrently on the pool;
3. executor hop — compilation and analysis run on a worker thread so
   the event loop keeps answering ``ping``/``telemetry`` during a long
   solve;
4. accounting — per-request telemetry is merged into the server's,
   request latency lands in the bounded percentile window, and the
   serve gauges (sessions alive, queue depth/peak) are refreshed.

``shutdown`` flips the draining flag (new heavy work → 503), waits for
every admitted request to finish, and only then answers — in-flight
jobs are never dropped (pinned by tests/test_serve.py).

Crash-only additions (docs/robustness.md):

* session journaling + lazy recovery live in the registry; the app's
  part is marking a *clean* shutdown after the drain, so a restart can
  tell a deploy from a crash;
* ``GET /healthz`` (liveness) and ``GET /readyz`` (readiness: not
  draining, executor not mid-rebuild, admission below its bound) plus a
  light ``health`` RPC method;
* a watchdog thread probes the worker pool and rebuilds it when a
  probe wedges — a hung executor degrades to one rebuilt pool, not a
  daemon that accepts work it can never finish;
* the client-disconnect fault site truncates an HTTP response
  mid-write (soak suite; the daemon must shrug, count, and keep
  serving).
"""

from __future__ import annotations

import asyncio
import json
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.engine import (CHECKER_FACTORIES, EngineSettings,
                          findings_payload)
from repro.exec import ExecConfig, FaultPlan, FaultPolicy, Telemetry
from repro.serve.admission import AdmissionQueue
from repro.serve.protocol import (COMPILE_ERROR, INTERNAL_ERROR,
                                  INVALID_PARAMS, METHOD_NOT_FOUND,
                                  OVERLOADED, PARSE_ERROR, SHUTTING_DOWN,
                                  UNKNOWN_TENANT, ServeError, optional_bool,
                                  optional_number, optional_position,
                                  optional_str, parse_request, require_str,
                                  result_envelope)
from repro.serve.tenancy import TenantRegistry, splice_function
from repro.smt.solver import DecidedBy

#: Methods that go through admission + the worker pool.  Everything else
#: (ping/telemetry/tenants/shutdown) is answered on the event loop and
#: must stay responsive even under full load.
HEAVY_METHODS = frozenset({"initialize", "update", "analyze", "query"})

#: The checker an analyze request runs when it names none.
DEFAULT_CHECKER = "null-deref"


@dataclass
class ServeConfig:
    """Daemon-lifetime knobs (one per ``repro serve`` invocation)."""

    settings: EngineSettings = field(default_factory=EngineSettings)
    #: Worker threads for compilation/analysis (bounds concurrent heavy
    #: requests actually *running*; admission bounds the ones waiting).
    workers: int = 4
    #: Admission queue depth; request number max_queue+1 gets a 429.
    max_queue: int = 32
    #: Per-analysis scheduler fan-out (ExecConfig.jobs).
    jobs: int = 1
    #: Root for per-tenant artifact stores; None = private tempdir that
    #: lives exactly as long as the daemon.
    cache_root: Optional[str] = None
    #: Default per-request deadline (seconds per query); a request's
    #: ``deadline_s`` param overrides it.
    default_deadline: Optional[float] = None
    #: Deterministic fault injection for the soak suite (see
    #: docs/robustness.md); applied to every analyze request, to every
    #: tenant store's I/O, and to HTTP response writes.
    fault_plan: Optional[FaultPlan] = None
    #: Journal every accepted program version for crash recovery
    #: (needs a durable cache_root to matter; see repro.serve.journal).
    journal: bool = True
    #: Poison-group circuit breaker: consecutive failures per
    #: (checker, sink) group before the group is short-circuited.
    #: <= 0 disables the breaker entirely.
    breaker_threshold: int = 3
    #: Seconds an open group waits before one half-open probe.
    breaker_cooldown: float = 30.0
    #: Watchdog probe period: a worker-pool probe that cannot finish
    #: within one period marks the executor hung and rebuilds it.
    #: <= 0 disables the watchdog.
    watchdog_interval: float = 10.0


class ServeApp:
    """The dispatcher; front ends feed it one decoded request at a time."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        from concurrent.futures import ThreadPoolExecutor

        self.config = config if config is not None else ServeConfig()
        self.telemetry = Telemetry()
        self._tempdir = None
        cache_root = self.config.cache_root
        if cache_root is None:
            self._tempdir = tempfile.TemporaryDirectory(
                prefix="repro-serve-")
            cache_root = self._tempdir.name
        self.tenants = TenantRegistry(
            cache_root, self.config.settings,
            telemetry=self.telemetry,
            journal=self.config.journal,
            fault_plan=self.config.fault_plan,
            breaker_threshold=self.config.breaker_threshold,
            breaker_cooldown=self.config.breaker_cooldown)
        self.admission = AdmissionQueue(self.config.max_queue)
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, self.config.workers),
            thread_name_prefix="repro-serve")
        self._registry_lock = asyncio.Lock()
        self._draining = False
        self._rebuilding = False
        #: HTTP response ordinal stream for the client-disconnect fault.
        self._response_ops = 0
        #: Set once shutdown has drained; front ends exit on it.
        self.stopped = asyncio.Event()
        self._methods = {
            "initialize": self._rpc_initialize,
            "update": self._rpc_update,
            "analyze": self._rpc_analyze,
            "query": self._rpc_query,
            "telemetry": self._rpc_telemetry,
            "tenants": self._rpc_tenants,
            "ping": self._rpc_ping,
            "health": self._rpc_health,
            "shutdown": self._rpc_shutdown,
        }
        self._watchdog_stop = threading.Event()
        self._watchdog: Optional[threading.Thread] = None
        if self.config.watchdog_interval > 0:
            self._watchdog = threading.Thread(
                target=self._watchdog_loop, name="repro-serve-watchdog",
                daemon=True)
            self._watchdog.start()

    # ------------------------------------------------------------------
    # dispatch

    async def handle(self, raw) -> dict:
        """One request (JSON string or decoded object) → one envelope.

        Never raises: every failure mode becomes an error envelope."""
        request_id = None
        errored = False
        try:
            try:
                request_id, method, params = parse_request(raw)
            except ServeError as error:
                request_id = error.request_id
                raise
            handler = self._methods.get(method)
            if handler is None:
                raise ServeError(METHOD_NOT_FOUND,
                                 f"unknown method {method!r}")
            if method in HEAVY_METHODS:
                result = await self._admitted(handler, params)
            else:
                result = await handler(params)
            envelope = result_envelope(request_id, result)
        except ServeError as error:
            errored = True
            envelope = error.envelope(request_id)
        except Exception as error:  # noqa: BLE001 — the last line of defense
            errored = True
            envelope = ServeError(
                INTERNAL_ERROR,
                f"{type(error).__name__}: {error}").envelope(request_id)
        self.telemetry.add("serve", requests=1, errors=1 if errored else 0)
        self._sync_gauges()
        return envelope

    async def handle_line(self, line: str) -> str:
        return json.dumps(await self.handle(line))

    async def _admitted(self, handler, params: dict) -> dict:
        if self._draining:
            raise ServeError(SHUTTING_DOWN,
                             "daemon is draining; no new work accepted")
        self.admission.enter()
        start = time.monotonic()
        try:
            return await handler(params)
        finally:
            self.admission.leave()
            self.telemetry.record_latency(time.monotonic() - start)

    def _sync_gauges(self) -> None:
        self.telemetry.gauge(
            "serve", sessions_alive=self.tenants.alive,
            queue_depth=self.admission.depth,
            queue_peak=self.admission.peak,
            rejected=self.admission.rejected)
        self.telemetry.gauge(
            "breaker", open_groups=self.tenants.open_breaker_groups())

    async def _in_pool(self, fn, *args):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, fn, *args)

    # ------------------------------------------------------------------
    # methods

    async def _rpc_initialize(self, params: dict) -> dict:
        tenant = require_str(params, "tenant")
        source = require_str(params, "source")
        async with self._registry_lock:
            existing = tenant in self.tenants.names()
            entry = self.tenants.get(tenant) if existing else None
        if entry is not None:
            return await self._swap_source(entry, source)
        try:
            entry = await self._in_pool(self.tenants.create, tenant,
                                        source)
        except ServeError:
            raise
        except Exception as error:
            raise _compile_error(error)
        return self._session_status(entry)

    async def _rpc_update(self, params: dict) -> dict:
        tenant = require_str(params, "tenant")
        entry = self.tenants.get(tenant)
        source = optional_str(params, "source")
        function = optional_str(params, "function")
        if source is None and function is None:
            raise ServeError(INVALID_PARAMS,
                             "update needs 'source' or 'function'+'text'")
        if source is None:
            text = require_str(params, "text")
            source = splice_function(entry.session.source, function, text)
        return await self._swap_source(entry, source)

    async def _swap_source(self, entry, source: str) -> dict:
        async with entry.lock:
            try:
                await self._in_pool(entry.session.update_source, source)
            except ServeError:
                raise
            except Exception as error:
                raise _compile_error(error)
            # Journal only *accepted* versions: a compile error above
            # must not clobber the last recoverable program.
            self.tenants.journal_source(entry)
        return self._session_status(entry)

    def _session_status(self, entry) -> dict:
        return {
            "tenant": entry.name,
            "generation": entry.session.generation,
            "functions": entry.session.function_names(),
            "engine": self.config.settings.engine,
            "store": entry.store_root is not None,
        }

    def _checker_param(self, params: dict) -> str:
        """The request's ``checker`` (:data:`DEFAULT_CHECKER` when absent);
        an unknown name is invalid params."""
        checker = optional_str(params, "checker", DEFAULT_CHECKER)
        if checker not in CHECKER_FACTORIES:
            raise ServeError(
                INVALID_PARAMS,
                f"unknown checker {checker!r}; one of "
                f"{sorted(CHECKER_FACTORIES)}")
        return checker

    async def _rpc_analyze(self, params: dict) -> dict:
        tenant = require_str(params, "tenant")
        checker = self._checker_param(params)
        deadline = optional_number(params, "deadline_s",
                                   self.config.default_deadline)
        delta_only = optional_bool(params, "delta", False)
        entry = self.tenants.get(tenant)
        exec_config = ExecConfig(
            jobs=self.config.jobs,
            faults=FaultPolicy(query_timeout=deadline),
            fault_plan=self.config.fault_plan,
            breaker=entry.breaker)
        run_telemetry = Telemetry()
        async with entry.lock:
            generation = entry.session.generation
            result = await self._in_pool(
                lambda: entry.session.analyze(
                    checker, exec_config=exec_config,
                    telemetry=run_telemetry))
        self.telemetry.merge(run_telemetry)
        findings = findings_payload(result)
        if delta_only:
            # LSP shape: only the verdicts this program version actually
            # re-decided; replayed ones are unchanged by construction.
            findings = [f for f, report in zip(findings, result.reports)
                        if report.decided_by is not DecidedBy.STORE]
        response = {
            "tenant": tenant,
            "checker": checker,
            "generation": generation,
            "delta": delta_only,
            "summary": result.summary(),
            "counters": {
                "candidates": result.candidates,
                "smt_queries": result.smt_queries,
                "unknown_queries": result.unknown_queries,
                "error_queries": result.error_queries,
                "replayed_verdicts": result.replayed_verdicts,
                "bugs": len(result.bugs),
            },
            "findings": findings,
        }
        if result.failure is not None:
            response["failure"] = result.failure
        return response

    async def _rpc_query(self, params: dict) -> dict:
        """Demand query: decide one (def site, sink) pair on a hot
        tenant without a whole-program analyze.  Delta-free by
        construction — the response carries only the pair's verdict."""
        tenant = require_str(params, "tenant")
        checker = self._checker_param(params)
        sink_line = optional_position(params, "sink")
        if sink_line is None:
            raise ServeError(INVALID_PARAMS,
                             "query needs 'sink' (a 1-based line)")
        sink_col = optional_position(params, "col")
        def_line = optional_position(params, "def")
        deadline = optional_number(params, "deadline_s",
                                   self.config.default_deadline)
        entry = self.tenants.get(tenant)
        run_telemetry = Telemetry()
        async with entry.lock:
            generation = entry.session.generation
            try:
                verdict = await self._in_pool(
                    lambda: entry.session.query(
                        checker, sink=(sink_line, sink_col),
                        def_line=def_line, telemetry=run_telemetry,
                        deadline_s=deadline))
            except ValueError as error:
                # Site resolution failures (no sink/source at the line)
                # are the caller's coordinates being wrong, not ours.
                raise ServeError(INVALID_PARAMS, str(error))
        self.telemetry.merge(run_telemetry)
        response = {"tenant": tenant, "generation": generation}
        response.update(verdict.to_payload())
        return response

    async def _rpc_telemetry(self, params: dict) -> dict:
        self._sync_gauges()
        return self.telemetry.as_dict()

    async def _rpc_tenants(self, params: dict) -> dict:
        return {"tenants": self.tenants.names(),
                "recoverable": self.tenants.recoverable()}

    async def _rpc_ping(self, params: dict) -> dict:
        return {"pong": True, "draining": self._draining}

    async def _rpc_health(self, params: dict) -> dict:
        return self.health_payload()

    def health_payload(self) -> dict:
        """Liveness is implicit (a dead loop answers nothing);
        readiness enumerates its reasons so probes can log *why*."""
        reasons = []
        if self._draining:
            reasons.append("draining")
        if self._rebuilding:
            reasons.append("executor rebuild in progress")
        if self.admission.depth >= self.config.max_queue:
            reasons.append("admission queue full")
        return {"ok": True, "ready": not reasons, "reasons": reasons}

    async def _rpc_shutdown(self, params: dict) -> dict:
        self._draining = True
        while self.admission.depth > 0:
            await asyncio.sleep(0.01)
        served = self.admission.admitted
        sessions = self.tenants.alive
        # Drained, so every journal is quiescent: stamp the clean-
        # shutdown markers that let a restart skip crash accounting.
        self.tenants.mark_clean_shutdown()
        self.stopped.set()
        return {"drained": True, "served": served,
                "sessions_alive": sessions}

    # ------------------------------------------------------------------
    # watchdog

    def _watchdog_loop(self) -> None:
        """Probe the worker pool once per interval; a probe that cannot
        run within one interval means every worker is wedged (or the
        pool is dead) — rebuild it so new work can run.  Analyses
        longer than the interval are fine as long as one worker frees
        up; size the interval above the expected worst queue wait."""
        from concurrent.futures import TimeoutError as FutureTimeout

        interval = self.config.watchdog_interval
        while not self._watchdog_stop.wait(interval):
            try:
                probe = self._pool.submit(lambda: True)
                probe.result(timeout=interval)
            except (FutureTimeout, RuntimeError):
                if self._watchdog_stop.is_set():
                    break
                self._rebuild_pool()

    def _rebuild_pool(self) -> None:
        from concurrent.futures import ThreadPoolExecutor

        self._rebuilding = True
        try:
            old = self._pool
            self._pool = ThreadPoolExecutor(
                max_workers=max(1, self.config.workers),
                thread_name_prefix="repro-serve")
            old.shutdown(wait=False, cancel_futures=True)
            self.telemetry.add("serve", watchdog_rebuilds=1)
        finally:
            self._rebuilding = False

    # ------------------------------------------------------------------
    # fault sites

    def drop_response(self) -> bool:
        """The client-disconnect fault site: True when the plan says
        this HTTP response should be truncated mid-write."""
        plan = self.config.fault_plan
        if plan is None:
            return False
        ordinal = self._response_ops
        self._response_ops += 1
        if not plan.drops_response(ordinal):
            return False
        self.telemetry.add("serve", client_disconnects=1)
        return True

    # ------------------------------------------------------------------
    # lifecycle

    def close(self) -> None:
        self._watchdog_stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=2.0)
            self._watchdog = None
        self._pool.shutdown(wait=True)
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None


def _compile_error(error: Exception) -> ServeError:
    return ServeError(COMPILE_ERROR,
                      f"{type(error).__name__}: {error}")


def _is_heavy(text: str) -> bool:
    """Cheap peek at a request line's method (malformed lines count as
    light: their error envelope needs no ordering)."""
    try:
        payload = json.loads(text)
    except ValueError:
        return False
    return isinstance(payload, dict) \
        and payload.get("method") in HEAVY_METHODS


# ----------------------------------------------------------------------
# stdio front end (line-delimited JSON-RPC)

async def run_stdio(config: Optional[ServeConfig] = None,
                    reader: Optional[asyncio.StreamReader] = None,
                    writeline=None) -> None:
    """Serve line-delimited JSON-RPC until EOF or ``shutdown``.

    ``reader``/``writeline`` exist for in-process tests; by default they
    wrap the process's stdin/stdout.  Heavy requests (initialize/
    update/analyze) are processed **in arrival order** — a pipelined
    client may send ``initialize`` immediately followed by ``analyze``
    and must not race a 404 — while light requests (ping/telemetry)
    spawn concurrent tasks, so a slow ``analyze`` never blocks
    liveness.  Responses are serialized by a write lock."""
    app = ServeApp(config)
    if reader is None:
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
    write_lock = asyncio.Lock()

    if writeline is None:
        def writeline(text: str) -> None:
            sys.stdout.write(text + "\n")
            sys.stdout.flush()

    async def respond(line: str) -> None:
        response = await app.handle_line(line)
        async with write_lock:
            writeline(response)

    tasks: set[asyncio.Task] = set()
    try:
        stop = asyncio.ensure_future(app.stopped.wait())
        while not app.stopped.is_set():
            read = asyncio.ensure_future(reader.readline())
            done, _ = await asyncio.wait(
                {read, stop}, return_when=asyncio.FIRST_COMPLETED)
            if read not in done:
                read.cancel()
                break
            line = read.result()
            if not line:
                break
            text = line.decode() if isinstance(line, bytes) else line
            if not text.strip():
                continue
            if _is_heavy(text):
                await respond(text)
            else:
                task = asyncio.ensure_future(respond(text))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*tasks)
        stop.cancel()
    finally:
        app.close()


# ----------------------------------------------------------------------
# HTTP front end (dependency-free asyncio listener)

_HTTP_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
                 405: "Method Not Allowed", 422: "Unprocessable Entity",
                 429: "Too Many Requests", 503: "Service Unavailable"}


def _http_status(envelope: dict) -> int:
    error = envelope.get("error")
    if error is None:
        return 200
    code = error.get("code")
    if code in (UNKNOWN_TENANT, COMPILE_ERROR, OVERLOADED, SHUTTING_DOWN):
        return code
    if code == PARSE_ERROR:
        return 400
    return 400 if code in (-32600, -32601, -32602) else 500


def _http_response(status: int, body: bytes,
                   content_type: str = "application/json") -> bytes:
    reason = _HTTP_REASONS.get(status, "Error")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode() + body


async def _read_http_request(reader: asyncio.StreamReader):
    request_line = await reader.readline()
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        return None
    method, target = parts[0].upper(), parts[1]
    length = 0
    while True:
        header = await reader.readline()
        if not header or header in (b"\r\n", b"\n"):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                length = int(value.strip())
            except ValueError:
                length = 0
    body = await reader.readexactly(length) if length else b""
    return method, target, body


async def _serve_client(app: ServeApp, reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> None:
    try:
        request = await _read_http_request(reader)
        if request is None:
            return
        method, target, body = request
        split = urlsplit(target)
        if method == "POST" and split.path in ("/", "/rpc"):
            envelope = await app.handle(body.decode("utf-8", "replace"))
            payload = (json.dumps(envelope) + "\n").encode()
            response = _http_response(_http_status(envelope), payload)
            if app.drop_response():
                # Fault site: the client vanished mid-response.  Write
                # a torn prefix and abort the connection; the request
                # itself already ran and was accounted normally.
                writer.write(response[:max(1, len(response) // 2)])
                return
            writer.write(response)
            await writer.drain()
        elif method == "GET" and split.path == "/healthz":
            writer.write(_http_response(200, b'{"ok": true}\n'))
            await writer.drain()
        elif method == "GET" and split.path == "/readyz":
            health = app.health_payload()
            status = 200 if health["ready"] else 503
            writer.write(_http_response(
                status, (json.dumps(health) + "\n").encode()))
            await writer.drain()
        elif method == "GET" and split.path == "/telemetry":
            query = parse_qs(split.query)
            count = int(query.get("count", ["1"])[0] or 1)
            interval = float(query.get("interval", ["1.0"])[0] or 1.0)
            writer.write((f"HTTP/1.1 200 OK\r\n"
                          f"Content-Type: application/x-ndjson\r\n"
                          f"Connection: close\r\n\r\n").encode())
            streamed = 0
            # count=0 streams until the client disconnects or the
            # daemon drains; each line is one full snapshot in the
            # repro.exec.telemetry.SCHEMA format.
            while not app.stopped.is_set():
                app._sync_gauges()
                snapshot = json.dumps(app.telemetry.as_dict())
                writer.write((snapshot + "\n").encode())
                await writer.drain()
                streamed += 1
                if count and streamed >= count:
                    break
                await asyncio.sleep(interval)
        else:
            writer.write(_http_response(
                404, b'{"error": "POST /rpc or GET '
                     b'/telemetry|/healthz|/readyz"}\n'))
            await writer.drain()
    except (ConnectionError, asyncio.IncompleteReadError):
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def run_http(config: Optional[ServeConfig], host: str,
                   port: int) -> None:
    """Listen until the ``shutdown`` method drains the daemon."""
    app = ServeApp(config)

    async def client(reader, writer):
        await _serve_client(app, reader, writer)

    server = await asyncio.start_server(client, host, port)
    try:
        await app.stopped.wait()
    finally:
        server.close()
        await server.wait_closed()
        app.close()
