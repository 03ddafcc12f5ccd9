"""Per-layer spans recorded from outside the program.

The traced run wraps each layer's public entry point (functions at every
module that imported them by name, methods on their class) with a
wrapper that records one span per call: name, start, end, thread, parent
span and request id.  Nothing under ``src/`` changes; spans stay in
memory until the run ends and are then written as a Chrome trace-event
array (``ph: "X"`` events, which Perfetto and chrome://tracing open).

Self time is computed by a sweep over all spans of a process: at every
instant the time belongs to the most recently started span still open.
For properly nested spans on one thread that is the innermost span; it
also covers the daemon, where ``ServeApp.handle`` runs on the event-loop
thread and the analysis it waits for runs on a worker thread (the stdio
front end runs heavy requests one at a time, so worker spans nest inside
exactly one handle span in time).

Spans inside forked scheduler workers are recorded in the worker's memory
and discarded with it: ``exec.scheduler.run`` self time therefore
includes pool start-up, pickling and the solving done in workers.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, Optional

#: Layers in report order.  ``client.transport`` and ``unattributed`` are
#: computed from the client's own request timings, not wrapped.
LAYERS = (
    "lang.lex", "lang.parse", "lang.lower", "loops.summarize", "pdg.build",
    "pdg.reduce.view", "pdg.reduce.adopt", "sparse.collect",
    "exec.store.replay", "exec.store.commit", "serve.journal",
    "exec.scheduler.run", "pdg.slicing", "fusion.condition",
    "smt.preprocess.template", "smt.preprocess.query", "smt.bitblast",
    "smt.sat", "smt.check", "query.sites", "query.demand",
    "engine.session", "serve.handle", "client.transport", "unattributed",
)


class Span:
    """One call into a layer.  ``counts`` holds what the layer's probe
    counted during the call (cache hits, candidates, conflicts, ...)."""

    __slots__ = ("name", "start", "end", "tid", "parent", "req", "pid",
                 "counts")

    def __init__(self, name: str, start: float, end: float, tid: int,
                 parent: Optional[str] = None, req=None, pid: int = 0,
                 counts: Optional[dict] = None):
        self.name = name
        self.start = start
        self.end = end
        self.tid = tid
        self.parent = parent
        self.req = req
        self.pid = pid
        self.counts = counts

    def to_event(self, origin: float) -> dict:
        """One Chrome trace event (microseconds from ``origin``)."""
        event = {"name": self.name, "ph": "X",
                 "ts": round((self.start - origin) * 1e6, 3),
                 "dur": round((self.end - self.start) * 1e6, 3),
                 "pid": self.pid, "tid": self.tid, "args": {}}
        if self.req is not None:
            event["args"]["req"] = self.req
        if self.parent is not None:
            event["args"]["parent"] = self.parent
        if self.counts:
            event["args"]["counts"] = self.counts
        return event

    @classmethod
    def from_event(cls, event: dict, origin: float) -> "Span":
        start = origin + event["ts"] / 1e6
        args = event.get("args", {})
        return cls(event["name"], start, start + event["dur"] / 1e6,
                   event["tid"], args.get("parent"), args.get("req"),
                   event["pid"], args.get("counts"))


class Recorder:
    """In-memory span store for one traced process."""

    def __init__(self, pid: int = 0) -> None:
        self.pid = pid
        self.spans: list[Span] = []
        #: Request id stamped on spans opened by the client thread
        #: (in-process workloads set it to the op index).
        self.request = None
        self._local = threading.local()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def dump(self, path: str) -> None:
        """Every span as an event with absolute ``perf_counter`` times
        (CLOCK_MONOTONIC on Linux, shared by every process)."""
        with open(path, "w") as handle:
            json.dump([span.to_event(0.0) for span in self.spans], handle)


# ---------------------------------------------------------------------- #
# Wrappers
# ---------------------------------------------------------------------- #

def _nearest(stack: list, names: Iterable[str]) -> Optional[str]:
    for frame in reversed(stack):
        if frame[0] in names:
            return frame[0]
    return None


def _wrap(recorder: Recorder, name, fn: Callable,
          probe: Optional[Callable] = None) -> Callable:
    """``fn`` recording one span per outermost call.

    ``name`` is a layer name or a callable choosing one from the open
    span stack.  A call made while the innermost open span already has
    the same name (recursion, a cache wrapping the function it caches)
    adds no span.  ``probe(args, kwargs)`` runs before the call and may
    return ``done(result)``, whose dict of counts is kept on the span.
    """
    pid = recorder.pid

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = recorder.stack()
        layer = name(stack) if callable(name) else name
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        done = probe(args, kwargs) if probe is not None else None
        span = Span(layer, 0.0, 0.0, threading.get_ident(),
                    stack[-1][0] if stack else None, recorder.request, pid)
        stack.append((layer,))
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            recorder.spans.append(span)
        if done is not None:
            span.counts = done(result)
        return result

    return wrapper


def _wrap_handle(recorder: Recorder, fn: Callable) -> Callable:
    """``ServeApp.handle`` (a coroutine): one span per request, stamped
    with the JSON-RPC id.  Not pushed on the loop thread's stack, since
    other coroutines may run while it awaits."""
    pid = recorder.pid

    @functools.wraps(fn)
    async def handle(self, raw):
        try:
            req = json.loads(raw).get("id") if isinstance(raw, str) else None
        except (ValueError, AttributeError):
            req = None
        start = time.perf_counter()
        try:
            return await fn(self, raw)
        finally:
            recorder.spans.append(Span("serve.handle", start,
                                       time.perf_counter(),
                                       threading.get_ident(), None, req,
                                       pid))

    return handle


def _patch_function(module, attr: str, make: Callable) -> None:
    """Replace ``module.attr`` everywhere ``repro`` imported it by name."""
    original = getattr(module, attr)
    wrapped = make(original)
    for other in list(sys.modules.values()):
        if other is None or not getattr(other, "__name__", "") \
                .startswith("repro"):
            continue
        if getattr(other, attr, None) is original:
            setattr(other, attr, wrapped)


def _patch_method(cls, attr: str, make: Callable) -> None:
    setattr(cls, attr, make(getattr(cls, attr)))


def install(recorder: Recorder) -> None:
    """Wrap every layer's entry point for the rest of the process."""
    import repro.cli  # noqa: F401 - imports every layer module
    import repro.engine.core as core
    import repro.exec.cache as cache
    import repro.exec.scheduler as scheduler
    import repro.exec.store as store
    import repro.fusion.engine as fusion_engine
    import repro.fusion.graph_solver as graph_solver
    import repro.lang.lexer as lexer
    import repro.lang.lowering as lowering
    import repro.lang.parser as parser
    import repro.loops.summarize as loops
    import repro.pdg.reduce as reduce
    import repro.pdg.slicing as slicing
    import repro.query.engine as query_engine
    import repro.query.sites as sites
    import repro.serve.app as app
    import repro.serve.journal as journal
    import repro.smt.bitblast as bitblast
    import repro.smt.incremental as incremental
    import repro.smt.preprocess as preprocess
    import repro.smt.sat as sat
    import repro.smt.solver as solver
    import repro.sparse.engine as sparse

    def wrap(name, probe=None):
        return lambda fn: _wrap(recorder, name, fn, probe)

    def summarize_probe(args, kwargs):
        summaries = args[0]
        hits = summaries.hits
        return lambda result: {"hits": summaries.hits - hits}

    def pdg_probe(args, kwargs):
        return lambda pdg: {"nodes": pdg.num_vertices,
                            "edges": pdg.num_edges}

    def view_probe(args, kwargs):
        registry, checker = args[0], args[1]
        if checker.name in registry._views:
            return None

        def done(view):
            stats = view.stats()
            return {"edges_kept": stats["edges_kept"],
                    "edges": stats["edges_before"]}
        return done

    def collect_probe(args, kwargs):
        return lambda candidates: {"candidates": len(candidates)}

    def replay_probe(args, kwargs):
        candidates = args[1]
        return lambda pending: {"candidates": len(candidates),
                                "replayed": len(candidates) - len(pending)}

    def condition_probe(args, kwargs):
        stats = args[0].stats
        quick, clones = stats.quickpath_resolutions, stats.clones
        return lambda result: {
            "quickpath_resolutions": stats.quickpath_resolutions - quick,
            "clones": stats.clones - clones}

    def literal_probe(args, kwargs):
        blaster = args[0]
        hits, misses = blaster.encoder_hits, blaster.encoder_misses
        return lambda result: {
            "encoder_hits": blaster.encoder_hits - hits,
            "encoder_lookups": blaster.encoder_hits + blaster.encoder_misses
            - hits - misses}

    def sat_probe(args, kwargs):
        sat_solver = args[0]
        conflicts = sat_solver.conflicts
        return lambda result: {"conflicts": sat_solver.conflicts - conflicts}

    def check_probe(args, kwargs):
        return lambda result: {
            "unknown": int(result.status is solver.SmtStatus.UNKNOWN),
            "decided_in_preprocess": int(result.decided_in_preprocess)}

    def query_probe(args, kwargs):
        return lambda verdict: {"queries": 1,
                                "memo_hits": int(verdict.from_cache)}

    def preprocess_layer(stack):
        nearest = _nearest(stack, ("fusion.condition", "smt.check"))
        return "smt.preprocess.template" if nearest == "fusion.condition" \
            else "smt.preprocess.query"

    _patch_function(lexer, "tokenize", wrap("lang.lex"))
    _patch_function(parser, "parse", wrap("lang.parse"))
    _patch_function(lowering, "lower_module", wrap("lang.lower"))
    _patch_method(loops.SummaryCache, "summarize",
                  wrap("loops.summarize", summarize_probe))
    _patch_function(fusion_engine, "prepare_pdg", wrap("pdg.build",
                                                       pdg_probe))
    _patch_method(reduce.ViewRegistry, "view_for",
                  wrap("pdg.reduce.view", view_probe))
    _patch_method(reduce.ViewRegistry, "adopt", wrap("pdg.reduce.adopt"))
    _patch_function(sparse, "collect_candidates",
                    wrap("sparse.collect", collect_probe))
    _patch_method(store.StoreBinding, "replay",
                  wrap("exec.store.replay", replay_probe))
    _patch_method(store.StoreBinding, "commit", wrap("exec.store.commit"))
    _patch_method(journal.SessionJournal, "record_source",
                  wrap("serve.journal"))
    _patch_method(scheduler.QueryScheduler, "run",
                  wrap("exec.scheduler.run"))
    _patch_function(slicing, "compute_slice", wrap("pdg.slicing"))
    _patch_method(cache.SliceCache, "get", wrap("pdg.slicing"))
    _patch_method(graph_solver.IrBasedSmtSolver, "condition_of",
                  wrap("fusion.condition", condition_probe))
    _patch_method(preprocess.Preprocessor, "run", wrap(preprocess_layer))
    _patch_method(bitblast.BitBlaster, "literal",
                  wrap("smt.bitblast", literal_probe))
    _patch_method(sat.SatSolver, "solve",
                  wrap("smt.sat", sat_probe))
    _patch_method(solver.SmtSolver, "check", wrap("smt.check", check_probe))
    _patch_method(incremental.SolverSession, "check",
                  wrap("smt.check", check_probe))
    _patch_function(sites, "resolve_sink_sites", wrap("query.sites"))
    _patch_function(sites, "resolve_def_sites", wrap("query.sites"))
    _patch_function(query_engine, "run_demand_query", wrap("query.demand"))
    for method in ("update_source", "analyze"):
        _patch_method(core.AnalysisSession, method, wrap("engine.session"))
    _patch_method(core.AnalysisSession, "query",
                  wrap("engine.session", query_probe))
    _patch_method(app.ServeApp, "handle",
                  lambda fn: _wrap_handle(recorder, fn))


# ---------------------------------------------------------------------- #
# Analysis
# ---------------------------------------------------------------------- #

def self_times(spans: list[Span]) -> list[tuple[Span, float]]:
    """Each span paired with its self time (see module docstring)."""
    events = []
    for order, span in enumerate(spans):
        events.append((span.start, 1, order))
        events.append((span.end, 0, order))
    events.sort()
    own = [0.0] * len(spans)
    open_heap: list[tuple[float, int]] = []   # (-start, order)
    closed: set[int] = set()
    previous = None
    for moment, kind, order in events:
        while open_heap and open_heap[0][1] in closed:
            heapq.heappop(open_heap)
        if open_heap and previous is not None:
            own[open_heap[0][1]] += moment - previous
        previous = moment
        if kind == 1:
            heapq.heappush(open_heap, (-spans[order].start, order))
        else:
            closed.add(order)
    return list(zip(spans, own))


def assign_requests(spans: list[Span]) -> None:
    """Give daemon spans without a request id the id of the
    ``serve.handle`` span that contains their start."""
    handles = sorted((s.start, s.end, s.req) for s in spans
                     if s.name == "serve.handle")
    starts = [start for start, _, _ in handles]
    for span in spans:
        if span.req is not None or span.name == "serve.handle":
            continue
        position = bisect.bisect_right(starts, span.start) - 1
        if position >= 0 and handles[position][1] >= span.end:
            span.req = handles[position][2]


def layer_totals(pairs: Iterable[tuple[Span, float]]) -> tuple[dict, ...]:
    """Per layer: self seconds, calls, and probe counts summed by key."""
    seconds: dict = defaultdict(float)
    calls: Counter = Counter()
    counts: dict = defaultdict(Counter)
    for span, own in pairs:
        seconds[span.name] += own
        calls[span.name] += 1
        if span.counts:
            counts[span.name].update(span.counts)
    return seconds, calls, counts


def write_chrome_trace(path: str, spans: list[Span], origin: float) -> None:
    """A plain JSON array of complete (``ph: "X"``) events."""
    events = [span.to_event(origin)
              for span in sorted(spans, key=lambda s: s.start)]
    with open(path, "w") as handle:
        json.dump(events, handle)
