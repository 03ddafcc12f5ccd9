"""The repository benchmark: four closed-loop workloads, one client each.

    python3 perf/run.py [--workload W] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs in its own child process.
Each run sets up three times (``setup_s`` is the median), measures for
``--seconds`` (default: ``run_seconds`` in BENCHMARK.json; ``0`` sets up
once and runs one op), checks every verdict against the generator's
labels, prints a table and, as the last line, one JSON object::

    {"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are BENCHMARK.json's ``end_to_end`` list;
with ``--trace 1`` the run measures once untraced and once with the
layer wrappers of ``perf/tracing.py`` installed, reports the
``per_layer`` list, and writes ``<trace-dir>/<workload>.trace.json``.
See perf/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
WORKLOADS = ("oneshot", "scaled", "edit", "hover")
SETUPS = 3
DEFAULT_SEED = 1


def load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def import_repro() -> None:
    """Import the package from this checkout's ``src``, or exit 2."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as error:
        sys.exit(f"perf/run.py: cannot import repro from {src}: {error}")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"perf/run.py: repro resolved outside {src}: "
                 f"{repro.__file__}")


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #

def end_to_end(run, setups: list, rss_mb: float, sampler) -> dict:
    """name -> (value, wall-clock value, sample count); every time is
    converted to reference seconds (see perf/speed.py)."""
    from workloads import percentile

    def ms(windows, convert: bool) -> list[float]:
        return [1000 * (sampler.reference_seconds(start, end) if convert
                        else end - start) for start, end in windows]

    metrics = {}
    samples = len(run.ops)
    for convert in (True, False):
        latencies = ms(run.ops, convert)
        wall = ms([(run.start, run.end)], convert)[0] / 1000
        values = {
            "throughput_ops_s": samples / wall,
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p95_ms": percentile(latencies, 95),
            "setup_s": statistics.median(ms(setups, convert)) / 1000,
            "peak_rss_mb": rss_mb,
        }
        for name, value in values.items():
            metrics[name] = metrics.get(name, ()) + (value,)
    counts = {"setup_s": len(setups), "peak_rss_mb": 1}
    return {name: (reference, wall, counts.get(name, samples))
            for name, (reference, wall) in metrics.items()}


def per_layer(spans: list, wall: float, requests, overhead: float) -> dict:
    """name -> value, from one traced phase.

    ``requests`` is None for in-process workloads; for daemon workloads
    it lists the client's (id, method, start, end) round trips, which
    give ``client.transport`` (round trips minus ``serve.handle``).
    ``unattributed`` is phase wall time not covered by top-level spans
    (in process) or by round trips (daemon).
    """
    from tracing import LAYERS, layer_totals, self_times

    pairs = self_times(spans)
    seconds, calls, counts = layer_totals(pairs)
    if requests is None:
        covered = sum(span.end - span.start for span in spans
                      if span.parent is None)
    else:
        covered = sum(end - start for _, _, start, end in requests)
        handled = sum(span.end - span.start for span in spans
                      if span.name == "serve.handle")
        seconds["client.transport"] = covered - handled
        calls["client.transport"] = len(requests)
    seconds["unattributed"] = max(0.0, wall - covered)

    def ratio(part: float, base: float) -> float:
        return part / base if base else 0.0

    metrics: dict = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = seconds.get(layer, 0.0)
        if layer != "unattributed":
            metrics[f"{layer}.calls"] = calls.get(layer, 0)
    metrics.update({
        "unattributed.share": ratio(seconds["unattributed"], wall),
        "tracing.overhead_ratio": overhead,
        "loops.cache_hit_ratio": ratio(counts["loops.summarize"]["hits"],
                                       calls["loops.summarize"]),
        "pdg.nodes": ratio(counts["pdg.build"]["nodes"], calls["pdg.build"]),
        "pdg.edges": ratio(counts["pdg.build"]["edges"], calls["pdg.build"]),
        "pdg.reduce.edges_kept_ratio": ratio(
            counts["pdg.reduce.view"]["edges_kept"],
            counts["pdg.reduce.view"]["edges"]),
        "sparse.candidates": counts["sparse.collect"]["candidates"],
        "exec.store.replay_ratio": ratio(
            counts["exec.store.replay"]["replayed"],
            counts["exec.store.replay"]["candidates"]),
        "fusion.quickpath_resolutions":
            counts["fusion.condition"]["quickpath_resolutions"],
        "fusion.clones": counts["fusion.condition"]["clones"],
        "smt.decided_in_preprocess_ratio": ratio(
            counts["smt.check"]["decided_in_preprocess"],
            calls["smt.check"]),
        "smt.unknown": counts["smt.check"]["unknown"],
        "smt.encoder_hit_ratio": ratio(
            counts["smt.bitblast"]["encoder_hits"],
            counts["smt.bitblast"]["encoder_lookups"]),
        "smt.sat_conflicts": counts["smt.sat"]["conflicts"],
        "smt.sat.loops_self_s": sum(
            own for span, own in pairs
            if span.name == "smt.sat" and span.parent == "loops.summarize"),
        "query.memo_hit_ratio": ratio(
            counts["engine.session"]["memo_hits"],
            counts["engine.session"]["queries"]),
    })
    return metrics


def largest_self_layer(spans: list, request_ids) -> tuple[str, float, float]:
    """(layer, its self seconds, all self seconds) within some requests."""
    from tracing import layer_totals, self_times

    wanted = set(request_ids)
    pairs = [(span, own) for span, own in self_times(spans)
             if span.req in wanted]
    seconds = layer_totals(pairs)[0]
    if not seconds:
        return "-", 0.0, 0.0
    layer = max(seconds, key=seconds.get)
    return layer, seconds[layer], sum(seconds.values())


# ---------------------------------------------------------------------- #
# One workload
# ---------------------------------------------------------------------- #

def check_inputs(name: str, workload, seed: int) -> None:
    """Input drift guard: default-seed inputs must hash as recorded."""
    hashes = workload.input_hashes()
    if seed != DEFAULT_SEED:
        print(f"inputs {name} seed {seed}: {json.dumps(hashes)}")
        return
    recorded = load_json(os.path.join(PERF, "baseline.json"))["inputs"]
    if recorded.get(name) != hashes:
        sys.exit(f"perf/run.py: {name}: default-seed inputs differ from "
                 f"perf/baseline.json (generator changed?): "
                 f"{json.dumps(hashes)}")


def measure(workload, seconds: float, recorder=None):
    from workloads import Run, run_loop

    run = Run()
    run_loop(workload.ops(run, recorder), seconds, run)
    return run


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 trace_dir: str, bench: dict) -> int:
    import workloads
    from speed import SpeedSampler, pin_to_one_cpu

    pin_to_one_cpu()
    os.makedirs(os.path.join(ROOT, ".perf"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-",
                                dir=os.path.join(ROOT, ".perf"))
    workload = workloads.make_workload(name, seed, ROOT, work_dir)
    runs = []
    with SpeedSampler() as sampler:
        try:
            setups = []
            for _ in range(1 if seconds == 0 or trace else SETUPS):
                workload.close()
                started = time.perf_counter()
                workload.setup()
                setups.append((started, time.perf_counter()))
                if len(setups) == 1:
                    check_inputs(name, workload, seed)
            runs.append(measure(workload, seconds))
            rss_mb = workload.peak_rss_mb()
            if trace:
                traced = traced_phase(workload, seconds)
                runs.append(traced[0])
        except workloads.DaemonError as error:
            print(f"perf/run.py: {name}: {error}", file=sys.stderr)
            return 1
        finally:
            workload.close()
            shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    for run in runs:
        for error in run.errors:
            print(f"MISMATCH {name}: {error}")
    print(f"{name}: seed {seed}, {len(runs[0].ops)} samples in "
          f"{runs[0].wall:.1f} s; error_rate {failed}/{attempted}")
    if trace:
        values, notes = trace_report(name, runs[0], *traced, sampler,
                                     trace_dir)
        declared = bench["per_layer"]
        for note in notes:
            print(note)
    else:
        measured = end_to_end(runs[0], setups, rss_mb, sampler)
        values = {metric: value for metric, (value, _, _) in measured.items()}
        declared = bench["end_to_end"]
        print(f"  {'metric':<18} {'reference':>12} {'wall-clock':>12}")
        for entry in declared:
            value, wall, samples = measured[entry["name"]]
            print(f"  {entry['name']:<18} {value:>12.4f} {wall:>12.4f} "
                  f"{entry['unit']:<6} (n={samples})")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {entry["name"]: {"value": values[entry["name"]],
                                          "unit": entry["unit"]}
                          for entry in declared}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def traced_phase(workload, seconds: float):
    """Repeat the workload with the layer wrappers installed.

    Returns the run, its spans, and for daemon workloads the client's
    round trips; spans outside the measured phase are dropped."""
    from tracing import Recorder, Span, assign_requests, install
    from workloads import DaemonError

    recorder = Recorder(os.getpid())
    if workload.in_process:
        install(recorder)
    workload.close()
    workload.setup(recorder)
    recorder.spans.clear()
    run = measure(workload, seconds, recorder)
    spans, requests = recorder.spans, None
    if not workload.in_process:
        requests = [request for request in workload.daemon.requests
                    if run.start <= request[2] < run.end]
        workload.close()
        if not os.path.exists(workload.trace_out):
            raise DaemonError(f"no spans written; see {workload.log_path}")
        spans = [Span.from_event(event, 0.0)
                 for event in load_json(workload.trace_out)]
        assign_requests(spans)
    spans = [span for span in spans if run.start <= span.start < run.end]
    return run, spans, requests, getattr(workload, "bump_requests", ())


def trace_report(name: str, untraced, run, spans: list, requests,
                 bump_requests, sampler, trace_dir: str):
    """Per-layer metrics and printed notes for one traced phase."""
    from tracing import LAYERS, Span, write_chrome_trace

    def rate(phase) -> float:
        return len(phase.ops) / sampler.reference_seconds(phase.start,
                                                          phase.end)

    overhead = rate(untraced) / rate(run) - 1
    metrics = per_layer(spans, run.wall, requests, overhead)
    notes = [f"  tracing overhead {overhead:+.1%} (untraced vs traced "
             f"throughput); unattributed "
             f"{metrics['unattributed.share']:.1%} of op wall time"]
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    for layer in sorted(LAYERS, key=lambda n: -metrics[f"{n}.self_s"]):
        own = metrics[f"{layer}.self_s"]
        if own > 0:
            calls = metrics.get(f"{layer}.calls", "")
            notes.append(f"  {layer:<24} {own:>9.3f} s "
                         f"{own / total:>6.1%}  calls {calls}")
    if name == "edit":
        layer, own, whole = largest_self_layer(spans, bump_requests)
        notes.append(f"  bump-edit analyze requests: largest self time "
                     f"{layer} ({own:.3f} s of {whole:.3f} s)")
    client = [Span(f"rpc.{method}", start, end, 0, None, request_id,
                   os.getpid())
              for request_id, method, start, end in requests or ()]
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, f"{name}.trace.json")
    write_chrome_trace(path, spans + client, run.start)
    notes.append(f"  trace: {path}")
    return metrics, notes


# ---------------------------------------------------------------------- #
# All workloads
# ---------------------------------------------------------------------- #

def run_all(args) -> int:
    """Each workload in a fresh child process; one combined JSON line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace), "--trace-dir", args.trace_dir]
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1]) if lines else None
        except ValueError:
            result = None
        if child.returncode != 0 or result is None:
            status = 1
        if result is None:
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    parser = argparse.ArgumentParser(
        description="Run the benchmark workloads (see perf/README.md).")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, each in a "
                             "child process)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"],
                        help="measured time per run; 0 runs one op")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--trace-dir", default=os.path.join(ROOT, ".perf",
                                                            "traces"),
                        help="where --trace 1 writes <workload>.trace.json")
    args = parser.parse_args(argv)
    import_repro()
    if args.workload is None:
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.trace_dir, bench)


if __name__ == "__main__":
    sys.exit(main())
