"""Command-line interface.

::

    python -m repro scan prog.fl --checker null-deref --engine fusion
    python -m repro subjects
    python -m repro bench --subject mcf --engine pinpoint

``scan`` is the user-facing entry point an open-source release would ship:
compile a small-language file, build the PDG once, and run one or more
checkers with the selected engine, optionally emitting concrete witnesses,
JSON, or a graphviz dump of the dependence graph.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import Optional, Sequence

from repro.engine import (CHECKER_FACTORIES, ENGINE_CHOICES,
                          EngineSettings, analysis_payload, build_engine)
from repro.exec import BACKENDS
from repro.fusion import prepare_pdg
from repro.lang import (LexError, LoweringConfig, LoweringError,
                        ParseError, compile_source)
from repro.pdg import pdg_to_dot

#: A malformed source file: every subcommand reports these as
#: ``repro <cmd>: LINE:COL: message`` and exits 2.
FRONTEND_ERRORS = (LexError, ParseError, LoweringError)

#: What ``--backend auto`` means, on every subcommand that takes it.
AUTO_BACKEND_HELP = ("auto: in-process at one job, process pool above "
                     "(thread without fork)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fusion: path-sensitive sparse analysis (PLDI'21 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="analyse a small-language file")
    scan.add_argument("file", help="source file ('-' for stdin)")
    scan.add_argument("--checker", action="append",
                      choices=sorted(CHECKER_FACTORIES),
                      help="checker to run (repeatable; default: all)")
    scan.add_argument("--engine", default="fusion", choices=ENGINE_CHOICES)
    scan.add_argument("--witness", action="store_true",
                      help="extract a concrete model per finding")
    scan.add_argument("--json", action="store_true", dest="as_json",
                      help="machine-readable output")
    scan.add_argument("--dot", metavar="FILE",
                      help="write the PDG in graphviz format")
    _add_frontend_arguments(scan)
    scan.add_argument("--show-infeasible", action="store_true",
                      help="also list candidates filtered as infeasible")
    scan.add_argument("--verbose", action="store_true",
                      help="full report: traces, guards, witnesses")

    sub.add_parser("subjects", help="list the benchmark subject registry")

    bench = sub.add_parser("bench", help="run one benchmark cell")
    bench.add_argument("--subject", required=True,
                       help="registry subject id/name")
    bench.add_argument("--engine", default="fusion", choices=ENGINE_CHOICES)
    bench.add_argument("--checker", default="null-deref",
                       choices=sorted(CHECKER_FACTORIES))
    bench.add_argument("--time-budget", type=float, default=120.0)
    _add_exec_arguments(bench)
    _add_engine_arguments(bench)

    query = sub.add_parser(
        "query",
        help="demand query: decide one (def site, sink) pair without a "
             "whole-program analysis (see docs/queries.md)")
    query.add_argument("file", help="source file ('-' for stdin)")
    query.add_argument("--checker", required=True,
                       choices=sorted(CHECKER_FACTORIES))
    query.add_argument("--sink", required=True, metavar="LINE[:COL]",
                       help="1-based source line (optionally :column) of "
                            "the sink call")
    query.add_argument("--def", dest="def_line", type=int, default=None,
                       metavar="LINE",
                       help="restrict to the checker sources created on "
                            "this line (default: any source)")
    query.add_argument("--engine", default="fusion",
                       choices=ENGINE_CHOICES)
    _add_engine_arguments(query)
    _add_frontend_arguments(query)
    query.add_argument("--cache-dir", metavar="PATH", default=None,
                       help="artifact store shared with full analyses: "
                            "warm verdicts replay without a solve")
    query.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-candidate solve deadline (overruns "
                            "report UNKNOWN)")
    query.add_argument("--json", action="store_true", dest="as_json",
                       help="machine-readable verdict on stdout")
    query.add_argument("--telemetry", metavar="FILE",
                       help="write structured run telemetry as JSON")

    analyze = sub.add_parser(
        "analyze",
        help="analyse a registry subject or source file with the "
             "query-execution layer (parallel jobs, slice memo, telemetry)")
    analyze.add_argument("--subject", required=True,
                         help="registry subject id/name, or a path to a "
                              "small-language source file")
    analyze.add_argument("--checker", default="null-deref",
                         choices=sorted(CHECKER_FACTORIES))
    analyze.add_argument("--engine", default="fusion",
                         choices=ENGINE_CHOICES)
    analyze.add_argument("--json", action="store_true", dest="as_json",
                         help="machine-readable findings on stdout")
    _add_frontend_arguments(analyze)
    _add_exec_arguments(analyze)
    _add_engine_arguments(analyze)

    serve = sub.add_parser(
        "serve",
        help="run the hot analysis daemon: engine state (artifact store, "
             "slice cache, solver sessions) stays warm across requests "
             "(see docs/serving.md)")
    serve.add_argument("--stdio", action="store_true",
                       help="speak line-delimited JSON-RPC on "
                            "stdin/stdout instead of HTTP")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8171)
    serve.add_argument("--engine", default="fusion",
                       choices=ENGINE_CHOICES)
    serve.add_argument("--workers", type=int, default=4,
                       help="analysis executor threads (default 4)")
    serve.add_argument("--max-queue", type=int, default=32,
                       help="admission-control bound on queued+running "
                            "requests; excess requests are rejected with "
                            "a 429-style error (default 32)")
    serve.add_argument("--jobs", type=int, default=1,
                       help="per-request worker pool size (default 1)")
    serve.add_argument("--backend", default="auto", choices=BACKENDS,
                       help="per-request query executor (default "
                            + AUTO_BACKEND_HELP + ")")
    serve.add_argument("--cache-root", metavar="DIR", default=None,
                       help="root directory for per-tenant artifact "
                            "stores (default: a private temp dir)")
    serve.add_argument("--default-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-request deadline when the request "
                            "carries none (overruns report UNKNOWN)")
    _add_engine_arguments(serve)
    serve.add_argument("--fault-plan", metavar="SPEC", default=None,
                       help="inject deterministic faults into every "
                            "request (testing/CI only)")
    serve.add_argument("--journal",
                       action=argparse.BooleanOptionalAction,
                       default=True,
                       help="journal every accepted program version "
                            "under the tenant's store dir so a "
                            "restarted daemon recovers sessions "
                            "lazily (--no-journal disables crash "
                            "recovery; see docs/robustness.md)")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       metavar="K",
                       help="consecutive failures per (checker, sink) "
                            "group before the poison-group circuit "
                            "breaker opens; 0 disables (default 3)")
    serve.add_argument("--breaker-cooldown", type=float, default=30.0,
                       metavar="SECONDS",
                       help="seconds an open group waits before one "
                            "half-open probe query (default 30)")
    serve.add_argument("--watchdog-interval", type=float, default=10.0,
                       metavar="SECONDS",
                       help="worker-pool probe period; a probe that "
                            "cannot run within one period rebuilds "
                            "the executor; 0 disables (default 10)")
    _add_frontend_arguments(serve)

    pdg = sub.add_parser(
        "pdg",
        help="inspect checker-specific sparsified PDG views: graph-size "
             "stats before/after pruning and graphviz dumps "
             "(see docs/sparsification.md)")
    pdg.add_argument("--subject", required=True,
                     help="registry subject id/name, or a path to a "
                          "small-language source file")
    pdg.add_argument("--checker", action="append",
                     choices=sorted(CHECKER_FACTORIES),
                     help="checker view to build (repeatable; "
                          "default: all)")
    pdg.add_argument("--stats", action="store_true",
                     help="print per-checker view statistics as JSON "
                          "(the default when --dot is absent)")
    pdg.add_argument("--dot", metavar="FILE",
                     help="write the pruned view in graphviz format "
                          "('-' for stdout; needs exactly one --checker)")
    _add_frontend_arguments(pdg)

    lint = sub.add_parser(
        "lint",
        help="compile a source file (or registry subject) and check PDG "
             "well-formedness; exits nonzero on violations")
    lint.add_argument("subject",
                      help="registry subject id/name, or a path to a "
                           "small-language source file ('-' for stdin)")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="machine-readable violation list")

    return parser


def _add_frontend_arguments(parser: argparse.ArgumentParser) -> None:
    """Front-end lowering flags, shared by every subcommand that
    compiles source (scan/query/analyze/serve/pdg).  These used
    to be copy-pasted per subparser; keep them here so a new knob shows
    up everywhere at once."""
    from repro.loops import LOOP_STRATEGIES

    parser.add_argument("--unroll", type=int, default=2,
                        help="loop depth bound: unroll factor under "
                             "--loop-strategy unroll, summary path depth "
                             "under summaries (default 2)")
    parser.add_argument("--width", type=int, default=8,
                        help="bit width of integers (default 8)")
    parser.add_argument("--loop-strategy", dest="loop_strategy",
                        default="summaries", choices=LOOP_STRATEGIES,
                        help="loop lowering: solver-driven per-loop "
                             "summaries (default) or bounded unrolling "
                             "(see docs/loops.md)")
    parser.add_argument("--loop-paths", dest="loop_paths", type=int,
                        default=64, metavar="N",
                        help="feasible-path budget per summarized loop; "
                             "loops that exceed it fall back to "
                             "unrolling (default 64)")


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """The engine switches, declared once for every subcommand that
    builds a path-sensitive engine (query/analyze/bench/serve).  Each
    has an on and an off spelling; the infer baseline has no SMT stage
    and ignores ``--incremental``."""
    parser.add_argument("--incremental",
                        action=argparse.BooleanOptionalAction,
                        default=True,
                        help="route grouped queries through persistent "
                             "assumption-based solver sessions with "
                             "cross-query clause reuse (default on; see "
                             "docs/solver.md)")


def _lowering_config(args: argparse.Namespace) -> LoweringConfig:
    """The front-end config described by the shared frontend flags."""
    return LoweringConfig(loop_unroll=args.unroll, width=args.width,
                          loop_strategy=args.loop_strategy,
                          loop_paths=args.loop_paths)


def _engine_settings(args: argparse.Namespace) -> EngineSettings:
    """The session settings described by the engine and frontend flags."""
    return EngineSettings(engine=args.engine,
                          incremental=args.incremental,
                          loop_unroll=args.unroll,
                          width=args.width,
                          loop_strategy=args.loop_strategy,
                          loop_paths=args.loop_paths)


def _record_loop_telemetry(telemetry, program) -> None:
    """Fold a compiled program's loop-lowering counters into a
    telemetry instance (no-op when either side is absent)."""
    stats = getattr(program, "loop_stats", None)
    if telemetry is not None and stats is not None:
        telemetry.record_loops(**stats.as_dict())


def _add_exec_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags for the repro.exec query-execution layer (shared by the
    ``analyze`` and ``bench`` subcommands)."""
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker pool size; 1 = solve in-process on "
                             "one engine (default 1)")
    parser.add_argument("--backend", default="auto", choices=BACKENDS,
                        help="query executor (default "
                             + AUTO_BACKEND_HELP + ")")
    parser.add_argument("--batch-size", type=int, default=0,
                        help="queries per worker batch; 0 = auto")
    parser.add_argument("--telemetry", metavar="FILE",
                        help="write structured run telemetry as JSON")
    parser.add_argument("--query-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-query wall-clock cap covering slicing "
                             "through the SAT search (default: the engine "
                             "solver's 10 s limit; overruns report "
                             "UNKNOWN, never abort the run)")
    parser.add_argument("--max-retries", type=int, default=None,
                        metavar="N",
                        help="batch re-executions / pool rebuilds before "
                             "degrading (default 2)")
    parser.add_argument("--on-error", default="unknown",
                        choices=("unknown", "abort"),
                        help="failed query handling: isolate as UNKNOWN "
                             "(default) or abort the run")
    parser.add_argument("--fault-plan", metavar="SPEC", default=None,
                        help="inject deterministic faults, e.g. "
                             "'raise=3,7;delay=0:0.5;crash=1' "
                             "(testing/CI only)")
    parser.add_argument("--cache-dir", metavar="PATH", default=None,
                        help="persistent artifact store for warm "
                             "incremental re-analysis: verdicts whose "
                             "recorded dependencies are unchanged are "
                             "replayed instead of re-solved (see "
                             "docs/caching.md)")
    parser.add_argument("--no-store", action="store_true",
                        help="ignore --cache-dir for this run (neither "
                             "read nor write the store)")


def cmd_scan(args: argparse.Namespace) -> int:
    if args.file == "-":
        source = sys.stdin.read()
    else:
        with open(args.file) as handle:
            source = handle.read()
    program = compile_source(source, _lowering_config(args))
    pdg = prepare_pdg(program)

    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(pdg_to_dot(pdg))

    checker_names = args.checker or sorted(CHECKER_FACTORIES)
    findings = []
    exit_code = 0
    verbose_sections = []
    for checker_name in checker_names:
        engine = build_engine(args.engine, pdg,
                              want_model=args.witness or args.verbose)
        result = engine.analyze(CHECKER_FACTORIES[checker_name]())
        if args.verbose:
            from repro.checkers.format import format_results

            verbose_sections.append(format_results(
                pdg, result, include_infeasible=args.show_infeasible))
        for report in result.reports:
            if not report.feasible and not args.show_infeasible:
                continue
            entry = {
                "checker": checker_name,
                "feasible": report.feasible,
                "source_function": report.source.function,
                "source": repr(report.source.stmt),
                "sink_function": report.sink.function,
                "sink": repr(report.sink.stmt),
                "path": [step.vertex.var.name
                         for step in report.candidate.path.steps],
            }
            if args.witness and report.witness:
                entry["witness"] = {
                    k: v for k, v in sorted(report.witness.items())
                    if not k.startswith("!")}
            findings.append(entry)
            if report.feasible:
                exit_code = 1

    if args.as_json:
        print(json.dumps({"engine": args.engine, "findings": findings},
                         indent=2))
    elif args.verbose:
        print("\n\n".join(verbose_sections))
    else:
        if not findings:
            print("no findings")
        for entry in findings:
            tag = "BUG" if entry["feasible"] else "infeasible"
            print(f"[{tag}] {entry['checker']}: "
                  f"{entry['source_function']}: {entry['source']}")
            print(f"      -> {entry['sink_function']}: {entry['sink']}")
            if "witness" in entry:
                pairs = ", ".join(f"{k}={v}"
                                  for k, v in entry["witness"].items())
                print(f"      witness: {pairs}")
    return exit_code


def cmd_subjects(_args: argparse.Namespace) -> int:
    from repro.bench import SUBJECTS, render_table

    print(render_table(
        ["ID", "name", "paper KLoC", "paper #fn", "gen functions",
         "layers", "fanout"],
        [(s.id, s.name, s.paper.kloc, s.paper.functions,
          s.spec.num_functions, s.spec.layers, s.spec.call_fanout)
         for s in SUBJECTS],
        title="Benchmark subjects (Table 2 registry)"))
    return 0


def _exec_options(args: argparse.Namespace):
    """(ExecConfig, Telemetry | None) from the shared exec flags."""
    from repro.exec import ExecConfig, FaultPlan, FaultPolicy, Telemetry

    telemetry = Telemetry() if args.telemetry else None
    policy_kwargs = {"on_error": args.on_error}
    if args.query_timeout is not None:
        policy_kwargs["query_timeout"] = args.query_timeout
    if args.max_retries is not None:
        policy_kwargs["max_retries"] = args.max_retries
    fault_plan = None
    if args.fault_plan:
        try:
            fault_plan = FaultPlan.parse(args.fault_plan)
        except ValueError as error:
            raise SystemExit(f"repro: bad --fault-plan: {error}")
    return ExecConfig(jobs=args.jobs, backend=args.backend,
                      batch_size=args.batch_size,
                      faults=FaultPolicy(**policy_kwargs),
                      fault_plan=fault_plan), telemetry


def _make_store(args: argparse.Namespace):
    """ArtifactStore | None from the shared ``--cache-dir``/``--no-store``
    flags.  The infer baseline has no per-candidate SMT verdicts to
    cache, so the store silently stays off there."""
    if args.cache_dir is None or args.no_store or args.engine == "infer":
        return None
    from repro.exec import ArtifactStore, FaultPlan

    fault_plan = None
    if getattr(args, "fault_plan", None):
        try:
            fault_plan = FaultPlan.parse(args.fault_plan)
        except ValueError:
            fault_plan = None  # _exec_options already reported it
    return ArtifactStore(args.cache_dir, label=args.subject,
                         fault_plan=fault_plan)


def _collections() -> list[int]:
    """Cyclic-collector runs so far in this process, per generation."""
    return [generation["collections"] for generation in gc.get_stats()]


def _write_telemetry(args: argparse.Namespace, telemetry,
                     collections: list[int]) -> bool:
    """Write the run's telemetry, with the collector runs since the
    ``collections`` snapshot taken when the command started."""
    if telemetry is None or not args.telemetry:
        return True
    telemetry.record_gc(**{
        f"collections_gen{generation}": now - then
        for generation, (then, now) in enumerate(zip(collections,
                                                     _collections()))})
    try:
        telemetry.write(args.telemetry)
    except OSError as error:
        print(f"repro: cannot write telemetry to {args.telemetry!r}: "
              f"{error}", file=sys.stderr)
        return False
    return True


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import run_engine

    collections = _collections()
    exec_config, telemetry = _exec_options(args)
    outcome = run_engine(args.subject, args.engine, args.checker,
                         time_budget=args.time_budget,
                         jobs=args.jobs, backend=args.backend,
                         telemetry=telemetry,
                         query_timeout=args.query_timeout,
                         max_retries=args.max_retries,
                         on_error=args.on_error,
                         fault_plan=exec_config.fault_plan,
                         store=_make_store(args),
                         incremental=args.incremental)
    print(json.dumps(outcome.row(), indent=2))
    if not _write_telemetry(args, telemetry, collections):
        return 2
    return 0 if outcome.failed is None else 2


def cmd_query(args: argparse.Namespace) -> int:
    from repro.engine import AnalysisSession
    from repro.exec import Telemetry

    collections = _collections()
    if args.file == "-":
        source = sys.stdin.read()
    else:
        try:
            with open(args.file) as handle:
                source = handle.read()
        except OSError as error:
            print(f"repro query: {error}", file=sys.stderr)
            return 2
    sink_text, _, col_text = args.sink.partition(":")
    try:
        sink_line = int(sink_text)
        sink_col = int(col_text) if col_text else None
    except ValueError:
        print(f"repro query: bad --sink {args.sink!r} "
              f"(expected LINE or LINE:COL)", file=sys.stderr)
        return 2
    store = None
    if args.cache_dir is not None:
        from repro.exec import ArtifactStore
        store = ArtifactStore(args.cache_dir, label=args.file)
    telemetry = Telemetry() if args.telemetry else None
    try:
        session = AnalysisSession(source, settings=_engine_settings(args),
                                  store=store)
    except ValueError as error:  # arity mismatch, recursion
        print(f"repro query: {error}", file=sys.stderr)
        return 2
    _record_loop_telemetry(telemetry, session.pdg.program)
    try:
        verdict = session.query(args.checker, sink=(sink_line, sink_col),
                                def_line=args.def_line,
                                telemetry=telemetry,
                                deadline_s=args.deadline)
    except ValueError as error:
        print(f"repro query: {error}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(verdict.to_payload(), indent=2))
    else:
        state = "feasible (BUG)" if verdict.feasible else \
            "reachable but infeasible" if verdict.reachable else \
            "unreachable"
        print(f"{args.checker} @ line {sink_line}: {state} "
              f"[region {verdict.region_nodes}/{verdict.pdg_nodes} "
              f"nodes, {verdict.candidates} candidate(s), "
              f"{verdict.smt_queries} solve(s)]")
        for finding in verdict.findings:
            if not finding["feasible"]:
                continue
            print(f"[BUG] {finding['source_function']}: "
                  f"{finding['source']}")
            print(f"      -> {finding['sink_function']}: "
                  f"{finding['sink']}")
            if finding.get("witness"):
                pairs = ", ".join(f"{k}={v}" for k, v
                                  in finding["witness"].items())
                print(f"      witness: {pairs}")
    if not _write_telemetry(args, telemetry, collections):
        return 2
    return 1 if verdict.feasible else 0


def _resolve_subject_program(name: str,
                             args: Optional[argparse.Namespace] = None):
    """A registry subject id/name, or a path to a source file.

    When ``args`` carries the shared frontend flags, file subjects
    compile under them and registry subjects are re-generated with their
    spec's loop knobs replaced — so ``--loop-strategy unroll`` means the
    same thing for both subject kinds."""
    import os

    config = _lowering_config(args) if args is not None \
        else LoweringConfig()
    if os.path.exists(name):
        with open(name) as handle:
            return compile_source(handle.read(), config)
    from dataclasses import replace

    from repro.bench.generator import generate_subject
    from repro.bench.subjects import materialize, subject_by_name

    try:
        if args is None:
            return materialize(name).program
        spec = replace(subject_by_name(name).spec,
                       loop_unroll=config.loop_unroll,
                       width=config.width,
                       loop_strategy=config.loop_strategy,
                       loop_paths=config.loop_paths)
        return generate_subject(spec).program
    except KeyError:
        raise SystemExit(
            f"repro analyze: unknown subject {name!r} — not a registry "
            f"subject (see `repro subjects`) and no such file")


def cmd_analyze(args: argparse.Namespace) -> int:
    collections = _collections()
    exec_config, telemetry = _exec_options(args)
    program = _resolve_subject_program(args.subject, args)
    _record_loop_telemetry(telemetry, program)
    pdg = prepare_pdg(program)
    engine = build_engine(args.engine, pdg, want_model=True,
                          query_timeout=args.query_timeout,
                          incremental=args.incremental)
    checker = CHECKER_FACTORIES[args.checker]()
    store = _make_store(args)
    kwargs = {"store": store} if store is not None else {}
    result = engine.analyze(checker, exec_config=exec_config,
                            telemetry=telemetry, **kwargs)

    if args.as_json:
        payload = analysis_payload(result, engine=args.engine,
                                   checker=args.checker,
                                   subject=args.subject, jobs=args.jobs)
        print(json.dumps(payload, indent=2))
    else:
        print(result.summary())
        for report in result.reports:
            if not report.feasible:
                continue
            print(f"[BUG] {args.checker}: "
                  f"{report.source.function}: {report.source.stmt!r}")
            print(f"      -> {report.sink.function}: {report.sink.stmt!r}")
            if report.witness:
                pairs = ", ".join(f"{k}={v}"
                                  for k, v in report.witness.items())
                print(f"      witness: {pairs}")
    if not _write_telemetry(args, telemetry, collections):
        return 2
    return 0 if result.failure is None else 2


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.exec import FaultPlan
    from repro.serve import ServeConfig, run_http, run_stdio

    fault_plan = None
    if args.fault_plan:
        try:
            fault_plan = FaultPlan.parse(args.fault_plan)
        except ValueError as error:
            raise SystemExit(f"repro serve: bad --fault-plan: {error}")
    config = ServeConfig(
        settings=_engine_settings(args),
        workers=args.workers, max_queue=args.max_queue,
        jobs=args.jobs, backend=args.backend,
        cache_root=args.cache_root,
        default_deadline=args.default_deadline,
        fault_plan=fault_plan,
        journal=args.journal,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        watchdog_interval=args.watchdog_interval)
    try:
        if args.stdio:
            asyncio.run(run_stdio(config))
        else:
            print(f"repro serve: listening on "
                  f"http://{args.host}:{args.port} "
                  f"(POST /rpc, GET /telemetry)", file=sys.stderr)
            asyncio.run(run_http(config, args.host, args.port))
    except KeyboardInterrupt:
        pass
    return 0


def cmd_pdg(args: argparse.Namespace) -> int:
    """Per-checker sparsified-view inspection (docs/sparsification.md)."""
    from repro.pdg import build_view, view_to_dot

    program = _resolve_subject_program(args.subject, args)
    pdg = prepare_pdg(program)
    checker_names = args.checker or sorted(CHECKER_FACTORIES)
    if args.dot and len(checker_names) != 1:
        print("repro pdg: --dot needs exactly one --checker",
              file=sys.stderr)
        return 2
    stats = {}
    for name in checker_names:
        view = build_view(pdg, CHECKER_FACTORIES[name]())
        stats[name] = view.stats()
        if args.dot:
            rendered = view_to_dot(view)
            if args.dot == "-":
                print(rendered)
            else:
                with open(args.dot, "w") as handle:
                    handle.write(rendered)
    if args.stats or not args.dot:
        document = {"subject": args.subject, "views": stats}
        loop_stats = getattr(program, "loop_stats", None)
        if loop_stats is not None:
            document["loops"] = loop_stats.as_dict()
        print(json.dumps(document, indent=2))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """PDG well-formedness sanitizer over ``pdg/validate.py``."""
    from repro.pdg.validate import validate_pdg

    try:
        if args.subject == "-":
            program = compile_source(sys.stdin.read(), LoweringConfig())
        else:
            program = _resolve_subject_program(args.subject)
        pdg = prepare_pdg(program)
    except ValueError as error:  # arity mismatch, recursion
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    report = validate_pdg(pdg)
    if args.as_json:
        print(json.dumps({"subject": args.subject, "ok": report.ok,
                          "errors": list(report.errors)}, indent=2))
    elif report.ok:
        stats = pdg.stats()
        print(f"{args.subject}: PDG OK ({stats['vertices']} vertices, "
              f"{stats['data_edges']} data edges, "
              f"{stats['control_edges']} control edges)")
    else:
        for error in report.errors:
            print(f"{args.subject}: {error}")
        print(f"repro lint: {len(report.errors)} violation(s)",
              file=sys.stderr)
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"scan": cmd_scan, "subjects": cmd_subjects,
                "bench": cmd_bench, "query": cmd_query,
                "analyze": cmd_analyze, "serve": cmd_serve,
                "pdg": cmd_pdg, "lint": cmd_lint}
    try:
        return handlers[args.command](args)
    except FRONTEND_ERRORS as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
