"""The engine/driver split: one core consumed by CLI, bench and serve.

Three layers live here:

* **Tables and factories** — :data:`CHECKER_FACTORIES`,
  :data:`ENGINE_CHOICES` and :func:`build_engine`, the one place an
  engine name becomes a configured engine object.  ``repro.cli`` and
  ``repro.bench.runner`` used to carry diverging private copies.
* **Canonical rendering** — :func:`findings_payload` /
  :func:`analysis_payload`, the machine-readable report shape.  The CLI
  (``repro analyze --json``) and the daemon both emit it, which is what
  makes "daemon responses are byte-identical to one-shot ``repro
  analyze``" a testable property (``tests/test_serve_differential.py``).
* **Hot state** — :class:`AnalysisSession`, one program's resident
  analysis state: source text, PDG, a single engine object whose views
  and condition templates stay alive across ``analyze()`` calls, and
  an optional persistent :class:`~repro.exec.store.ArtifactStore` so a
  re-analysis of an unchanged program replays every verdict instead of
  re-solving (``docs/caching.md``).  ``update_source`` recompiles only
  the functions an edit changed.  A changed program gets a fresh PDG and
  a fresh engine (term-manager state never leaks across program
  versions); an unchanged one keeps both.  The store carries over, so
  the next ``analyze`` re-decides only verdicts the edit invalidated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.checkers import DivByZeroChecker, NullDereferenceChecker
from repro.checkers.base import AnalysisResult
from repro.checkers.taint import cwe23_checker, cwe402_checker
from repro.collector import paused
from repro.exec.telemetry import Telemetry
from repro.lang import LoweringConfig
from repro.limits import Budget

CHECKER_FACTORIES = {
    "null-deref": NullDereferenceChecker,
    "cwe-23": cwe23_checker,
    "cwe-402": cwe402_checker,
    "div-zero": DivByZeroChecker,
}

ENGINE_CHOICES = ("fusion", "fusion-unopt", "pinpoint", "pinpoint+lfs",
                  "pinpoint+hfs", "pinpoint+qe", "pinpoint+ar", "infer")


def build_engine(name: str, pdg, *, want_model: bool = False,
                 budget: Optional[Budget] = None):
    """One configured engine object from an engine name.

    ``budget`` bounds the whole run (bench's Memory-Out/timeout
    protocol).  A per-query timeout is not an engine setting: the run's
    ``FaultPolicy.query_timeout`` sets each query's one clock
    (docs/robustness.md).
    """
    from repro.baselines.infer import InferConfig, InferEngine
    from repro.baselines.pinpoint import make_pinpoint
    from repro.fusion import (FusionConfig, FusionEngine,
                              GraphSolverConfig)
    from repro.smt.solver import SolverConfig

    smt = SolverConfig()
    if name in ("fusion", "fusion-unopt"):
        return FusionEngine(pdg, FusionConfig(
            solver=GraphSolverConfig(optimized=(name == "fusion"),
                                     want_model=want_model, solver=smt),
            budget=budget))
    if name == "infer":
        return InferEngine(pdg, InferConfig(budget=budget))
    if name.startswith("pinpoint"):
        variant = name.partition("+")[2].lower()
        return make_pinpoint(pdg, variant, budget=budget, solver=smt)
    raise ValueError(f"unknown engine {name!r}")


def findings_payload(result: AnalysisResult) -> list[dict]:
    """The canonical machine-readable findings list, in report order.

    Key order and value rendering are part of the serve differential
    contract: ``json.dumps`` of this list must be byte-identical whether
    the run happened in a one-shot CLI process or a warm daemon.
    """
    return [
        {
            "feasible": report.feasible,
            "source_function": report.source.function,
            "source": repr(report.source.stmt),
            "sink_function": report.sink.function,
            "sink": repr(report.sink.stmt),
            "witness": report.witness,
        }
        for report in result.reports
    ]


def analysis_payload(result: AnalysisResult, *, engine: str, checker: str,
                     subject: str, jobs: int = 1) -> dict:
    """The full ``repro analyze --json`` document."""
    return {
        "engine": engine,
        "checker": checker,
        "subject": subject,
        "jobs": jobs,
        "summary": result.summary(),
        "findings": findings_payload(result),
    }


#: Settings fields earlier versions journaled, each with the values this
#: version still implements: the triage pass was deleted, sparsified
#: views became unconditional, solver sessions were deleted (they gave
#: the verdicts a fresh solver gives), loops are always unrolled (loop
#: summaries gave the verdicts unrolling gives, at any int path budget),
#: a query's timeout comes from the run's ``FaultPolicy`` alone (no
#: front door set the engine's, so journals carry it unset), and a
#: session always extracts witnesses.  A recovered journal may carry them
#: at those values; any other value declines recovery.
RETIRED_SETTINGS = {"triage": (False,), "sparsify": (True,),
                    "incremental": (True, False),
                    "loop_strategy": ("summaries", "unroll"),
                    "loop_paths": (int,), "query_timeout": (None,),
                    "want_model": (True,)}


def _retired(name: str, value) -> bool:
    """Whether ``value`` is a value :data:`RETIRED_SETTINGS` keeps for
    ``name``: equal and of the same type (a JSON ``1`` is not ``True``),
    or of a kept type."""
    return any(type(value) is kept if isinstance(kept, type)
               else type(value) is type(kept) and value == kept
               for kept in RETIRED_SETTINGS.get(name, ()))


@dataclass(frozen=True)
class EngineSettings:
    """Everything that configures one :class:`AnalysisSession`.

    Frozen: a session's verdicts must stay a pure function of (program,
    settings), so settings can never drift mid-session.  The defaults
    mirror ``repro analyze`` exactly — the serve differential suite
    depends on that.
    """

    engine: str = "fusion"
    loop_unroll: int = 2
    width: int = 8

    def lowering(self) -> LoweringConfig:
        """The front-end config; raises ``ValueError`` on a bad width or
        a negative unroll bound."""
        return LoweringConfig(loop_unroll=self.loop_unroll,
                              width=self.width)

    def to_payload(self) -> dict:
        """JSON-safe field dict (the serve session journal persists it,
        so a recovered session analyses under the exact settings the
        original ran with)."""
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "EngineSettings":
        """Inverse of :meth:`to_payload`; raises ``ValueError`` on
        unknown fields, an unknown engine or a lowering config
        :meth:`lowering` refuses, so a journal written by an
        incompatible version refuses to rehydrate instead of silently
        changing behavior.  :data:`RETIRED_SETTINGS` at a surviving
        value are dropped first."""
        from dataclasses import fields

        payload = {name: value for name, value in payload.items()
                   if not _retired(name, value)}
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown EngineSettings fields {sorted(unknown)!r}")
        settings = cls(**payload)
        if settings.engine not in ENGINE_CHOICES:
            raise ValueError(f"unknown engine {settings.engine!r}")
        settings.lowering()
        return settings


def _same_program(old, new) -> bool:
    """Whether ``new`` holds ``old``'s very functions, in the same order,
    with the same externs: then its PDG is ``old``'s too."""
    return old is not None and old.externs == new.externs \
        and len(old.functions) == len(new.functions) \
        and all(a is b for a, b in zip(old.functions.values(),
                                       new.functions.values()))


class AnalysisSession:
    """One program's hot analysis state (see module docstring).

    ``store`` (an :class:`~repro.exec.store.ArtifactStore` or None) is
    the cross-request/cross-edit warm path; the engine object itself is
    the intra-program warm path (views and condition templates).
    """

    def __init__(self, source: Optional[str] = None, *,
                 settings: Optional[EngineSettings] = None,
                 store=None) -> None:
        self.settings = settings if settings is not None \
            else EngineSettings()
        self.store = store
        self.source: Optional[str] = None
        #: The compiled program (before recursion unrolling).
        self.program = None
        self.pdg = None
        self.engine = None
        #: Bumped on every successful ``update_source``; lets a driver
        #: tag responses with the program version they analysed.
        self.generation = 0
        #: Per-pair demand-verdict memo for the current program version
        #: (cleared on every edit; see :meth:`query`).
        self._query_cache: dict = {}
        #: Line index of the current source
        #: (:class:`repro.query.sites.LineMap`): a query lexes only the
        #: top-level item holding its line, and an item that kept its
        #: text and position keeps its profiles across versions.
        self.lines = None
        #: Compiled functions of the current version
        #: (:class:`repro.lang.frontend.FrontendCache`): an edit parses
        #: and lowers only the functions it changed.  Created by the
        #: first compile.
        self.frontend = None
        if source is not None:
            self.update_source(source)

    @paused
    def update_source(self, source: str) -> None:
        """Swap in a new program version.

        Compilation errors propagate *before* any state is touched, so a
        bad edit never bricks the session — the previous program stays
        analysable.

        Only the functions the edit changed are parsed and lowered (see
        :mod:`repro.lang.frontend`).  When every function compiles to
        the current version's ``Function`` object, in the same order and
        with the same externs, the program is unchanged: the PDG, the
        engine and its views stay.  Otherwise the new PDG walks only the
        changed functions, and when the old version has store keys, the
        new version derives keys only for what the edit changed
        (:class:`repro.exec.store.ProgramIndex`).  The new engine
        rebuilds each per-checker sparse view on first use; it only
        takes over the old views' telemetry counters
        (:meth:`repro.pdg.reduce.ViewRegistry.adopt`).  The line index
        keeps the profiles of every item whose text and position stayed.
        """
        from repro.exec.store import ProgramIndex
        from repro.fusion import prepare_pdg
        from repro.lang.frontend import FrontendCache
        from repro.query.sites import LineMap

        if self.frontend is None:
            self.frontend = FrontendCache(self.settings.lowering())
        program, frontend = self.frontend.compile(source)
        if not _same_program(self.program, program):
            pdg = prepare_pdg(program, self.pdg)
            if self.pdg is not None and self.pdg.store_index is not None:
                pdg.store_index = ProgramIndex(pdg, self.pdg.store_index)
            engine = build_engine(self.settings.engine, pdg, want_model=True)
            old_engine = self.engine
            if getattr(old_engine, "views", None) is not None \
                    and getattr(engine, "views", None) is not None:
                engine.views.adopt(old_engine.views)
            self.program, self.pdg, self.engine = program, pdg, engine
        self.lines = LineMap(source, frontend.items, self.lines)
        self.source, self.frontend = source, frontend
        self._query_cache.clear()
        self.generation += 1

    def analyze(self, checker: str, *, exec_config=None,
                telemetry=None) -> AnalysisResult:
        """Run one checker against the current program version.

        Counters on the result (and the engine's ``query_records``) are
        per-request: engine reuse across calls never leaks a previous
        request's numbers (regression-tested in tests/test_serve.py).
        """
        if self.engine is None:
            raise RuntimeError("AnalysisSession has no program; call "
                               "update_source first")
        factory = CHECKER_FACTORIES.get(checker)
        if factory is None:
            raise ValueError(f"unknown checker {checker!r}")
        return self.engine.analyze(factory(), exec_config=exec_config,
                                   telemetry=telemetry, store=self.store)

    def query(self, checker: str, *, sink, def_line: Optional[int] = None,
              telemetry=None, deadline_s: Optional[float] = None):
        """Demand query: decide one (def site, sink) pair.

        ``sink`` is a 1-based source line or a ``(line, col)`` pair;
        ``def_line`` (optional) restricts the walk to the checker
        sources created on that line.  Returns a
        :class:`~repro.query.Verdict` whose findings are byte-identical
        to the pair's entries in a full :meth:`analyze` — the walk
        reuses the engine's hot views, the artifact store (per-pair
        verdicts replay under the same fingerprint scheme as full runs),
        plus a per-program-version memo so a repeated query costs a
        dictionary lookup.

        Raises ``ValueError`` for an unknown checker, a position that
        resolves to no site, or the infer engine (which has no
        per-candidate solve path to dispatch the pair through).
        """
        from repro.query.engine import cached_verdict, run_demand_query
        from repro.query.sites import resolve_def_sites, resolve_sink_sites

        if self.engine is None:
            raise RuntimeError("AnalysisSession has no program; call "
                               "update_source first")
        if self.settings.engine == "infer":
            raise ValueError("demand queries need a per-candidate solve "
                             "path; the infer baseline has none")
        factory = CHECKER_FACTORIES.get(checker)
        if factory is None:
            raise ValueError(f"unknown checker {checker!r}")
        checker_obj = factory()
        if isinstance(sink, tuple):
            line, col = sink
        else:
            line, col = sink, None
        sink_sites = resolve_sink_sites(self.pdg, self.lines, checker_obj,
                                        line, col)
        if not sink_sites:
            raise ValueError(f"no {checker} sink at line {line}"
                             + (f" col {col}" if col is not None else ""))
        sink_indices = frozenset(v.index for v in sink_sites)
        def_indices = None
        if def_line is not None:
            def_sites = resolve_def_sites(self.pdg, self.lines, checker_obj,
                                          def_line)
            if not def_sites:
                raise ValueError(f"no {checker} source at line "
                                 f"{def_line}")
            def_indices = frozenset(v.index for v in def_sites)

        telemetry = telemetry if telemetry is not None else Telemetry()
        key = (checker, sink_indices, def_indices, deadline_s)
        cached = self._query_cache.get(key)
        if cached is not None:
            verdict = cached_verdict(cached)
            telemetry.add(
                "query", demand_queries=1, region_cache_hits=1,
                region_nodes=verdict.region_nodes,
                region_edges=verdict.region_edges,
                pdg_nodes=verdict.pdg_nodes,
                pdg_edges=verdict.pdg_edges)
            return verdict
        # A memo hit above allocates next to nothing: only a solving
        # query enters the collector pause.
        with paused:
            verdict = run_demand_query(self.engine, checker_obj,
                                       sink_indices, def_indices,
                                       telemetry=telemetry,
                                       store=self.store,
                                       deadline_s=deadline_s)
        self._query_cache[key] = verdict
        return verdict

    def function_names(self) -> list[str]:
        if self.pdg is None:
            return []
        return sorted(self.pdg.program.functions)
