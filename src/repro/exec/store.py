"""Persistent, content-addressed artifact store for warm re-analysis.

Fusion's headline economics (Alg. 6) are *compute once, reuse across
queries*; this module extends the reuse across **runs**.  A cold
``repro analyze --cache-dir PATH`` run records, per decided candidate,
the verdict together with the exact inputs the deciding query read.  A
warm run replays every verdict whose recorded inputs are unchanged and
re-solves only the rest, making re-analysis cost proportional to the
diff, not the program.

Key derivation
--------------

Everything is addressed by content, never by position:

* **Function content key** — :func:`repro.lang.fingerprint.function_key`
  over the lowered statements of one function.  Stable across formatting
  and across edits to *other* functions.
* **Interface key** — what a query reads from a callee it never slices:
  the quick-path summary (:mod:`repro.fusion.quickpath`), the parameter
  list, the return variable, and whether the function is defined at all.
  A body edit that leaves these untouched does not invalidate callers.
* **Candidate fingerprint** — the dependence path in *stable
  coordinates*: per step ``(function, statement ordinal within the
  function)`` plus the canonicalised frame structure (first-appearance
  frame numbering, call sites named by their call vertex's stable
  coordinates).  Global vertex indices and frame ids never leak into the
  store.
* **Config fingerprint** — engine name and the solver/sparse/footprint
  knobs that can change a verdict, plus the bit width and the store and
  fingerprint schema versions.

A verdict entry is stored at ``objects/<k[:2]>/<k>.json`` where ``k =
sha256(config || checker || candidate fingerprint)``, and carries its
dependency sets: content keys for the functions the slice actually
touched, interface keys for every other function transitively callable
from them.  An entry replays iff every recorded dependency matches the
current program.  The keys are derived once per program version
(:class:`ProgramIndex`), so binding a run does no disk I/O; the store
holds verdict entries and nothing else.

Corruption policy: every persisted payload carries a sha256 checksum
verified on read.  A file that is torn, truncated, bit-flipped, or
otherwise fails to parse is moved to a ``quarantine/`` subdirectory
(counted, never silently reused, never re-read) and the read degrades
to a cache miss.  A version-mismatched file is an orphan from an older
layout, not corruption: it misses without being quarantined.  An
``OSError`` on read or write (e.g. EIO) is counted and degrades to a
miss / skipped persist.  The store is a pure accelerator; deleting it
(or any subset of it) is always safe, and no store fault may ever crash
the analysis or change a verdict.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.checkers.base import BugCandidate, BugReport
from repro.lang.fingerprint import FINGERPRINT_VERSION, function_key
from repro.lang.ir import Call
from repro.pdg.graph import ProgramDependenceGraph
from repro.pdg.slicing import compute_slice
from repro.exec.telemetry import Telemetry
from repro.smt.solver import DecidedBy, SmtStatus

if TYPE_CHECKING:
    from repro.exec.faults import FaultPlan

#: Store layout version; embedded in every entry and in the config
#: fingerprint, so a layout change orphans (never misreads) old entries.
#: /2 added the per-payload ``sha256`` checksum verified on read.
#: /3: the SAT search seeds input bits first, so /2 witnesses are stale.
STORE_SCHEMA = "repro-exec-store/3"


def _sha(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def seal(record: dict) -> str:
    """``record`` plus the ``sha256`` of its canonical JSON, as canonical
    JSON: the on-disk form of a store entry and of a journal line."""
    return _canonical(dict(record, sha256=_sha(_canonical(record))))


def unseal(text: str) -> Optional[dict]:
    """The record :func:`seal` wrote; None for text that is not a JSON
    object or whose checksum does not match (torn, bit-flipped)."""
    try:
        record = json.loads(text)
    except ValueError:
        return None
    if not isinstance(record, dict):
        return None
    if record.pop("sha256", None) != _sha(_canonical(record)):
        return None
    return record


#: Interface key of a function the program does not define.
ABSENT_INTERFACE = _sha(_canonical({"exists": False}))


def _interface_key(pdg: ProgramDependenceGraph, quickpaths,
                   name: str) -> str:
    """What a query can read from ``name`` without slicing it."""
    fn = pdg.program.functions.get(name)
    if fn is None:
        return ABSENT_INTERFACE
    summary = quickpaths.summary(name)
    ret = pdg.return_vertex(name)
    record = {
        "exists": True,
        "params": [[p.name, p.type.value] for p in fn.params],
        "return": None if ret is None
        else [ret.var.name, ret.var.type.value],
        # Havoc provenance ids are run-local; only the shape matters
        # for the constraints a summary produces.
        "summary": [summary.shape.value, summary.scale,
                    summary.param_index, summary.offset],
    }
    return _sha(_canonical(record))


class ProgramIndex:
    """The store's keys for one program version, derived once per PDG.

    Everything here is a function of the PDG alone, so every bind on
    one version (each ``analyze``, each demand query) shares one
    instance.  :meth:`of` caches it on the PDG (``pdg.store_index``):
    it lives exactly as long as the version it describes, holds no
    reference back to the PDG, and is never pickled into process
    workers.  Keys are over the program the PDG holds, which for a
    recursive program is the unrolled one; its clones (``f%1``, ...) are
    deterministic functions of the source, so their keys are as stable
    as any other function's.

    ``previous`` is the index of the version an edit replaced.  When
    both versions define the same names at the same width, it lends its
    keys: content keys and callee lists for every function that is the
    very same ``Function`` object, and interface keys for every function
    outside the changed functions' transitive callers (a quick-path
    summary reads only its function and its callees' summaries).
    Positions and call-site coordinates are per-PDG and always rebuilt.
    """

    def __init__(self, pdg: ProgramDependenceGraph,
                 previous: Optional["ProgramIndex"] = None) -> None:
        # Imported here: repro.fusion imports the engine skeleton, which
        # imports this package.
        from repro.fusion.quickpath import QuickPathTable

        program = pdg.program
        self.width = program.width
        self.functions = program.functions
        same: set[str] = set()  # names whose Function object both hold
        if previous is not None and previous.width == self.width \
                and previous.functions.keys() == self.functions.keys():
            same = {name for name, fn in self.functions.items()
                    if previous.functions[name] is fn}
        self.content: dict[str, str] = {}
        self.callees: dict[str, tuple[str, ...]] = {}
        for name, fn in self.functions.items():
            if name in same:
                self.content[name] = previous.content[name]
                self.callees[name] = previous.callees[name]
                continue
            self.content[name] = function_key(fn, self.width)
            self.callees[name] = tuple(sorted(
                {s.callee for s in fn.statements()
                 if isinstance(s, Call)}))
        # A new interface key for each changed function and each of its
        # transitive callers; every other function keeps its key.
        fresh = set(self.functions) - same
        if same:
            callers: dict[str, list[str]] = {}
            for name, callees in self.callees.items():
                for callee in callees:
                    callers.setdefault(callee, []).append(name)
            stack = list(fresh)
            while stack:
                for caller in callers.get(stack.pop(), ()):
                    if caller not in fresh:
                        fresh.add(caller)
                        stack.append(caller)
        quickpaths = QuickPathTable(pdg)
        self.interface: dict[str, str] = {
            name: _interface_key(pdg, quickpaths, name) if name in fresh
            else previous.interface[name] for name in self.functions}
        # Stable coordinates: a vertex is (its function, its position
        # in that function); one list slot per vertex index keeps the
        # index small enough to live as long as the PDG.
        self.position: list[Optional[int]] = [None] * pdg.num_vertices
        for name in self.functions:
            for position, vertex in enumerate(pdg.function_vertices(name)):
                self.position[vertex.index] = position
        self.site: dict[int, tuple[str, int]] = {
            site_id: (site.call_vertex.function,
                      self.position[site.call_vertex.index])
            for site_id, site in pdg.callsites.items()}

    @classmethod
    def of(cls, pdg: ProgramDependenceGraph) -> "ProgramIndex":
        """The PDG's index, built on first use.  Two racing first uses
        build equal indexes; either may stay."""
        if pdg.store_index is None:
            pdg.store_index = cls(pdg)
        return pdg.store_index


@dataclass
class StoreRunStats:
    """One run's store activity (mirrored into telemetry's ``store``
    section and exposed for tests via ``ArtifactStore.last_run``)."""

    hits: int = 0                     # entries replayed
    misses: int = 0                   # candidates with no entry
    invalidations: int = 0            # entries present but stale deps
    committed: int = 0                # entries written this run
    corrupt_entries: int = 0          # checksum/parse failures this run
    quarantined: int = 0              # files moved to quarantine/ this run
    io_errors: int = 0                # OSErrors on read/write this run


class ArtifactStore:
    """A cache directory holding verdict entries.

    One instance may serve many runs (and many subjects — entries are
    content-addressed, so runs can never observe each other's artifacts
    except by agreeing on every key component).
    """

    def __init__(self, root: str,
                 fault_plan: Optional["FaultPlan"] = None) -> None:
        self.root = root
        #: Optional fault plan driving the store-I/O injection sites;
        #: read/write ordinals count per store instance, in op order.
        self.fault_plan = fault_plan
        #: Stats of the most recent bound run (diagnostics/tests).
        self.last_run: Optional[StoreRunStats] = None
        self._io_lock = threading.Lock()
        self._read_ops = 0
        self._write_ops = 0
        #: Lifetime integrity counters (see telemetry's ``store`` keys).
        self.integrity: dict[str, int] = {
            "corrupt_entries": 0, "quarantined": 0,
            "read_errors": 0, "write_errors": 0,
        }

    # -- filesystem primitives (corruption == quarantined miss) --------- #

    def _object_path(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:2], f"{key}.json")

    def _count(self, key: str, amount: int = 1) -> None:
        with self._io_lock:
            self.integrity[key] += amount

    def _next_op(self, kind: str) -> int:
        with self._io_lock:
            if kind == "read":
                ordinal, self._read_ops = self._read_ops, self._read_ops + 1
            else:
                ordinal, self._write_ops = (self._write_ops,
                                            self._write_ops + 1)
            return ordinal

    def integrity_snapshot(self) -> dict[str, int]:
        with self._io_lock:
            return dict(self.integrity)

    def _quarantine(self, path: str) -> None:
        """Move a corrupt file out of the lookup path, permanently.

        Quarantined files keep their basename under ``quarantine/`` so
        operators can inspect them, but no read path ever consults that
        directory — a corrupt payload can never be served again.
        """
        try:
            directory = os.path.join(self.root, "quarantine")
            os.makedirs(directory, exist_ok=True)
            os.replace(path, os.path.join(directory,
                                          os.path.basename(path)))
            quarantined = 1
        except OSError:
            # Even the move failing must not crash; try to unlink so the
            # corrupt payload is at least never re-read as valid.
            quarantined = 0
            try:
                os.remove(path)
            except OSError:
                pass
        with self._io_lock:
            self.integrity["corrupt_entries"] += 1
            self.integrity["quarantined"] += quarantined

    def _read_json(self, path: str) -> Optional[dict]:
        """Checksum-verified read; every failure degrades to ``None``.

        Missing file -> plain miss.  ``OSError`` (EIO) -> counted read
        error, miss.  Unparsable payload, non-dict payload, or checksum
        mismatch -> quarantined, counted, miss.
        """
        ordinal = self._next_op("read")
        try:
            if self.fault_plan is not None:
                self.fault_plan.apply_store_read(ordinal)
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return None
        except OSError:
            self._count("read_errors")
            return None
        try:
            payload = unseal(raw.decode("utf-8"))
        except UnicodeDecodeError:
            payload = None
        if payload is None:
            self._quarantine(path)
        return payload

    def _write_json(self, path: str, payload: dict) -> None:
        """Atomic, checksummed, fsynced write; failures degrade to a
        future miss (counted, never raised)."""
        ordinal = self._next_op("write")
        data = seal(payload).encode("utf-8")
        if self.fault_plan is not None:
            data = self.fault_plan.mangle_store_write(ordinal, data)
        try:
            if self.fault_plan is not None:
                self.fault_plan.apply_store_write(ordinal)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError:
            self._count("write_errors")

    def read_entry(self, key: str) -> Optional[dict]:
        entry = self._read_json(self._object_path(key))
        if entry is None or entry.get("schema") != STORE_SCHEMA:
            return None
        return entry

    def write_entry(self, key: str, entry: dict) -> None:
        self._write_json(self._object_path(key), dict(entry,
                                                      schema=STORE_SCHEMA))

    # -- run binding ----------------------------------------------------- #

    def bind(self, pdg: ProgramDependenceGraph, fingerprint: dict,
             checker: str, telemetry: Telemetry) -> "StoreBinding":
        """Prepare one run: look up the program version's keys (derived
        once per PDG, see :class:`ProgramIndex`) and hand back the
        replay/commit hooks the analysis loop calls.  ``telemetry``
        receives the run's store counters at commit."""
        binding = StoreBinding(self, pdg, fingerprint, checker, telemetry)
        self.last_run = binding.stats
        return binding


class StoreBinding:
    """One analysis run's view of the store (see module docstring)."""

    def __init__(self, store: ArtifactStore, pdg: ProgramDependenceGraph,
                 fingerprint: dict, checker: str,
                 telemetry: Telemetry) -> None:
        self.store = store
        self.pdg = pdg
        self.checker = checker
        self.telemetry = telemetry
        self.stats = StoreRunStats()
        self._integrity_base = store.integrity_snapshot()
        self.config_key = _sha(_canonical(dict(
            fingerprint, store_schema=STORE_SCHEMA,
            fingerprint_version=FINGERPRINT_VERSION)))
        self.index = ProgramIndex.of(pdg)
        self._uncacheable: set[int] = set()

    # -- key derivation -------------------------------------------------- #

    def candidate_key(self, candidate: BugCandidate) -> Optional[str]:
        """Entry key of one candidate, or None when the path touches a
        vertex outside any defined function (never the case for paths
        collected over this PDG, but corrupted inputs must miss)."""
        frames: dict[int, int] = {}
        signatures: list[list] = []
        positions = self.index.position
        steps = []
        for step in candidate.path.steps:
            vertex = step.vertex
            position = positions[vertex.index] \
                if vertex.index < len(positions) else None
            canonical = self._canonical_frame(step.frame, frames, signatures)
            if position is None or canonical < 0:
                return None
            steps.append([[vertex.function, position], canonical])
        payload = _canonical({"checker": candidate.checker,
                              "steps": steps, "frames": signatures})
        return _sha(f"{self.config_key}\n{self.checker}\n{payload}")

    def _canonical_frame(self, frame, frames: dict[int, int],
                         signatures: list[list]) -> int:
        """The canonical number of ``frame``, numbering it and its
        unnumbered ancestors outermost first; -2 when its call site is
        not in the index.  A frame under such an ancestor is numbered
        with parent -2 (a loop, not a recursive closure: that would be a
        reference cycle the collector has to find)."""
        chain = []
        while frame is not None and frame.fid not in frames:
            chain.append(frame)
            frame = frame.parent
        canonical = frames[frame.fid] if frame is not None else -1
        sites = self.index.site
        for frame in reversed(chain):
            site = None
            if frame.callsite is not None:
                site = sites.get(frame.callsite)
                if site is None:
                    canonical = -2
                    continue
            parent, canonical = canonical, len(signatures)
            frames[frame.fid] = canonical
            signatures.append([frame.function, site, frame.via_return,
                               parent])
        return canonical

    def dependencies(self, candidate: BugCandidate) -> Optional[dict]:
        """The functions a query for ``candidate`` reads, split into
        content deps (sliced: exact body match required) and interface
        deps (summary-only: quick-path/interface match suffices)."""
        try:
            the_slice = compute_slice(self.pdg, [candidate.path])
        except Exception:
            return None
        index = self.index
        strong = {step.vertex.function for step in candidate.path.steps}
        strong.update(the_slice.needed)
        strong = {fn for fn in strong if fn in index.content}
        weak: set[str] = set()
        worklist = list(strong)
        while worklist:
            for callee in index.callees.get(worklist.pop(), ()):
                if callee in strong or callee in weak:
                    continue
                weak.add(callee)
                worklist.append(callee)
        return {
            "content": {fn: index.content[fn] for fn in sorted(strong)},
            "interface": {fn: index.interface.get(fn, ABSENT_INTERFACE)
                          for fn in sorted(weak)},
        }

    # -- analysis-loop hooks --------------------------------------------- #

    def replay(self, candidates: list[BugCandidate],
               reports: dict[int, BugReport]) -> list[int]:
        """Fill ``reports`` with replayable verdicts; return the indices
        that still need solving (full-list indices, scheduler-ready)."""
        pending: list[int] = []
        for index, candidate in enumerate(candidates):
            key = self.candidate_key(candidate)
            entry = self.store.read_entry(key) if key is not None else None
            if entry is None:
                self.stats.misses += 1
                pending.append(index)
                continue
            if not self._entry_valid(entry):
                self.stats.invalidations += 1
                pending.append(index)
                continue
            report = self._rebuild(candidate, entry)
            if report is None:
                self.stats.invalidations += 1
                pending.append(index)
                continue
            self.stats.hits += 1
            reports[index] = report
        return pending

    def _entry_valid(self, entry: dict) -> bool:
        deps = entry.get("deps")
        if not isinstance(deps, dict):
            return False
        content = deps.get("content")
        interface = deps.get("interface")
        if not isinstance(content, dict) or not isinstance(interface, dict):
            return False
        index = self.index
        for fn, key in content.items():
            if index.content.get(fn) != key:
                return False
        for fn, key in interface.items():
            if index.interface.get(fn, ABSENT_INTERFACE) != key:
                return False
        return True

    @staticmethod
    def _rebuild(candidate: BugCandidate,
                 entry: dict) -> Optional[BugReport]:
        payload = entry.get("report")
        if not isinstance(payload, dict) \
                or not isinstance(payload.get("feasible"), bool):
            return None
        witness = payload.get("witness")
        if not isinstance(witness, dict):
            return None
        try:
            witness = {str(name): int(value)
                       for name, value in witness.items()}
        except (TypeError, ValueError):
            return None
        return BugReport(candidate, payload["feasible"], DecidedBy.STORE,
                         witness=witness)

    def observe(self, index: int, status: SmtStatus) -> None:
        """Record one solved query's status.  UNKNOWN verdicts (solver
        give-ups, timeouts, isolated errors) are circumstantial — they
        depend on machine load and fault injection — so they are never
        persisted; the next run simply re-solves them."""
        if status is SmtStatus.UNKNOWN:
            self._uncacheable.add(index)

    def commit(self, candidates: list[BugCandidate],
               reports: dict[int, BugReport]) -> None:
        """Persist every verdict solved this run."""
        replayed = 0
        for index, report in reports.items():
            if report.decided_by is DecidedBy.STORE:
                replayed += 1
                continue
            if index in self._uncacheable:
                continue
            candidate = candidates[index]
            key = self.candidate_key(candidate)
            if key is None:
                continue
            deps = self.dependencies(candidate)
            if deps is None:
                continue
            self.store.write_entry(key, {
                "deps": deps,
                "report": {
                    "feasible": report.feasible,
                    "decided_in_preprocess":
                        report.decided_by is DecidedBy.PREPROCESS,
                    "witness": dict(report.witness),
                },
            })
            self.stats.committed += 1
        current = self.store.integrity_snapshot()
        base = self._integrity_base
        self.stats.corrupt_entries = (current["corrupt_entries"]
                                      - base["corrupt_entries"])
        self.stats.quarantined = current["quarantined"] - base["quarantined"]
        self.stats.io_errors = (
            (current["read_errors"] - base["read_errors"])
            + (current["write_errors"] - base["write_errors"]))
        self.telemetry.add(
            "store",
            store_hits=self.stats.hits,
            store_misses=self.stats.misses,
            store_invalidations=self.stats.invalidations,
            corrupt_entries=self.stats.corrupt_entries,
            quarantined=self.stats.quarantined,
            io_errors=self.stats.io_errors)
        self.telemetry.add("decided_by", store=replayed)
