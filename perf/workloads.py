"""The four benchmark workloads: inputs, closed loops and the oracle.

Every program comes from ``repro.bench.generator.generate_subject`` and
reaches the analyzer only as source text.  Verdicts are checked against
the generator's ground-truth labels, never against another analyzer run.

Programs are fixed per workload (pinned generator specs); ``--seed``
drives everything the client chooses: the program order of each pass,
the edit script, and the query order.  The programs are pinned because
solver cost is heavy-tailed across generator seeds: one 2.8k-line
program took 2.9-19.3 s to analyze over eight generator seeds, an
interquartile spread of 59% of the median, which no bound on a
benchmark median could absorb.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import queue
import random
import re
import statistics
import subprocess
import sys
import threading
import time
import traceback
from typing import Iterator, Optional

CHECKERS = ("null-deref", "cwe-23", "cwe-402", "div-zero")
SINK_CALLS = {"null-deref": "deref(", "cwe-23": "fopen(",
              "cwe-402": "send("}
#: Seconds a single daemon reply may take before the run is abandoned.
REPLY_TIMEOUT_S = 120.0


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #

def _spec(name: str, seed: int, functions: int, null_bugs, taint_bugs,
          **knobs):
    from repro.bench.generator import SubjectSpec

    return SubjectSpec(name=name, seed=seed, num_functions=functions,
                       null_bugs=null_bugs, taint23_bugs=taint_bugs,
                       taint402_bugs=taint_bugs, **knobs)


def oneshot_specs() -> list:
    """The four industrial Table-2 subjects, as the registry defines them."""
    from repro.bench.subjects import industrial_subjects

    return [subject.spec for subject in industrial_subjects()]


def scaled_specs() -> list:
    """Two programs at about 3x wine with one feasible bug per checker,
    so the frontend and graph layers carry most of an op."""
    return [_spec(f"scaled-{seed}", seed, 216, (1, 0, 0), (1, 0, 0),
                  layers=6, avg_stmts=12, call_fanout=2, loop_density=0.2)
            for seed in (11, 12)]


def edit_spec():
    return _spec("edit", 21, 80, (3, 2, 2), (2, 1, 1), layers=4,
                 avg_stmts=12, call_fanout=2)


def hover_spec():
    return _spec("hover", 31, 80, (6, 4, 4), (3, 2, 2), layers=4,
                 avg_stmts=12, call_fanout=2)


def generate(spec):
    from repro.bench.generator import generate_subject

    return generate_subject(spec)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def expected_sources(subject, checker: str) -> frozenset:
    """Source functions the labels say a path-sensitive checker reports."""
    return frozenset(bug.source_function for bug in subject.truth_for(checker)
                     if bug.path_feasible)


def function_blocks(source: str) -> dict[str, str]:
    """Each top-level ``fun`` definition's text (generated code closes
    every function with a ``}`` in column 0)."""
    blocks: dict[str, str] = {}
    name, lines = None, []
    for line in source.splitlines():
        if name is None:
            match = re.match(r"fun (\w+)\(", line)
            if match:
                name, lines = match.group(1), [line]
            continue
        lines.append(line)
        if line == "}":
            blocks[name] = "\n".join(lines)
            name = None
    return blocks


class EditScript:
    """A seeded stream of single-function edits.

    Two of every three edits are no-ops on any function (the header line
    gets a new trailing comment: the IR is unchanged, so the store
    replays every verdict).  The third bumps one ``+ N`` literal to
    ``+ N+1`` in a function that a bug guard calls, so it re-decides the
    guarded verdicts; a bump elsewhere may re-decide nothing, and the
    share of such bumps in a short run would swing its cost by seed.  No
    generated guard depends on such a literal, so labels hold for every
    version, and neither kind moves any line.
    """

    def __init__(self, source: str, seed: int) -> None:
        self.rng = random.Random(seed)
        self.functions = function_blocks(source)
        self.names = sorted(self.functions)
        guard_callees = {callee for name, text in self.functions.items()
                         if name.startswith("bug_")
                         for callee in re.findall(r"\b(fn_\w+)\(", text)}
        self.bumpable = sorted(name for name in guard_callees
                               if re.search(r"\+ \d+", self.functions[name]))
        self.count = 0

    def next(self) -> tuple[str, str, str]:
        """(kind, function name, new function text)."""
        self.count += 1
        if self.count % 3 == 0:
            name = self.rng.choice(self.bumpable)
            text = self.functions[name]
            header, _, body = text.partition("\n")
            literals = list(re.finditer(r"\+ (\d+)", body))
            hit = self.rng.choice(literals)
            body = (body[:hit.start(1)] + str(int(hit.group(1)) + 1)
                    + body[hit.end(1):])
            kind = "bump"
        else:
            name = self.rng.choice(self.names)
            text = self.functions[name]
            header, _, body = text.partition("\n")
            header = header.split("  #")[0] + f"  # rev {self.count}"
            kind = "noop"
        self.functions[name] = f"{header}\n{body}"
        return kind, name, self.functions[name]

    @classmethod
    def digest(cls, source: str, seed: int, edits: int = 64) -> str:
        script = cls(source, seed)
        return sha256(json.dumps([script.next() for _ in range(edits)]))


def hover_pairs(subject) -> list[tuple[str, int, bool]]:
    """(checker, 1-based sink line, expected feasible) per labelled bug.

    The sink line is the checker's sink call inside the bug wrapper; a
    null-deref label may name the wrapper's ``_maker`` function instead.
    """
    lines = subject.source.splitlines()
    starts = {match.group(1): number
              for number, line in enumerate(lines)
              for match in [re.match(r"fun (\w+)\(", line)] if match}
    pairs = []
    for bug in subject.ground_truth:
        wrapper = bug.source_function.removesuffix("_maker")
        number = starts[wrapper]
        while SINK_CALLS[bug.checker] not in lines[number]:
            number += 1
        pairs.append((bug.checker, number + 1, bug.path_feasible))
    return pairs


# ---------------------------------------------------------------------- #
# Measurement plumbing
# ---------------------------------------------------------------------- #

@dataclasses.dataclass
class Run:
    """What one measured phase observed."""

    #: (start, end) ``perf_counter`` times of every latency sample.
    ops: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    start: float = 0.0
    end: float = 0.0
    errors: list = dataclasses.field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.end - self.start

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def run_loop(ops: Iterator[bool], seconds: float, run: Run) -> None:
    """Drive a workload's op generator until ``seconds`` have passed.

    Each op yields True at the end of a unit (a pass, an edit cycle, a
    program version), and the loop stops only at unit ends, so every run
    measures the same op mix.  ``seconds == 0`` runs exactly one op.
    """
    run.start = time.perf_counter()
    for unit_end in ops:
        elapsed = time.perf_counter() - run.start
        if seconds == 0 or (unit_end and elapsed >= seconds):
            break
    run.end = time.perf_counter()


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM of a process, in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM in {path}")


def checked_analysis(session, checker: str, expected: frozenset) -> str:
    """Run one checker; an empty string when the verdicts match labels."""
    result = session.analyze(checker)
    if result.failure is not None or result.unknown_queries \
            or result.error_queries:
        return (f"{checker}: failure={result.failure} unknown="
                f"{result.unknown_queries} errors={result.error_queries}")
    found = frozenset(report.source.function for report in result.reports
                      if report.feasible)
    if found != expected:
        return (f"{checker}: reported {sorted(found)}, "
                f"labelled {sorted(expected)}")
    return ""


# ---------------------------------------------------------------------- #
# In-process workloads: oneshot and scaled
# ---------------------------------------------------------------------- #

class ScanWorkload:
    """``repro scan``-style ops in this process: ``AnalysisSession(source)``
    then ``analyze()`` once per checker, with ``repro analyze`` defaults.
    One unit is a pass over every program, in a seeded order."""

    in_process = True

    def __init__(self, specs: list, seed: int) -> None:
        self.specs = specs
        self.seed = seed
        self.subjects: list = []

    def input_hashes(self) -> dict:
        return {subject.name: sha256(subject.source)
                for subject in self.subjects}

    def setup(self, recorder=None) -> None:
        self.subjects = [generate(spec) for spec in self.specs]
        self.rng = random.Random(self.seed)

    def ops(self, run: Run, recorder=None) -> Iterator[bool]:
        from repro.engine import AnalysisSession

        while True:
            order = self.rng.sample(self.subjects, len(self.subjects))
            for position, subject in enumerate(order):
                if recorder is not None:
                    recorder.request = run.attempted
                run.attempted += 1
                started = time.perf_counter()
                try:
                    session = AnalysisSession(subject.source)
                    errors = [checked_analysis(session, checker,
                                               expected_sources(subject,
                                                                checker))
                              for checker in CHECKERS]
                except Exception:  # one failed op; the run goes on
                    errors = [traceback.format_exc(limit=-1).strip()]
                run.ops.append((started, time.perf_counter()))
                problems = [error for error in errors if error]
                if problems:
                    run.fail(f"{subject.name}: {'; '.join(problems)}")
                yield position == len(order) - 1

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------- #
# Daemon workloads: edit and hover
# ---------------------------------------------------------------------- #

class DaemonError(RuntimeError):
    pass


class Daemon:
    """``repro serve --stdio`` as a subprocess, driven by one client."""

    def __init__(self, root: str, work_dir: str,
                 trace_out: Optional[str] = None) -> None:
        os.makedirs(work_dir, exist_ok=True)
        command = [sys.executable, os.path.join(root, "perf", "daemon.py"),
                   "--cache-root", os.path.join(work_dir, "cache")]
        if trace_out is not None:
            command += ["--trace-out", trace_out]
        self.log_path = os.path.join(work_dir, "daemon.log")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(command, cwd=root, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self._log,
                                     text=True, bufsize=1)
        self._replies: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self._next_id = 0
        #: (id, method, start, end) of every request, for the trace.
        self.requests: list[tuple[int, str, float, float]] = []

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._replies.put(line)
        self._replies.put(None)

    def call(self, method: str, **params) -> dict:
        """One request, one reply; raises on an error envelope."""
        self._next_id += 1
        request_id = self._next_id
        line = json.dumps({"jsonrpc": "2.0", "id": request_id,
                           "method": method, "params": params})
        start = time.perf_counter()
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        try:
            reply = self._replies.get(timeout=REPLY_TIMEOUT_S)
        except queue.Empty:
            raise DaemonError(f"{method}: no reply in {REPLY_TIMEOUT_S} s")
        end = time.perf_counter()
        if reply is None:
            raise DaemonError(f"{method}: daemon exited; see "
                              f"{self.log_path}")
        self.requests.append((request_id, method, start, end))
        envelope = json.loads(reply)
        if envelope.get("id") != request_id:
            raise DaemonError(f"{method}: reply for id {envelope.get('id')}")
        if "error" in envelope:
            raise DaemonError(f"{method}: {envelope['error']}")
        return envelope["result"]

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        """Drain and stop the daemon; kill it if it does not stop."""
        try:
            if self.proc.poll() is None:
                self.call("shutdown")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
        except (DaemonError, OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self._reader.join(timeout=5)
            self.proc.stdout.close()
            self._log.close()


def analyze_all(daemon: Daemon, tenant: str, expected: dict,
                delta: bool) -> list[str]:
    """Every checker once; problems found against the label counts."""
    problems = []
    for checker in CHECKERS:
        result = daemon.call("analyze", tenant=tenant, checker=checker,
                             delta=delta)
        counters = result["counters"]
        if result.get("failure") or counters["unknown_queries"] \
                or counters["error_queries"]:
            problems.append(f"{checker}: failure={result.get('failure')} "
                            f"counters={counters}")
        elif counters["bugs"] != expected[checker]:
            problems.append(f"{checker}: {counters['bugs']} bugs, "
                            f"labelled {expected[checker]}")
    return problems


class DaemonWorkload:
    """Shared set-up of ``edit`` and ``hover``: a fresh daemon over a
    fresh cache root, one tenant initialised and fully analysed."""

    in_process = False
    tenant = "bench"

    def __init__(self, spec, seed: int, root: str, work_dir: str) -> None:
        self.spec = spec
        self.seed = seed
        self.root = root
        self.work_dir = work_dir
        self.subject = None
        self.daemon: Optional[Daemon] = None
        self._setups = 0

    def input_hashes(self) -> dict:
        source = self.subject.source
        return {"program": sha256(source),
                "edit_script": EditScript.digest(source, self.seed)}

    def setup(self, recorder=None) -> None:
        self._setups += 1
        self.subject = generate(self.spec)
        self.expected = {checker: len(expected_sources(self.subject,
                                                       checker))
                         for checker in CHECKERS}
        work = os.path.join(self.work_dir, f"daemon-{self._setups}")
        self.trace_out = os.path.join(work, "spans.json") \
            if recorder is not None else None
        self.daemon = Daemon(self.root, work, self.trace_out)
        self.log_path = self.daemon.log_path
        self.daemon.call("initialize", tenant=self.tenant,
                         source=self.subject.source)
        problems = analyze_all(self.daemon, self.tenant, self.expected,
                               delta=False)
        if problems:
            raise DaemonError(f"warm analyze: {'; '.join(problems)}")
        self.edits = EditScript(self.subject.source, self.seed)

    def update(self) -> str:
        kind, function, text = self.edits.next()
        self.daemon.call("update", tenant=self.tenant, function=function,
                         text=text)
        return kind

    def peak_rss_mb(self) -> float:
        return self.daemon.peak_rss_mb()

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.close()
            self.daemon = None


class EditWorkload(DaemonWorkload):
    """The IDE write side: one op sends an ``update`` that splices one
    function, then ``analyze`` with ``delta: true`` for every checker.
    One unit is an edit cycle (two no-op edits and one bump)."""

    def ops(self, run: Run, recorder=None) -> Iterator[bool]:
        #: JSON-RPC ids of the analyze requests of bump edits.
        self.bump_requests: list[int] = []
        while True:
            run.attempted += 1
            started = time.perf_counter()
            first_id = self.daemon._next_id + 1
            try:
                kind = self.update()
                problems = analyze_all(self.daemon, self.tenant,
                                       self.expected, delta=True)
            except DaemonError as error:
                kind, problems = "error", [str(error)]
            run.ops.append((started, time.perf_counter()))
            if kind == "bump":
                self.bump_requests.extend(
                    range(first_id + 1, self.daemon._next_id + 1))
            if problems:
                run.fail("; ".join(problems))
            yield self.edits.count % 3 == 0


class HoverWorkload(DaemonWorkload):
    """The IDE read side: per program version, query every (checker,
    sink line) pair once in a seeded order, re-query a seeded third of
    them (memo hits), then send one ``update``.  One unit is three
    versions, one edit cycle; updates are ops for the error count but
    not latency samples."""

    def ops(self, run: Run, recorder=None) -> Iterator[bool]:
        pairs = hover_pairs(self.subject)
        rng = random.Random(f"queries-{self.seed}")
        while True:
            version = rng.sample(pairs, len(pairs)) \
                + rng.sample(pairs, len(pairs) // 3)
            for checker, line, feasible in version:
                run.attempted += 1
                started = time.perf_counter()
                try:
                    result = self.daemon.call("query", tenant=self.tenant,
                                              checker=checker, sink=line)
                except DaemonError as error:
                    result = {"error": str(error)}
                run.ops.append((started, time.perf_counter()))
                if result.get("feasible") is not feasible \
                        or result.get("unknown_queries"):
                    run.fail(f"{checker} line {line}: {result}")
                yield False
            run.attempted += 1
            try:
                self.update()
            except DaemonError as error:
                run.fail(str(error))
            yield self.edits.count % 3 == 0


def make_workload(name: str, seed: int, root: str, work_dir: str):
    if name == "oneshot":
        return ScanWorkload(oneshot_specs(), seed)
    if name == "scaled":
        return ScanWorkload(scaled_specs(), seed)
    if name == "edit":
        return EditWorkload(edit_spec(), seed, root, work_dir)
    if name == "hover":
        return HoverWorkload(hover_spec(), seed, root, work_dir)
    raise ValueError(f"unknown workload {name!r}")


def percentile(values: list, q: float) -> float:
    """The q-th percentile (0 < q < 100), interpolating between ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q) - 1]
