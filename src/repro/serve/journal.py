"""Durable per-tenant session journal for crash-only serving.

A ``repro serve`` daemon holds each tenant's :class:`AnalysisSession`
in memory; without a journal a restart (crash or deploy) loses every
session and clients must re-``initialize`` from scratch.  The journal
makes sessions durable: every accepted program version appends one
record — tenant name, generation, full source text, the frozen
:class:`~repro.engine.EngineSettings` payload — to
``<tenant store dir>/journal.jsonl``.  On restart, the first request
naming an unknown tenant triggers *lazy rehydration*: the registry
reads the journal, recompiles the recorded source under the recorded
settings, and re-binds the tenant's (untouched, warm) artifact store —
so the recovered tenant's next ``analyze`` replays every verdict with
zero SMT queries and byte-identical reports.

Durability discipline:

* **Atomic append** — one record per line, ``write + flush + fsync``.
  A record is either fully on disk or not; a torn tail line fails its
  checksum and is skipped on load (the previous record wins).
* **Checksummed, schema-versioned records** — each line carries a
  sha256 over its canonical payload and the journal schema id; any
  line that fails to parse, verify, or match the schema is skipped,
  never trusted, never fatal.
* **Compaction** — only the newest ``source`` record matters, so once
  the file accumulates :data:`COMPACT_THRESHOLD` records it is
  rewritten to a single record via write-to-temp + ``fsync`` +
  ``os.replace`` (fsync-before-rename: the rename is only durable
  after the data is).
* **Clean-shutdown marker** — a drained shutdown appends a
  ``clean_shutdown`` record (and compacts), so a restart can tell a
  crash from a deploy and telemetry counts them separately.

The journal is an accelerator with a soft failure mode: any
``OSError`` while appending is swallowed (counted by the caller) — a
full disk degrades recovery, never serving.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.exec.store import seal, unseal

#: Journal layout version; a record with any other schema is skipped.
JOURNAL_SCHEMA = "repro-serve-journal/1"

#: Appended records before the journal is rewritten to one record.
COMPACT_THRESHOLD = 16

JOURNAL_BASENAME = "journal.jsonl"


def _unseal(line: str) -> Optional[dict]:
    """Parse and verify one journal line; None for anything torn,
    truncated, bit-flipped, or from another schema."""
    record = unseal(line)
    if record is None or record.get("schema") != JOURNAL_SCHEMA:
        return None
    return record


@dataclass(frozen=True)
class JournalState:
    """What a journal load recovers: the newest durable program version
    and whether a clean-shutdown marker covers it."""

    tenant: str
    generation: int
    source: str
    settings: dict
    clean: bool
    records_read: int
    records_skipped: int


class SessionJournal:
    """The journal file of one tenant's store directory."""

    def __init__(self, store_root: str, tenant: str) -> None:
        self.store_root = store_root
        self.tenant = tenant
        self.path = os.path.join(store_root, JOURNAL_BASENAME)
        #: Lifetime counters (folded into serve telemetry by the owner).
        self.appended = 0
        self.compactions = 0
        self.write_errors = 0
        self._records_since_compact: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def record_source(self, generation: int, source: str,
                      settings: dict) -> None:
        """Append one accepted program version; compacts when the file
        has accumulated enough superseded records."""
        self._append({
            "schema": JOURNAL_SCHEMA, "kind": "source",
            "tenant": self.tenant, "generation": generation,
            "source": source, "settings": settings,
        })
        if self._count_records() >= COMPACT_THRESHOLD:
            self.compact()

    def record_clean_shutdown(self, generation: int) -> None:
        """Append the clean-shutdown marker and compact, so a drained
        restart reads one source record plus one marker."""
        self.compact()
        self._append({
            "schema": JOURNAL_SCHEMA, "kind": "clean_shutdown",
            "tenant": self.tenant, "generation": generation,
        })

    def _append(self, record: dict) -> None:
        line = seal(record) + "\n"
        try:
            os.makedirs(self.store_root, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            self.write_errors += 1
            return
        self.appended += 1
        if self._records_since_compact is not None \
                and record.get("kind") == "source":
            self._records_since_compact += 1

    def _count_records(self) -> int:
        """Intact ``source`` records currently in the file.

        Only source records supersede one another, so only they count
        toward the compaction threshold — markers, blank lines and
        corrupt garbage must not advance the cadence (they used to,
        which made it drift after every clean-shutdown/restart cycle).
        """
        if self._records_since_compact is None:
            count = 0
            try:
                with open(self.path, "r", encoding="utf-8") as handle:
                    for line in handle:
                        line = line.strip()
                        if not line:
                            continue
                        record = _unseal(line)
                        if record is not None \
                                and record.get("kind") == "source":
                            count += 1
            except OSError:
                pass
            self._records_since_compact = count
        return self._records_since_compact

    def compact(self) -> None:
        """Rewrite the journal to its newest source record, atomically
        (write temp, fsync, rename)."""
        state = self.load()
        if state is None:
            return
        record = {
            "schema": JOURNAL_SCHEMA, "kind": "source",
            "tenant": self.tenant, "generation": state.generation,
            "source": state.source, "settings": state.settings,
        }
        tmp = f"{self.path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(seal(record) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        except OSError:
            self.write_errors += 1
            return
        self.compactions += 1
        self._records_since_compact = 1

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def load(self) -> Optional[JournalState]:
        """The newest durable program version, or None when the journal
        is absent or holds no intact source record."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError:
            return None
        newest: Optional[dict] = None
        clean_generation = -1
        read = 0
        skipped = 0
        for line in lines:
            line = line.strip()
            if not line:
                continue
            record = _unseal(line)
            if record is None:
                skipped += 1
                continue
            read += 1
            kind = record.get("kind")
            if kind == "source":
                if isinstance(record.get("source"), str) \
                        and isinstance(record.get("settings"), dict) \
                        and isinstance(record.get("generation"), int):
                    newest = record
            elif kind == "clean_shutdown":
                generation = record.get("generation")
                if isinstance(generation, int):
                    clean_generation = max(clean_generation, generation)
        if newest is None:
            return None
        return JournalState(
            tenant=str(newest.get("tenant", self.tenant)),
            generation=newest["generation"],
            source=newest["source"],
            settings=newest["settings"],
            clean=clean_generation >= newest["generation"],
            records_read=read,
            records_skipped=skipped)

    def exists(self) -> bool:
        return os.path.exists(self.path)


__all__ = ["SessionJournal", "JournalState", "JOURNAL_SCHEMA",
           "JOURNAL_BASENAME", "COMPACT_THRESHOLD"]
