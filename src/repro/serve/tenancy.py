"""Per-tenant session state and cache namespacing.

Each tenant owns one :class:`~repro.engine.AnalysisSession` (hot PDG,
engine with its views and templates) plus a *namespaced* artifact store:
tenant ``t``'s store lives under ``<cache_root>/tenants/<digest(t)>``
and is labelled with the tenant name.  Nothing any tenant pushes can
reach another tenant's store directory — isolation holds at the
filesystem layer, not just at key-derivation (the soak suite asserts no
cross-tenant bleed under concurrent interleaved edits).

Mutations to one tenant are serialized by a per-tenant asyncio lock
(held across the executor hop), while different tenants' requests run
concurrently on the daemon's worker threads.

LSP-style incremental edits are supported by :func:`splice_function`:
the client pushes one changed function definition and the daemon
rewrites only that span of the held source.  The artifact store's
content-addressed keys then confine re-solving to the verdicts the edit
actually invalidated.

Crash recovery (see :mod:`repro.serve.journal`): when journaling is on,
every accepted program version is appended to the tenant's session
journal, and :meth:`TenantRegistry.get` *lazily rehydrates* an unknown
tenant from its journal before giving up — a restarted daemon serves
``analyze`` for a journaled tenant as if it never died, replaying
verdicts from the tenant's (untouched) artifact store.

Each tenant also owns a :class:`~repro.exec.breaker.CircuitBreaker`:
poison-group state survives across requests and edits, but never leaks
across tenants.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import re
from typing import Optional

from repro.engine import AnalysisSession, EngineSettings
from repro.exec import ArtifactStore, CircuitBreaker, FaultPlan, Telemetry
from repro.lang.scan import block_end, mask_comments
from repro.serve.journal import JOURNAL_BASENAME, SessionJournal
from repro.serve.protocol import (COMPILE_ERROR, INVALID_PARAMS,
                                  UNKNOWN_TENANT, ServeError)


def splice_function(source: str, name: str, text: str) -> str:
    """Replace the definition of ``name`` in ``source`` with ``text``.

    ``text`` must be a complete ``fun name(...) { ... }`` definition.
    An unknown name *appends* the definition (how a client adds a new
    function); a name mismatch between ``name`` and ``text`` is an
    error, so a typo cannot silently orphan the old definition.

    The header search and the brace scan both read the comment-masked
    text (:mod:`repro.lang.scan`): the lexer accepts ``#``/``//`` line
    comments, so a brace or a ``fun`` header inside one is prose, not
    structure.
    """
    header = re.search(r"\bfun\s+(\w+)\s*\(", mask_comments(text))
    if header is None or header.group(1) != name:
        raise ServeError(INVALID_PARAMS,
                         f"edit text must define function {name!r}")
    masked = mask_comments(source)
    match = re.search(rf"\bfun\s+{re.escape(name)}\s*\(", masked)
    if match is None:
        sep = "" if source.endswith("\n") else "\n"
        return f"{source}{sep}{text.strip()}\n"
    open_brace = masked.find("{", match.end())
    if open_brace < 0:
        raise ServeError(COMPILE_ERROR,
                         f"held source is malformed at function {name!r}")
    end = block_end(masked, open_brace)
    if end < 0:
        raise ServeError(COMPILE_ERROR,
                         f"unbalanced braces in function {name!r}")
    return source[:match.start()] + text.strip() + source[end:]


class TenantSession:
    """One tenant's resident analysis state."""

    def __init__(self, name: str, session: AnalysisSession,
                 store_root: Optional[str],
                 journal: Optional[SessionJournal] = None,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        self.name = name
        self.session = session
        self.store_root = store_root
        #: Session journal (None when journaling is off or storeless).
        self.journal = journal
        #: Poison-group circuit breaker; survives requests and edits.
        self.breaker = breaker
        #: Serializes mutations (initialize/update/analyze) per tenant;
        #: created lazily so the registry can be built outside a loop.
        self.lock = asyncio.Lock()


class TenantRegistry:
    """All resident tenants, plus the store-namespace layout."""

    def __init__(self, cache_root: Optional[str],
                 settings: EngineSettings, *,
                 telemetry: Telemetry,
                 journal: bool = True,
                 fault_plan: Optional[FaultPlan] = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 30.0) -> None:
        self.cache_root = cache_root
        self.settings = settings
        self.telemetry = telemetry
        #: Journaling needs a store dir to live in; without a cache root
        #: there is nowhere durable, so the flag degrades to off.
        self.journal_enabled = journal and cache_root is not None
        self.fault_plan = fault_plan
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self._tenants: dict[str, TenantSession] = {}

    def _store_for(self, tenant: str) -> tuple[Optional[ArtifactStore],
                                               Optional[str]]:
        if self.cache_root is None or self.settings.engine == "infer":
            return None, None
        digest = hashlib.sha256(tenant.encode()).hexdigest()[:24]
        root = os.path.join(self.cache_root, "tenants", digest)
        return ArtifactStore(root, fault_plan=self.fault_plan), root

    def _make_breaker(self) -> Optional[CircuitBreaker]:
        if self.breaker_threshold <= 0:
            return None
        return CircuitBreaker(threshold=self.breaker_threshold,
                              cooldown=self.breaker_cooldown)

    def _journal_for(self, root: Optional[str],
                     tenant: str) -> Optional[SessionJournal]:
        if not self.journal_enabled or root is None:
            return None
        return SessionJournal(root, tenant)

    def journal_source(self, entry: TenantSession) -> None:
        """Append the entry's current program version to its journal
        (called after every accepted initialize/update)."""
        journal = entry.journal
        session = entry.session
        if journal is None or session.source is None:
            return
        compactions_before = journal.compactions
        journal.record_source(session.generation, session.source,
                              session.settings.to_payload())
        self.telemetry.add(
            "serve", journal_records=1,
            journal_compactions=journal.compactions - compactions_before)

    def create(self, tenant: str, source: str) -> TenantSession:
        """Create (or re-initialize) a tenant from full source text.

        Compilation failures leave any existing session untouched."""
        existing = self._tenants.get(tenant)
        if existing is not None:
            existing.session.update_source(source)
            self.journal_source(existing)
            return existing
        store, root = self._store_for(tenant)
        session = AnalysisSession(source, settings=self.settings,
                                  store=store)
        entry = TenantSession(tenant, session, root,
                              journal=self._journal_for(root, tenant),
                              breaker=self._make_breaker())
        self._tenants[tenant] = entry
        self.journal_source(entry)
        return entry

    def get(self, tenant: str) -> TenantSession:
        entry = self._tenants.get(tenant)
        if entry is None:
            entry = self._recover(tenant)
        if entry is None:
            raise ServeError(UNKNOWN_TENANT,
                             f"unknown tenant {tenant!r}; initialize it "
                             f"first")
        return entry

    def _recover(self, tenant: str) -> Optional[TenantSession]:
        """Lazily rehydrate one tenant from its session journal.

        Any defect — no journal, corrupt records, settings from an
        incompatible version, source that no longer compiles — makes
        recovery decline (the caller reports UNKNOWN_TENANT and the
        client re-initializes); it never crashes the daemon.
        """
        if not self.journal_enabled:
            return None
        store, root = self._store_for(tenant)
        journal = self._journal_for(root, tenant)
        if journal is None:
            return None
        state = journal.load()
        if state is None or state.tenant != tenant:
            return None
        try:
            settings = EngineSettings.from_payload(state.settings)
            session = AnalysisSession(state.source, settings=settings,
                                      store=store)
        except Exception:
            return None
        # The journaled generation, not the rebuild's 1: responses after
        # recovery carry the same program version the client last saw.
        session.generation = state.generation
        entry = TenantSession(tenant, session, root, journal=journal,
                              breaker=self._make_breaker())
        self._tenants[tenant] = entry
        self.telemetry.add(
            "serve", sessions_recovered=1,
            recoveries_clean=1 if state.clean else 0,
            recoveries_crash=0 if state.clean else 1)
        return entry

    def recoverable(self) -> list[str]:
        """Journaled tenant names not currently resident (the ``tenants``
        method reports them so clients can tell a cold daemon from an
        amnesiac one)."""
        if not self.journal_enabled or self.cache_root is None:
            return []
        tenants_dir = os.path.join(self.cache_root, "tenants")
        names: list[str] = []
        try:
            entries = sorted(os.listdir(tenants_dir))
        except OSError:
            return []
        for digest in entries:
            root = os.path.join(tenants_dir, digest)
            if not os.path.exists(os.path.join(root, JOURNAL_BASENAME)):
                continue
            state = SessionJournal(root, digest).load()
            if state is None or state.tenant in self._tenants:
                continue
            names.append(state.tenant)
        return sorted(names)

    def mark_clean_shutdown(self) -> None:
        """Write every resident tenant's clean-shutdown marker (drained
        shutdown only — a crash, by definition, never gets here)."""
        for entry in self._tenants.values():
            if entry.journal is not None \
                    and entry.session.source is not None:
                entry.journal.record_clean_shutdown(
                    entry.session.generation)

    def open_breaker_groups(self) -> int:
        """Currently-open poison groups across every resident tenant
        (the serve ``breaker.open_groups`` gauge)."""
        return sum(entry.breaker.open_count()
                   for entry in self._tenants.values()
                   if entry.breaker is not None)

    @property
    def alive(self) -> int:
        return len(self._tenants)

    def names(self) -> list[str]:
        return sorted(self._tenants)
