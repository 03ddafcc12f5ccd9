"""Per-function frontend cache: an edit recompiles what it changed.

A hot session (``repro.engine.AnalysisSession``) compiles every program
version through one :class:`FrontendCache`.  The source is cut into its
top-level items (:func:`repro.lang.scan.top_level_items`), and each
function is looked up by its *key*: its text with comments masked and
line-end blanks stripped, so equal keys lex to equal tokens.  IR carries
no source positions, so a function that only moved lowers to the same IR
and its key leaves the position out.

An entry holds what compiling its function produced: the name, the
:class:`~repro.lang.lowering.ReturnSummary` that return-type inference
reads, the lowered :class:`~repro.lang.ir.Function` and the externs the
lowering added.  It also records each callee the lowering read, with
the return type and arity it used (None for a callee that was not
defined, i.e. an extern).  A version then compiles as follows:

1. Functions whose key misses are parsed, alone, at their real line.
2. Return types are inferred over the summaries of every function, hit
   or miss, so no AST has to be kept.
3. An entry is reused only if each recorded callee still has the
   recorded status, return type and arity.  Otherwise the function is
   parsed (if step 1 did not) and lowered again, so a changed return
   type or parameter list re-lowers its callers.

When every function hits, the result holds the very ``Function`` objects
of the previous version, and the session can tell by identity that the
program is unchanged.

Errors stay those of a cold compile: any frontend error on this path
(a source the scan cannot cut, a lex, parse or lowering error) re-runs
the whole-module
:func:`~repro.lang.lowering.compile_source`, which raises exactly what
it raises without a cache.  :meth:`compile` never mutates its cache.
It returns a successor that holds only the entries the new version
uses, and a caller that rejects the version drops it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.lang.ast_nodes import FunctionDecl
from repro.lang.ir import Function, Program, VarType
from repro.lang.lexer import LexError
from repro.lang.lowering import (LoweringConfig, LoweringError,
                                 ReturnSummary, _FunctionLowering,
                                 compile_source, infer_return_types,
                                 return_summary)
from repro.lang.parser import ParseError, parse
from repro.lang.scan import TopLevelItem, top_level_items


class _Entry(NamedTuple):
    name: str
    returns: ReturnSummary
    function: Function
    #: (callee, (return type, arity) the lowering used), None: extern.
    callees: tuple[tuple[str, Optional[tuple[VarType, int]]], ...]
    #: Callees the lowering added to ``Program.externs``, in call order.
    externs: tuple[str, ...]


class FrontendCache:
    """Compiled functions of one program version, by key (see module
    docstring).  ``config`` is fixed for the cache's lifetime."""

    def __init__(self, config: Optional[LoweringConfig] = None,
                 entries: Optional[dict[str, _Entry]] = None) -> None:
        self.config = config if config is not None else LoweringConfig()
        self._entries = entries if entries is not None else {}
        #: Functions the compile that made this cache parsed / lowered.
        self.parsed: tuple[str, ...] = ()
        self.lowered: tuple[str, ...] = ()
        #: The compiled source's top-level items, None if the compile
        #: that made this cache could not cut it (site resolution,
        #: :class:`repro.query.sites.LineMap`, indexes them one by one).
        self.items: Optional[list[TopLevelItem]] = None

    def __len__(self) -> int:
        return len(self._entries)

    def compile(self, source: str) -> tuple[Program, "FrontendCache"]:
        """``source`` compiled, and the cache for the next version.

        The program equals ``compile_source(source, config)``; errors are
        those of that call."""
        try:
            return self._compile(source)
        except (LexError, ParseError, LoweringError, ValueError,
                RecursionError):
            return (compile_source(source, self.config),
                    FrontendCache(self.config))

    def _compile(self, source: str) -> tuple[Program, "FrontendCache"]:
        config = self.config
        program = Program(width=config.width)
        # (item, name, return summary, cached entry, parsed declaration)
        pending: list[tuple[TopLevelItem, str, ReturnSummary,
                            Optional[_Entry], Optional[FunctionDecl]]] = []
        parsed: list[str] = []
        items = top_level_items(source)
        for item in items:
            if item.kind == "extern":
                program.externs.update(
                    decl.name for decl in _parse(source, item).externs)
                continue
            entry = self._entries.get(item.key)
            if entry is not None:
                pending.append((item, entry.name, entry.returns, entry,
                                None))
                continue
            decl = _parse_function(source, item)
            parsed.append(decl.name)
            pending.append((item, decl.name, return_summary(decl), None,
                            decl))
        return_types = infer_return_types(
            [(name, returns) for _, name, returns, _, _ in pending])
        signatures = {name: (return_types[name],
                             len(entry.function.params if decl is None
                                 else decl.params))
                      for _, name, _, entry, decl in pending}

        entries: dict[str, _Entry] = {}
        lowered: list[str] = []
        for item, name, returns, entry, decl in pending:
            if entry is not None and all(signatures.get(callee) == used
                                         for callee, used in entry.callees):
                program.externs.update(entry.externs)
            else:
                if decl is None:
                    decl = _parse_function(source, item)
                    parsed.append(name)
                entry = self._lower(decl, returns, signatures,
                                    program.externs)
                lowered.append(name)
            program.add(entry.function)
            entries[item.key] = entry
        successor = FrontendCache(config, entries)
        successor.parsed, successor.lowered = tuple(parsed), tuple(lowered)
        successor.items = items
        return program, successor

    def _lower(self, decl: FunctionDecl, returns: ReturnSummary,
               signatures: dict[str, tuple[VarType, int]],
               externs: set[str]) -> _Entry:
        lowering = _FunctionLowering(decl, self.config, signatures, externs)
        function = lowering.run()
        callees = tuple(lowering.callees.items())
        return _Entry(
            decl.name, returns, function, callees,
            tuple(callee for callee, used in callees if used is None))


def _parse(source: str, item: TopLevelItem):
    """Parse one item alone, at its real line and column."""
    text = " " * (item.column - 1) + source[item.start:item.end]
    return parse(text, item.line)


def _parse_function(source: str, item: TopLevelItem) -> FunctionDecl:
    (decl,) = _parse(source, item).functions
    return decl
