"""Map source positions to PDG vertices for demand queries.

IR statements carry no source locations — only tokens do — so a demand
query's ``--sink LINE[:COL]`` / ``--def LINE`` coordinates are resolved
through a line index built by a token pass: the enclosing function is
tracked via ``fun`` headers and brace depth, and the names mentioned on
the target line (callees and assignment targets) are matched against
that function's vertices.  A hot session does not lex its whole source
for that: :class:`LineMap` lexes only the top-level item that holds the
line, and carries an item's profiles to the next program version while
the item's text and position stay.  Loop unrolling and recursion
cloning duplicate a source line into several vertices (``x`` vs
``x.1``, ``f`` vs ``f%1``); a site deliberately resolves to *all* of
them, so the demand walk sees exactly the candidates a full analysis
would report for the line.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

from repro.checkers.base import Checker
from repro.lang.ir import Call
from repro.lang.lexer import Token, TokenKind, tokenize
from repro.lang.scan import TopLevelItem
from repro.pdg.graph import ProgramDependenceGraph, Vertex


@dataclass
class LineProfile:
    """What one source line mentions, and where it lives."""

    line: int
    #: Source-level name of the enclosing function (None at top level).
    function: Optional[str] = None
    #: Names called on the line (``IDENT (`` sequences, including the
    #: name in a ``fun`` header).
    called: list[str] = field(default_factory=list)
    #: Names assigned on the line (``IDENT =`` sequences).
    defined: list[str] = field(default_factory=list)
    #: Columns of the called names, parallel to ``called``.
    called_cols: list[int] = field(default_factory=list)


def line_index(source: str, first_line: int = 1) -> dict[int, LineProfile]:
    """Profile every line of ``source`` that holds a token, in one pass.

    A line missing from the index (blank or comment-only) mentions
    nothing; :func:`resolve_sink_sites` and :func:`resolve_def_sites`
    read it as ``LineProfile(line)``.  ``first_line`` numbers the first
    line of ``source`` (:class:`LineMap` indexes one item at its real
    line).
    """
    index: dict[int, LineProfile] = {}
    current: Optional[str] = None
    pending: Optional[str] = None
    after_fun = False
    depth = 0
    # An identifier waiting for the next token to say whether it is
    # called or assigned, with the profile of its line.
    waiting: Optional[tuple[Token, LineProfile]] = None
    for token in tokenize(source, first_line):
        kind = token.kind
        if waiting is not None:
            name, profile = waiting
            if kind is TokenKind.LPAREN:
                profile.called.append(name.text)
                profile.called_cols.append(name.loc.column)
            elif kind is TokenKind.OP and token.text == "=":
                profile.defined.append(name.text)
            waiting = None
        if kind is TokenKind.KEYWORD and token.text == "fun":
            after_fun = True
        elif after_fun and kind is TokenKind.IDENT:
            pending, after_fun = token.text, False
        elif kind is TokenKind.LBRACE:
            if depth == 0 and pending is not None:
                current, pending = pending, None
            depth += 1
        elif kind is TokenKind.RBRACE:
            depth -= 1
            if depth <= 0:
                current, depth = None, 0
        line = token.loc.line
        profile = index.get(line)
        if profile is None:
            profile = index[line] = LineProfile(line)
        if profile.function is None:
            profile.function = current
        if kind is TokenKind.IDENT and not after_fun:
            waiting = (token, profile)
    return index


class _Run(NamedTuple):
    """Top-level items lexed together: each after the first starts on
    the line where the one before it ends."""

    first: int  # line of the first item
    last: int  # line where the last item ends
    start: int  # source offset of the first item
    end: int  # source offset just past the last item
    column: int  # column of the first item
    #: (key, line, column) of each item: equal keys lex to equal tokens,
    #: so equal runs have equal profiles.
    key: tuple


class LineMap:
    """The line index of one program version, built one top-level item
    at a time.

    ``items`` are the source's top-level items
    (:func:`repro.lang.scan.top_level_items`, which
    :class:`repro.lang.frontend.FrontendCache` keeps), or None for a
    source the scan could not cut: then the first lookup lexes the whole
    source.  Otherwise a lookup lexes only the run of items that holds
    its line (items sharing a source line are lexed together), at its
    real line and column.  A run of ``previous`` (the map of the version
    before) whose items kept their keys, lines and columns hands its
    profiles over unbuilt.  :meth:`get` answers as
    ``line_index(source).get`` does.
    """

    def __init__(self, source: str,
                 items: Optional[Sequence[TopLevelItem]],
                 previous: Optional["LineMap"] = None) -> None:
        self._source = source
        self._whole: Optional[dict[int, LineProfile]] = None
        self._runs: Optional[list[_Run]] = None
        self._firsts: list[int] = []
        self._built: dict[tuple, dict[int, LineProfile]] = {}
        if items is None:
            return
        runs: list[_Run] = []
        for item in items:
            last = item.line + source.count("\n", item.start, item.end)
            ident = (item.key, item.line, item.column)
            if runs and runs[-1].last == item.line:
                run = runs[-1]
                runs[-1] = run._replace(last=last, end=item.end,
                                        key=run.key + (ident,))
            else:
                runs.append(_Run(item.line, last, item.start, item.end,
                                 item.column, (ident,)))
        self._runs = runs
        self._firsts = [run.first for run in runs]
        if previous is not None and previous._built:
            built = previous._built
            self._built = {run.key: built[run.key] for run in runs
                           if run.key in built}

    def get(self, line: int,
            default: Optional[LineProfile] = None) -> Optional[LineProfile]:
        """The profile of ``line``, or ``default`` for a line that holds
        no token."""
        if self._runs is None:
            if self._whole is None:
                self._whole = line_index(self._source)
            return self._whole.get(line, default)
        at = bisect_right(self._firsts, line) - 1
        if at < 0 or line > self._runs[at].last:
            return default
        run = self._runs[at]
        profiles = self._built.get(run.key)
        if profiles is None:
            text = " " * (run.column - 1) + self._source[run.start:run.end]
            profiles = self._built[run.key] = line_index(text, run.first)
        return profiles.get(line, default)


def _same_function(vertex_function: str, source_name: str) -> bool:
    """Recursion unrolling clones ``f`` into ``f%1``, ``f%2``, ...; a
    source-level function name matches every clone."""
    return vertex_function == source_name \
        or vertex_function.startswith(source_name + "%")


def _base_var(name: str) -> str:
    """SSA lowering versions reassignments as ``x``, ``x.1``, ...; the
    base name is what the source line spells."""
    return name.partition(".")[0]


def _line_vertices(pdg: ProgramDependenceGraph,
                   profile: LineProfile) -> list[Vertex]:
    """Vertices of the enclosing function that the line's names select:
    calls by callee, other statements by assigned variable."""
    if profile.function is None:
        return []
    called = set(profile.called)
    defined = set(profile.defined)
    matched = []
    for function in pdg.functions():
        if not _same_function(function, profile.function):
            continue
        for vertex in pdg.function_vertices(function):
            stmt = vertex.stmt
            if isinstance(stmt, Call) and stmt.callee in called:
                matched.append(vertex)
            elif defined and _base_var(stmt.result.name) in defined:
                matched.append(vertex)
    return matched


def resolve_sink_sites(pdg: ProgramDependenceGraph,
                       index: dict[int, LineProfile] | LineMap,
                       checker: Checker, line: int,
                       col: Optional[int] = None) -> list[Vertex]:
    """Vertices completing the checker's bug pattern at ``line``.

    A vertex qualifies when the line selects it *and* it receives at
    least one sink edge.  ``col`` narrows a line with several calls to
    the one whose callee token covers (or starts nearest after) the
    column.  ``index`` is the source's :func:`line_index` or
    :class:`LineMap`.
    """
    profile = index.get(line) or LineProfile(line)
    if col is not None and profile.called:
        best = None
        for name, start in zip(profile.called, profile.called_cols):
            if start <= col < start + len(name) or \
                    (best is None and start >= col):
                best = name
                if start <= col:
                    break
        if best is not None:
            profile = replace(profile, called=[best])
    matched = _line_vertices(pdg, profile)
    sinks = []
    for vertex in matched:
        for edge in pdg.data_preds(vertex):
            if checker.is_sink_edge(edge):
                sinks.append(vertex)
                break
    return sinks


def resolve_def_sites(pdg: ProgramDependenceGraph,
                      index: dict[int, LineProfile] | LineMap,
                      checker: Checker, line: int) -> list[Vertex]:
    """Source vertices (checker facts) created at ``line``; ``index``
    as for :func:`resolve_sink_sites`."""
    profile = index.get(line) or LineProfile(line)
    matched = {vertex.index for vertex in _line_vertices(pdg, profile)}
    return [vertex for vertex in checker.sources(pdg)
            if vertex.index in matched]


__all__ = ["LineProfile", "LineMap", "line_index", "resolve_sink_sites",
           "resolve_def_sites"]
