"""Map source positions to PDG vertices for demand queries.

IR statements carry no source locations — only tokens do — so a demand
query's ``--sink LINE[:COL]`` / ``--def LINE`` coordinates are resolved
through a line index built by one token pass over the held source: the
enclosing function is tracked via ``fun`` headers and brace depth, and
the names mentioned on the target line (callees and assignment targets)
are matched against that function's vertices.  Loop unrolling and
recursion cloning duplicate a source line into several vertices (``x``
vs ``x.1``, ``f`` vs ``f%1``); a site deliberately resolves to *all* of
them, so the demand walk sees exactly the candidates a full analysis
would report for the line.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.checkers.base import Checker
from repro.lang.ir import Call
from repro.lang.lexer import Token, TokenKind, iter_tokens
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


def line_index(source: str) -> dict[int, LineProfile]:
    """Profile every line of ``source`` that holds a token, in one pass.

    A line missing from the index (blank or comment-only) mentions
    nothing; :func:`resolve_sink_sites` and :func:`resolve_def_sites`
    read it as ``LineProfile(line)``.  A hot session builds the index
    once per program version, so each site resolution costs one line.
    """
    index: dict[int, LineProfile] = {}
    current: Optional[str] = None
    pending: Optional[str] = None
    after_fun = False
    depth = 0
    # An identifier waiting for the next token to say whether it is
    # called or assigned, with the profile of its line.
    waiting: Optional[tuple[Token, LineProfile]] = None
    for token in iter_tokens(source):
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


def _profile(source: str, line: int,
             index: Optional[dict[int, LineProfile]]) -> LineProfile:
    if index is None:
        index = line_index(source)
    profile = index.get(line)
    return profile if profile is not None else LineProfile(line)


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


def resolve_sink_sites(pdg: ProgramDependenceGraph, source: str,
                       checker: Checker, line: int,
                       col: Optional[int] = None,
                       index: Optional[dict[int, LineProfile]] = None
                       ) -> list[Vertex]:
    """Vertices completing the checker's bug pattern at ``line``.

    A vertex qualifies when the line selects it *and* it receives at
    least one sink edge.  ``col`` narrows a line with several calls to
    the one whose callee token covers (or starts nearest after) the
    column.  ``index`` is the source's :func:`line_index`; without it
    the whole source is lexed.
    """
    profile = _profile(source, line, index)
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


def resolve_def_sites(pdg: ProgramDependenceGraph, source: str,
                      checker: Checker, line: int,
                      index: Optional[dict[int, LineProfile]] = None
                      ) -> list[Vertex]:
    """Source vertices (checker facts) created at ``line``."""
    profile = _profile(source, line, index)
    matched = {vertex.index for vertex in _line_vertices(pdg, profile)}
    return [vertex for vertex in checker.sources(pdg)
            if vertex.index in matched]


__all__ = ["LineProfile", "line_index", "resolve_sink_sites",
           "resolve_def_sites"]
