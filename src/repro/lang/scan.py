"""Comment-masked structure scans over surface source.

The language has no string literals, so the only places a brace, a
``;`` or a ``fun`` header can appear without being structure are line
comments.  :func:`mask_comments` blanks those to spaces (same length, so
every index into the mask is an index into the original), and the scans
below read the mask: :func:`block_end` matches one brace-delimited block
(the serve splicer replaces one function with it), and
:func:`top_level_items` cuts a whole module into its top-level ``fun``
definitions and ``extern`` declarations (the per-function frontend cache
keys and re-parses those one at a time).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.lang.lexer import COMMENT

_BRACE = re.compile(r"[{}]")
#: What the lexer skips between tokens, newlines included.
_BLANKS = re.compile(r"[ \t\r\n]*")
_ITEM = re.compile(r"(fun|extern)(?!\w)")


def mask_comments(text: str) -> str:
    """``text`` with every ``#``/``//`` line comment blanked to spaces.

    Uses the lexer's own comment pattern (``repro.lang.lexer.COMMENT``).
    """
    return COMMENT.sub(lambda match: " " * len(match.group()), text)


def block_end(masked: str, open_brace: int) -> int:
    """Index just past the ``}`` matching the ``{`` at ``open_brace``
    in comment-masked text, or -1 if the braces never balance."""
    depth = 0
    for match in _BRACE.finditer(masked, open_brace):
        if match.group() == "{":
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                return match.end()
    return -1


class TopLevelItem(NamedTuple):
    """One top-level declaration: ``source[start:end]``, starting at
    1-based ``line``/``column``."""

    kind: str  # "fun" or "extern"
    start: int
    end: int
    line: int
    column: int
    #: The item's text with comments masked and the blanks the lexer
    #: skips at line ends stripped: equal keys lex to equal tokens.
    key: str


def _strip_line_ends(text: str) -> str:
    """``text`` without the blanks the lexer skips at line ends."""
    return "\n".join(line.rstrip(" \t\r") for line in text.split("\n"))


def top_level_items(source: str) -> list[TopLevelItem]:
    """Cut ``source`` into its top-level items, in source order.

    A ``fun`` item runs from the keyword to the brace closing its body;
    an ``extern`` item runs to its first ``;``.  Only blanks and
    comments may sit between items.  Raises ``ValueError`` on anything
    else; what is left to the parser is whether each item is well
    formed.
    """
    masked = mask_comments(source)
    items: list[TopLevelItem] = []
    position, line = 0, 1
    while True:
        start = _BLANKS.match(masked, position).end()
        if start == len(masked):
            return items
        header = _ITEM.match(masked, start)
        if header is None:
            raise ValueError(f"no top-level item at offset {start}")
        if header.group() == "fun":
            open_brace = masked.find("{", start)
            end = -1 if open_brace < 0 else block_end(masked, open_brace)
        else:
            end = masked.find(";", start)
            end = -1 if end < 0 else end + 1
        if end < 0:
            raise ValueError(f"unterminated item at offset {start}")
        line += masked.count("\n", position, start)
        items.append(TopLevelItem(header.group(), start, end, line,
                                  start - masked.rfind("\n", 0, start),
                                  _strip_line_ends(masked[start:end])))
        line += masked.count("\n", start, end)
        position = end
