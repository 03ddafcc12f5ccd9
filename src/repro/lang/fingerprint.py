"""Stable content keys over the lowered IR.

The artifact store (:mod:`repro.exec.store`) reuses per-function analysis
results across ``repro analyze`` runs.  Its invalidation unit is the
*function*, so it needs a key with two properties:

* **stability** — the key of a function depends only on that function's
  lowered statements (and the bit width they are interpreted under),
  never on source formatting, on comments, or on what *other* functions
  in the program look like.  Reordering or editing unrelated functions
  must not perturb the key.
* **sensitivity** — any change that can alter the function's PDG
  fragment, local conditions, or quick-path summary changes the key.

Both fall out of hashing a canonical, line-oriented rendering of the
statement tree: the front end already normalises surface syntax into the
SSA IR (whitespace and comments are gone by lowering), and the rendering
below walks nested branch bodies explicitly so control structure is part
of the text.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.lang.ir import Branch, Function, Stmt

#: Bumped whenever the canonical rendering changes shape, so persisted
#: keys from an older layout can never collide with current ones.
FINGERPRINT_VERSION = 1


def _stmt_lines(stmts: Iterable[Stmt], depth: int) -> Iterable[str]:
    for stmt in stmts:
        yield f"{depth}:{stmt!r}"
        if isinstance(stmt, Branch):
            yield from _stmt_lines(stmt.body, depth + 1)


def function_text(function: Function) -> str:
    """The canonical rendering hashed by :func:`function_key`."""
    params = ",".join(f"{p.name}:{p.type.value}" for p in function.params)
    lines = [f"v{FINGERPRINT_VERSION}", f"fn {function.name}({params})"]
    lines.extend(_stmt_lines(function.body, 0))
    return "\n".join(lines)


def function_key(function: Function, width: int) -> str:
    """Content key of one function under a given bit width."""
    payload = f"w{width}\n{function_text(function)}"
    return hashlib.sha256(payload.encode()).hexdigest()
