"""Pretty-printing for the normalized IR, for test assertions and
failure messages."""

from __future__ import annotations

from repro.lang.ir import Branch, Function, Program, Stmt


def format_stmt(stmt: Stmt, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(stmt, Branch):
        lines = [f"{pad}if ({stmt.result} = {stmt.cond!r}) {{"]
        lines.extend(format_stmt(s, indent + 1) for s in stmt.body)
        lines.append(f"{pad}}}")
        return "\n".join(lines)
    return f"{pad}{stmt!r}"


def format_function(function: Function) -> str:
    params = ", ".join(p.name for p in function.params)
    lines = [f"fun {function.name}({params}) {{"]
    lines.extend(format_stmt(s, 1) for s in function.body)
    lines.append("}")
    return "\n".join(lines)


def format_program(program: Program) -> str:
    parts = [format_function(f) for f in program.functions.values()]
    if program.externs:
        parts.append("extern " + ", ".join(sorted(program.externs)) + ";")
    return "\n\n".join(parts)
