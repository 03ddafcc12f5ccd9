"""Concrete evaluation of terms.

Bit-vector arithmetic is modulo ``2**width`` with SMT-LIB conventions
(division by zero yields all ones, remainder by zero yields the dividend).
Evaluation is the ground truth used by property tests to validate the
rewriter, the preprocessing passes, and the bit-blaster against each other.
"""

from __future__ import annotations

from typing import Mapping

from repro.smt.terms import Op, Term

Assignment = Mapping[Term, int]


def to_signed(value: int, width: int) -> int:
    """Interpret an unsigned ``width``-bit value as two's complement."""
    if value >= 1 << (width - 1):
        return value - (1 << width)
    return value


def to_unsigned(value: int, width: int) -> int:
    """Wrap a Python integer into an unsigned ``width``-bit value."""
    return value % (1 << width)


def evaluate(term: Term, assignment: Assignment) -> int:
    """Evaluate ``term`` under ``assignment`` (variable term -> int).

    Booleans evaluate to 0 or 1.  Raises ``KeyError`` for unassigned
    variables, which keeps accidental partial models loud in tests.
    """
    cache: dict[int, int] = {}
    for node in term.iter_dag():
        cache[node.tid] = eval_node(node, assignment, cache)
    return cache[term.tid]


def eval_node(node: Term, assignment: Assignment,
              cache: dict[int, int]) -> int:
    """The value of ``node`` given its arguments' values in ``cache``
    (term id -> value) and its variable's in ``assignment``."""
    op = node.op
    if op is Op.VAR:
        value = assignment[node]
        if node.sort.is_bool:
            return 1 if value else 0
        return to_unsigned(value, node.sort.width)
    if op is Op.CONST:
        return node.value
    if op is Op.TRUE:
        return 1
    if op is Op.FALSE:
        return 0

    args = [cache[a.tid] for a in node.args]

    if op is Op.NOT:
        return 1 - args[0]
    if op is Op.AND:
        return 1 if all(args) else 0
    if op is Op.OR:
        return 1 if any(args) else 0
    if op is Op.XOR:
        return args[0] ^ args[1]
    if op is Op.IMPLIES:
        return 1 if (not args[0] or args[1]) else 0
    if op is Op.EQ:
        return 1 if args[0] == args[1] else 0
    if op is Op.ITE:
        return args[1] if args[0] else args[2]

    width = node.sort.width if node.sort.is_bv else node.args[0].sort.width
    mask = (1 << width) - 1

    if op is Op.BVADD:
        return (args[0] + args[1]) & mask
    if op is Op.BVSUB:
        return (args[0] - args[1]) & mask
    if op is Op.BVMUL:
        return (args[0] * args[1]) & mask
    if op is Op.BVNEG:
        return (-args[0]) & mask
    if op is Op.BVUDIV:
        return mask if args[1] == 0 else (args[0] // args[1]) & mask
    if op is Op.BVUREM:
        return args[0] if args[1] == 0 else (args[0] % args[1]) & mask
    if op is Op.BVAND:
        return args[0] & args[1]
    if op is Op.BVOR:
        return args[0] | args[1]
    if op is Op.BVXOR:
        return args[0] ^ args[1]
    if op is Op.BVNOT:
        return (~args[0]) & mask
    if op is Op.BVSHL:
        return 0 if args[1] >= width else (args[0] << args[1]) & mask
    if op is Op.BVLSHR:
        return 0 if args[1] >= width else args[0] >> args[1]
    if op is Op.ULT:
        return 1 if args[0] < args[1] else 0
    if op is Op.ULE:
        return 1 if args[0] <= args[1] else 0
    if op is Op.SLT:
        return 1 if to_signed(args[0], width) < to_signed(args[1], width) else 0
    if op is Op.SLE:
        return 1 if to_signed(args[0], width) <= to_signed(args[1], width) else 0

    raise NotImplementedError(f"evaluation of {op} not implemented")
