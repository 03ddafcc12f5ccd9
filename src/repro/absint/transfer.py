"""Interval transfer functions for the IR's binary operators.

Ground truth is ``repro.smt.semantics`` and the reference interpreter
(``tests/interp_oracle.py``): all arithmetic wraps modulo ``2**width``,
division and remainder are *unsigned* (division by zero yields all ones,
remainder by zero the dividend), comparisons are *signed*, and shifting
by ``width`` or more yields zero.  Every function here returns an interval that contains every
value the concrete operator can produce from operands in the argument
intervals — over-approximation is always legal, so the awkward cases
(wrap-around straddles, mixed-sign bit operations) simply widen to top.
"""

from __future__ import annotations

from typing import Optional

from repro.absint.domains import Interval
from repro.lang.ir import BinOp


def wrap_range(lo: int, hi: int, width: int) -> Interval:
    """The signed interval covering ``{x mod 2**width : lo <= x <= hi}``.

    If the exact range spans a full period, or wraps across the signed
    boundary, the result is top (the wrapped set is not an interval).
    """
    modulus = 1 << width
    if hi - lo >= modulus - 1:
        return Interval.top(width)
    half = 1 << (width - 1)
    lo_mod = ((lo + half) % modulus) - half
    hi_mod = hi + (lo_mod - lo)
    if hi_mod < half:
        return Interval(lo_mod, hi_mod)
    return Interval.top(width)


def to_unsigned_range(iv: Interval, width: int) -> Optional[tuple[int, int]]:
    """Signed interval -> unsigned range, or None when it straddles 0."""
    modulus = 1 << width
    if iv.lo >= 0:
        return iv.lo, iv.hi
    if iv.hi < 0:
        return iv.lo + modulus, iv.hi + modulus
    return None


def from_unsigned_range(lo: int, hi: int, width: int) -> Interval:
    """Unsigned range -> signed interval (top if it straddles the signed
    boundary)."""
    half = 1 << (width - 1)
    modulus = 1 << width
    if hi < half:
        return Interval(lo, hi)
    if lo >= half:
        return Interval(lo - modulus, hi - modulus)
    return Interval.top(width)


def _compare(op: BinOp, a: Interval, b: Interval) -> Interval:
    """Signed comparison / equality over intervals -> a Boolean interval."""
    if op is BinOp.LT:
        if a.hi < b.lo:
            return Interval.const(1)
        if a.lo >= b.hi:
            return Interval.const(0)
    elif op is BinOp.LE:
        if a.hi <= b.lo:
            return Interval.const(1)
        if a.lo > b.hi:
            return Interval.const(0)
    elif op is BinOp.GT:
        if a.lo > b.hi:
            return Interval.const(1)
        if a.hi <= b.lo:
            return Interval.const(0)
    elif op is BinOp.GE:
        if a.lo >= b.hi:
            return Interval.const(1)
        if a.hi < b.lo:
            return Interval.const(0)
    elif op is BinOp.EQ:
        if a.is_singleton and b.is_singleton and a.lo == b.lo:
            return Interval.const(1)
        if a.meet(b) is None:
            return Interval.const(0)
    elif op is BinOp.NE:
        if a.meet(b) is None:
            return Interval.const(1)
        if a.is_singleton and b.is_singleton and a.lo == b.lo:
            return Interval.const(0)
    return Interval.boolean()


def _logical(op: BinOp, a: Interval, b: Interval) -> Interval:
    if op is BinOp.AND:
        if a.definitely_false or b.definitely_false:
            return Interval.const(0)
        if a.definitely_true and b.definitely_true:
            return Interval.const(1)
    else:  # OR
        if a.definitely_true or b.definitely_true:
            return Interval.const(1)
        if a.definitely_false and b.definitely_false:
            return Interval.const(0)
    return Interval.boolean()


def _div_rem(op: BinOp, a: Interval, b: Interval, width: int) -> Interval:
    ua, ub = to_unsigned_range(a, width), to_unsigned_range(b, width)
    if ua is None or ub is None or ub[0] == 0:
        # Mixed-sign operand or a possibly-zero divisor (whose special
        # result, all-ones / the dividend, does not interval-compose).
        return Interval.top(width)
    if op is BinOp.DIV:
        return from_unsigned_range(ua[0] // ub[1], ua[1] // ub[0], width)
    return from_unsigned_range(0, min(ua[1], ub[1] - 1), width)


def _shift(op: BinOp, a: Interval, b: Interval, width: int) -> Interval:
    ub = to_unsigned_range(b, width)
    if op is BinOp.SHL:
        if ub is None or ub[0] != ub[1]:
            return Interval.top(width)
        amount = ub[0]
        if amount >= width:
            return Interval.const(0)
        return wrap_range(a.lo << amount, a.hi << amount, width)
    # SHR: logical right shift on the unsigned view only shrinks values
    # (and shift-past-width gives 0), so [0, max] is always sound.
    ua = to_unsigned_range(a, width)
    if ua is None:
        return Interval.top(width)
    if ub is not None and ub[0] == ub[1]:
        amount = ub[0]
        if amount >= width:
            return Interval.const(0)
        return from_unsigned_range(ua[0] >> amount, ua[1] >> amount, width)
    return from_unsigned_range(0, ua[1], width)


def _bitwise(op: BinOp, a: Interval, b: Interval, width: int) -> Interval:
    ua, ub = to_unsigned_range(a, width), to_unsigned_range(b, width)
    if ua is None or ub is None:
        return Interval.top(width)
    if op is BinOp.BAND:
        return from_unsigned_range(0, min(ua[1], ub[1]), width)
    ceiling = (1 << max(ua[1].bit_length(), ub[1].bit_length())) - 1
    lo = max(ua[0], ub[0]) if op is BinOp.BOR else 0
    return from_unsigned_range(lo, min(ceiling, (1 << width) - 1), width)


def binary_interval(op: BinOp, a: Interval, b: Interval,
                    width: int) -> Interval:
    """Forward transfer of ``a (+) b`` for every :class:`BinOp`."""
    if op is BinOp.ADD:
        return wrap_range(a.lo + b.lo, a.hi + b.hi, width)
    if op is BinOp.SUB:
        return wrap_range(a.lo - b.hi, a.hi - b.lo, width)
    if op is BinOp.MUL:
        products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
        return wrap_range(min(products), max(products), width)
    if op in (BinOp.DIV, BinOp.REM):
        return _div_rem(op, a, b, width)
    if op in (BinOp.SHL, BinOp.SHR):
        return _shift(op, a, b, width)
    if op in (BinOp.BAND, BinOp.BOR, BinOp.BXOR):
        return _bitwise(op, a, b, width)
    if op.is_comparison:
        return _compare(op, a, b)
    if op.is_logical:
        return _logical(op, a, b)
    raise ValueError(f"no interval transfer for {op}")
