"""Abstract domains for the sparse fixpoint (:mod:`repro.absint.fixpoint`).

Three classic domains over the IR's ``2**width``-wrapped machine
integers, combined as a reduced product (:class:`AbsValue`):

* **Intervals** — signed value ranges ``[lo, hi]``.  This is the domain
  div-zero's sources rest on, so every transfer function must
  over-approximate the SMT/interpreter semantics (``repro.smt.semantics``
  is the ground truth: wrapping add/sub/mul, *unsigned* division,
  *signed* comparisons, shift-past-width yields zero).
* **Nullness** — a four-point lattice tracking the ``null`` literal.  In
  this IR ``null`` lowers to the integer constant 0 and only survives
  value-preserving statements, so a definite-NULL fact also pins the
  interval to ``[0, 0]`` (the product's reduction step).
* **Taint labels** — a may-set of extern source names (``gets``,
  ``getpass``, ...), the abstract counterpart of the interpreter's
  ``Value.taints`` provenance.

The lattices are deliberately value-only (no relations): relational
reasoning is the SMT stage's job.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Interval:
    """A non-empty signed interval ``[lo, hi]``; ``None`` plays bottom."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # -- constructors --------------------------------------------------- #

    @staticmethod
    def top(width: int) -> "Interval":
        return Interval(-(1 << (width - 1)), (1 << (width - 1)) - 1)

    @staticmethod
    def const(value: int) -> "Interval":
        return Interval(value, value)

    @staticmethod
    def boolean() -> "Interval":
        return Interval(0, 1)

    # -- queries -------------------------------------------------------- #

    @property
    def is_singleton(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    @property
    def definitely_true(self) -> bool:
        """Every value is truthy (0 excluded)."""
        return not self.contains(0)

    @property
    def definitely_false(self) -> bool:
        return self.lo == 0 and self.hi == 0

    # -- lattice -------------------------------------------------------- #

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> Optional["Interval"]:
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def widen(self, newer: "Interval", width: int) -> "Interval":
        """Classic interval widening: any unstable bound jumps to the
        type's extreme, so ascending chains stabilise immediately."""
        top = Interval.top(width)
        lo = self.lo if newer.lo >= self.lo else top.lo
        hi = self.hi if newer.hi <= self.hi else top.hi
        return Interval(lo, hi)

    def __repr__(self) -> str:
        if self.is_singleton:
            return f"[{self.lo}]"
        return f"[{self.lo}, {self.hi}]"


class Nullness(enum.Enum):
    """May/must nullness: BOTTOM < {NULL, NOT_NULL} < TOP.

    ``NULL`` is a *must* fact (the value is the null literal in every
    execution); ``TOP`` is the may-null case.
    """

    BOTTOM = "bottom"
    NULL = "null"
    NOT_NULL = "not-null"
    TOP = "maybe-null"

    def join(self, other: "Nullness") -> "Nullness":
        if self is other or other is Nullness.BOTTOM:
            return self
        if self is Nullness.BOTTOM:
            return other
        return Nullness.TOP


#: Taint element: a frozenset of source names (join = union, bottom = {}).
Taints = frozenset


@dataclass(frozen=True)
class AbsValue:
    """Reduced product of the three domains for one SSA variable.

    ``interval is None`` encodes bottom (no execution reaches the
    definition with a value yet); the other components are then ignored.
    """

    interval: Optional[Interval]
    nullness: Nullness = Nullness.BOTTOM
    taints: Taints = frozenset()

    @staticmethod
    def bottom() -> "AbsValue":
        return AbsValue(None, Nullness.BOTTOM, frozenset())

    @staticmethod
    def top(width: int) -> "AbsValue":
        return AbsValue(Interval.top(width), Nullness.TOP, frozenset())

    @staticmethod
    def const(value: int, is_null: bool = False) -> "AbsValue":
        nullness = Nullness.NULL if is_null else Nullness.NOT_NULL
        return AbsValue(Interval.const(value), nullness, frozenset())

    @property
    def is_bottom(self) -> bool:
        return self.interval is None

    def join(self, other: "AbsValue") -> "AbsValue":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return AbsValue(self.interval.join(other.interval),
                        self.nullness.join(other.nullness),
                        self.taints | other.taints)

    def widen(self, newer: "AbsValue", width: int) -> "AbsValue":
        if self.is_bottom or newer.is_bottom:
            return self.join(newer)
        return AbsValue(self.interval.widen(newer.interval, width),
                        self.nullness.join(newer.nullness),
                        self.taints | newer.taints)

    def reduce(self) -> "AbsValue":
        """The product reduction: a must-NULL value is the null literal,
        whose bits are exactly 0 in this IR (``lang.lowering`` lowers
        ``null`` to ``Const(0, is_null=True)``)."""
        if self.is_bottom or self.nullness is not Nullness.NULL:
            return self
        interval = self.interval.meet(Interval.const(0))
        if interval is None:
            return AbsValue.bottom()
        return AbsValue(interval, self.nullness, self.taints)

    def __repr__(self) -> str:
        if self.is_bottom:
            return "⊥"
        parts = [repr(self.interval)]
        if self.nullness is not Nullness.NOT_NULL:
            parts.append(self.nullness.value)
        if self.taints:
            parts.append("taints={" + ",".join(sorted(self.taints)) + "}")
        return " ".join(parts)


@dataclass
class FixpointStats:
    """Cost counters for one fixpoint run."""

    iterations: int = 0
    widenings: int = 0
    vertices: int = 0
