"""Quick paths: function-level propagation summaries (Section 3.2.3).

"The quick path allows the same propagation from the variable b to the
branch condition without going through the function bar" — once the
solver's preprocessing has walked a callee once, subsequent call sites
resolve the return value in O(1) from a summary instead of re-cloning the
callee.  Four summary shapes cover the propagation-style preprocessing the
paper lists (constant propagation, equality/affine chains, and the
"unconstrained" property):

* ``CONST c``            — the callee always returns ``c``.
* ``AFFINE(a, i, b)``    — returns ``a * param_i + b`` (mod 2^w); the
  paper's ``bar`` is AFFINE(2, 0, 0).
* ``HAVOC``              — the return value is fully unconstrained (e.g.
  it bottoms out in an empty-function result); the binding can simply be
  dropped, which is sound because a havoc-based surjective chain can
  produce any value.
* ``OPAQUE``             — anything else; the callee must be cloned.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from repro.lang.ir import (Assign, Binary, BinOp, Call, Const, Identity,
                           IfThenElse, Operand, VarType)
from repro.pdg.graph import ProgramDependenceGraph


class Shape(enum.Enum):
    CONST = "const"
    AFFINE = "affine"
    HAVOC = "havoc"
    OPAQUE = "opaque"


@dataclass(frozen=True)
class ValueSummary:
    shape: Shape
    scale: int = 1        # AFFINE: a
    param_index: int = -1  # AFFINE: i
    offset: int = 0        # AFFINE: b / CONST: the constant
    #: HAVOC provenance: ids of the havoc sources the value depends on.
    #: Combining two values whose havoc sets overlap would correlate the
    #: same source with itself (t + t is not surjective), so overlap
    #: degrades to OPAQUE.
    havoc_ids: frozenset = frozenset()

    def __repr__(self) -> str:
        if self.shape is Shape.CONST:
            return f"const({self.offset})"
        if self.shape is Shape.AFFINE:
            return f"{self.scale}*param{self.param_index}+{self.offset}"
        return self.shape.value


CONST0 = ValueSummary(Shape.CONST, offset=0)
OPAQUE = ValueSummary(Shape.OPAQUE)


def havoc(ids: frozenset) -> ValueSummary:
    return ValueSummary(Shape.HAVOC, havoc_ids=ids)


class QuickPathTable:
    """Computes and caches return-value summaries per function."""

    def __init__(self, pdg: ProgramDependenceGraph) -> None:
        self.pdg = pdg
        self.width = pdg.program.width
        self.modulus = 1 << self.width
        self._summaries: dict[str, ValueSummary] = {}
        self.hits = 0
        self.misses = 0

    def summary(self, function: str) -> ValueSummary:
        cached = self._summaries.get(function)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = self._compute(function)
        self._summaries[function] = result
        return result

    # ------------------------------------------------------------------ #
    # Summary computation (a walk over the SSA def chains)
    # ------------------------------------------------------------------ #

    def _compute(self, function: str) -> ValueSummary:
        fn = self.pdg.program.functions.get(function)
        if fn is None:
            return havoc(frozenset())  # empty function: unconstrained
        ret = fn.return_stmt
        if ret is None:
            return havoc(frozenset())
        # The walk's scope: definitions, parameter positions, and the
        # summaries resolved so far, by variable name.
        scope = (fn.defined_vars(),
                 {p.name: i for i, p in enumerate(fn.params)}, {})
        return self._resolve(ret.source, scope)

    def _resolve(self, operand: Operand, scope: tuple) -> ValueSummary:
        if isinstance(operand, Const):
            if operand.type is VarType.BOOL:
                return OPAQUE
            return ValueSummary(Shape.CONST,
                                offset=operand.value % self.modulus)
        if operand.type is VarType.BOOL:
            return OPAQUE
        defs, _, memo = scope
        name = operand.name
        if name in memo:
            return memo[name]
        memo[name] = OPAQUE  # cycle guard (SSA is acyclic, but be safe)
        memo[name] = self._resolve_def(defs.get(name), scope)
        return memo[name]

    def _resolve_def(self, stmt, scope: tuple) -> ValueSummary:
        if stmt is None:
            return OPAQUE
        if isinstance(stmt, Identity):
            _, params, _ = scope
            index = params.get(stmt.result.name, -1)
            if index < 0:
                return OPAQUE
            return ValueSummary(Shape.AFFINE, 1, index, 0)
        if isinstance(stmt, Assign):
            return self._resolve(stmt.source, scope)
        if isinstance(stmt, IfThenElse):
            left = self._resolve(stmt.then_value, scope)
            right = self._resolve(stmt.else_value, scope)
            if left == right:
                return left
            if left.shape is Shape.HAVOC and right.shape is Shape.HAVOC:
                # Either arm can hit any target by setting both havocs.
                return havoc(left.havoc_ids | right.havoc_ids)
            return OPAQUE
        if isinstance(stmt, Binary):
            return self._combine(stmt.op, self._resolve(stmt.lhs, scope),
                                 self._resolve(stmt.rhs, scope))
        if isinstance(stmt, Call):
            callee_summary = self.summary(stmt.callee)
            if callee_summary.shape is Shape.CONST:
                return callee_summary
            if callee_summary.shape is Shape.HAVOC:
                # A fresh activation: the havoc source is this call site.
                return havoc(frozenset({id(stmt)}))
            if callee_summary.shape is Shape.AFFINE:
                if callee_summary.param_index >= len(stmt.args):
                    return OPAQUE
                inner = self._resolve(
                    stmt.args[callee_summary.param_index], scope)
                return self._scale_add(inner, callee_summary.scale,
                                       callee_summary.offset)
            return OPAQUE
        return OPAQUE  # Return/Branch never define a used value here

    # ------------------------------------------------------------------ #
    # Arithmetic over summaries
    # ------------------------------------------------------------------ #

    def _scale_add(self, value: ValueSummary, scale: int,
                   offset: int) -> ValueSummary:
        """scale*value + offset."""
        scale %= self.modulus
        offset %= self.modulus
        if value.shape is Shape.CONST:
            return ValueSummary(
                Shape.CONST,
                offset=(value.offset * scale + offset) % self.modulus)
        if value.shape is Shape.AFFINE:
            if scale == 0:
                return ValueSummary(Shape.CONST, offset=offset)
            return ValueSummary(
                Shape.AFFINE, (value.scale * scale) % self.modulus,
                value.param_index,
                (value.offset * scale + offset) % self.modulus)
        if value.shape is Shape.HAVOC:
            # Havoc scaled by an odd factor stays surjective; by an even
            # factor it no longer covers all residues.
            return value if scale % 2 == 1 else OPAQUE
        return OPAQUE

    def _combine(self, op: BinOp, left: ValueSummary,
                 right: ValueSummary) -> ValueSummary:
        if left.shape is Shape.OPAQUE or right.shape is Shape.OPAQUE:
            return OPAQUE
        if op is BinOp.ADD:
            return self._add(left, right, 1)
        if op is BinOp.SUB:
            return self._add(left, right, -1)
        if op is BinOp.MUL:
            if left.shape is Shape.CONST:
                return self._scale_add(right, left.offset, 0)
            if right.shape is Shape.CONST:
                return self._scale_add(left, right.offset, 0)
            return OPAQUE
        if op is BinOp.SHL and right.shape is Shape.CONST:
            if right.offset >= self.width:
                return CONST0
            return self._scale_add(left, 1 << right.offset, 0)
        return OPAQUE

    def _add(self, left: ValueSummary, right: ValueSummary,
             sign: int) -> ValueSummary:
        if right.shape is Shape.CONST:
            return left if left.shape is Shape.HAVOC \
                else self._scale_add(left, 1, sign * right.offset)
        if left.shape is Shape.CONST:
            if right.shape is Shape.HAVOC:
                return right
            scaled = self._scale_add(right, sign % self.modulus, 0)
            return self._scale_add(scaled, 1, left.offset)
        if left.shape is Shape.HAVOC or right.shape is Shape.HAVOC:
            # Sound only when the havoc sources are independent: the same
            # source on both sides could cancel (t - t) or double (t + t).
            if left.havoc_ids & right.havoc_ids:
                return OPAQUE
            return havoc(left.havoc_ids | right.havoc_ids)
        if left.shape is Shape.AFFINE and right.shape is Shape.AFFINE \
                and left.param_index == right.param_index:
            scale = (left.scale + sign * right.scale) % self.modulus
            offset = (left.offset + sign * right.offset) % self.modulus
            if scale == 0:
                return ValueSummary(Shape.CONST, offset=offset)
            return ValueSummary(Shape.AFFINE, scale, left.param_index,
                                offset)
        return OPAQUE
