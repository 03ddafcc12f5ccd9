"""Bit-blasting: Tseitin translation of bit-vector terms to CNF.

This is the reproduction's counterpart of "Z3's bit-blaster [which]
converts a bit-vector condition to a pure Boolean condition" (Section 4).
Every Boolean term maps to one SAT literal and every bit-vector term to a
little-endian list of SAT literals; gates are encoded with the standard
Tseitin clauses, adders as ripple-carry chains, multipliers as shift-add
arrays, and variable shifts as barrel shifters.

The blaster records the SAT variables it creates for the terms' free
variables, the circuit's inputs.  ``solve`` seeds their VSIDS activity
before the search, so the first decisions fall on inputs and propagation
fixes the gates (docs/solver.md, "Branching order").
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.limits import Deadline
from repro.smt.sat import SatResult, SatSolver
from repro.smt.terms import Op, Term


class BitBlaster:
    """Encodes terms into a :class:`SatSolver` clause database."""

    def __init__(self, solver: Optional[SatSolver] = None) -> None:
        self.solver = solver if solver is not None else SatSolver()
        self._bool_cache: dict[int, int] = {}
        self._bv_cache: dict[int, list[int]] = {}
        # (term id, SAT variables) of every VAR term, in encode order.
        self._inputs: list[tuple[int, list[int]]] = []
        # Encoder-cache traffic: a hit means a term id resolved to an
        # already-emitted Tseitin literal (no new clauses).
        self.encoder_hits = 0
        self.encoder_misses = 0
        # A literal constrained to be true; constants reuse it.
        self._true = self.solver.new_var()
        self.solver.add_clause([self._true])

    # ------------------------------------------------------------------ #
    # Public interface
    # ------------------------------------------------------------------ #

    def assert_true(self, term: Term) -> None:
        """Add clauses forcing the Boolean ``term`` to hold."""
        if not term.sort.is_bool:
            raise TypeError(f"can only assert Boolean terms, got {term.sort}")
        self.solver.add_clause([self.literal(term)])

    def solve(self, conflict_limit: Optional[int] = None,
              deadline: Optional[Deadline] = None) -> SatResult:
        """Seed the input bits' activity, in term-id order, and search."""
        self.solver.seed_activity(
            var for _, variables in sorted(self._inputs)
            for var in variables)
        return self.solver.solve(conflict_limit=conflict_limit,
                                 deadline=deadline)

    def literal(self, term: Term) -> int:
        """SAT literal equisatisfiable with a Boolean term."""
        lit = self._bool_cache.get(term.tid)
        if lit is None:
            self.encoder_misses += 1
            lit = self._encode_bool(term)
            self._bool_cache[term.tid] = lit
        else:
            self.encoder_hits += 1
        return lit

    def bits(self, term: Term) -> list[int]:
        """Little-endian SAT literals for a bit-vector term."""
        cached = self._bv_cache.get(term.tid)
        if cached is None:
            self.encoder_misses += 1
            cached = self._encode_bv(term)
            self._bv_cache[term.tid] = cached
        else:
            self.encoder_hits += 1
        return cached

    def model_value(self, term: Term, model: Mapping[int, bool]) -> int:
        """Read a term's value out of a SAT model."""

        def lit_value(lit: int) -> bool:
            value = model.get(abs(lit), False)
            return value if lit > 0 else not value

        if term.sort.is_bool:
            return 1 if lit_value(self.literal(term)) else 0
        return sum(1 << i for i, lit in enumerate(self.bits(term))
                   if lit_value(lit))

    # ------------------------------------------------------------------ #
    # Gate primitives
    # ------------------------------------------------------------------ #
    # A gate that does not fold to a constant or an input gets a fresh
    # output variable, and its clauses hold distinct, non-complementary
    # literals over existing variables: what ``add_gate_clause`` asks.

    @property
    def true_lit(self) -> int:
        return self._true

    @property
    def false_lit(self) -> int:
        return -self._true

    def _fresh(self) -> int:
        return self.solver.new_var()

    def _gate_and(self, a: int, b: int) -> int:
        true = self._true
        if a == -true or b == -true or a == -b:
            return -true
        if a == true or a == b:
            return b
        if b == true:
            return a
        solver = self.solver
        out = solver.new_var()
        add = solver.add_gate_clause
        add([-out, a])
        add([-out, b])
        add([out, -a, -b])
        return out

    def _gate_or(self, a: int, b: int) -> int:
        return -self._gate_and(-a, -b)

    def _gate_xor(self, a: int, b: int) -> int:
        true = self._true
        if a == -true:
            return b
        if b == -true:
            return a
        if a == true:
            return -b
        if b == true:
            return -a
        if a == b:
            return -true
        if a == -b:
            return true
        solver = self.solver
        out = solver.new_var()
        add = solver.add_gate_clause
        add([-out, a, b])
        add([-out, -a, -b])
        add([out, -a, b])
        add([out, a, -b])
        return out

    def _gate_iff(self, a: int, b: int) -> int:
        return -self._gate_xor(a, b)

    def _gate_ite(self, c: int, t: int, e: int) -> int:
        true = self._true
        if c == true:
            return t
        if c == -true:
            return e
        if t == e:
            return t
        solver = self.solver
        out = solver.new_var()
        # With c == ±t or c == ±e a clause below holds a duplicate literal
        # or is a tautology, which only add_clause dedupes or drops.
        add = solver.add_clause if c in (t, -t, e, -e) \
            else solver.add_gate_clause
        add([-c, -t, out])
        add([-c, t, -out])
        add([c, -e, out])
        add([c, e, -out])
        return out

    def _full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        s = self._gate_xor(self._gate_xor(a, b), cin)
        carry = self._gate_or(self._gate_and(a, b),
                              self._gate_and(cin, self._gate_xor(a, b)))
        return s, carry

    # ------------------------------------------------------------------ #
    # Word-level circuits
    # ------------------------------------------------------------------ #

    def _const_bits(self, value: int, width: int) -> list[int]:
        return [self.true_lit if (value >> i) & 1 else self.false_lit
                for i in range(width)]

    def _adder(self, xs: list[int], ys: list[int],
               carry: int) -> tuple[list[int], int]:
        out: list[int] = []
        for a, b in zip(xs, ys):
            s, carry = self._full_adder(a, b, carry)
            out.append(s)
        return out, carry

    def _negate(self, xs: list[int]) -> list[int]:
        inverted = [-x for x in xs]
        out, _ = self._adder(inverted,
                             self._const_bits(0, len(xs)), self.true_lit)
        return out

    def _multiplier(self, xs: list[int], ys: list[int]) -> list[int]:
        width = len(xs)
        acc = self._const_bits(0, width)
        for i, y in enumerate(ys):
            partial = ([self.false_lit] * i
                       + [self._gate_and(x, y) for x in xs[: width - i]])
            acc, _ = self._adder(acc, partial, self.false_lit)
        return acc

    def _ult_lit(self, xs: list[int], ys: list[int]) -> int:
        """Unsigned less-than via a borrow chain (x < y iff x - y borrows)."""
        borrow = self.false_lit
        for a, b in zip(xs, ys):
            diff_needs = self._gate_and(-a, b)
            same = self._gate_iff(a, b)
            borrow = self._gate_or(diff_needs, self._gate_and(same, borrow))
        return borrow

    def _slt_lit(self, xs: list[int], ys: list[int]) -> int:
        ax, by = xs[-1], ys[-1]
        ult = self._ult_lit(xs, ys)
        sign_diff = self._gate_xor(ax, by)
        # Signs differ: x < y iff x is negative.  Signs equal: unsigned order.
        return self._gate_ite(sign_diff, ax, ult)

    def _eq_lit(self, xs: list[int], ys: list[int]) -> int:
        acc = self.true_lit
        for a, b in zip(xs, ys):
            acc = self._gate_and(acc, self._gate_iff(a, b))
        return acc

    def _shifter(self, xs: list[int], ys: list[int], left: bool) -> list[int]:
        """Barrel shifter; shift amounts >= width yield zero."""
        width = len(xs)
        current = list(xs)
        amount_bits = max(1, (width - 1).bit_length())
        for stage in range(amount_bits):
            shift = 1 << stage
            control = ys[stage]
            shifted: list[int] = []
            for i in range(width):
                src = i - shift if left else i + shift
                value = current[src] if 0 <= src < width else self.false_lit
                shifted.append(self._gate_ite(control, value, current[i]))
            current = shifted
        # Any set amount bit at weight >= width zeroes the result.
        overflow = self.false_lit
        for i in range(amount_bits, len(ys)):
            overflow = self._gate_or(overflow, ys[i])
        return [self._gate_ite(overflow, self.false_lit, bit)
                for bit in current]

    def _divider(self, xs: list[int], ys: list[int]) -> tuple[list[int], list[int]]:
        """Unsigned restoring division via the multiplication identity.

        Introduces fresh quotient/remainder bits constrained by
        ``x = q*y + r``, ``y != 0 -> r < y`` computed in double width so the
        identity cannot overflow, and the SMT-LIB division-by-zero rules.
        """
        width = len(xs)
        q = [self._fresh() for _ in range(width)]
        r = [self._fresh() for _ in range(width)]
        zero = self._const_bits(0, width)
        q2, y2, r2, x2 = (bits + zero for bits in (q, ys, r, xs))
        prod = self._multiplier(q2, y2)
        total, _ = self._adder(prod, r2, self.false_lit)
        identity = self._eq_lit(total, x2)
        y_zero = self._eq_lit(ys, zero)
        r_lt_y = self._ult_lit(r, ys)
        q_ones = self._eq_lit(q, self._const_bits((1 << width) - 1, width))
        r_eq_x = self._eq_lit(r, xs)
        ok = self._gate_and(
            self._gate_ite(y_zero,
                           self._gate_and(q_ones, r_eq_x),
                           self._gate_and(identity, r_lt_y)),
            self.true_lit)
        self.solver.add_clause([ok])
        return q, r

    # ------------------------------------------------------------------ #
    # Term dispatch
    # ------------------------------------------------------------------ #

    def _encode_bool(self, term: Term) -> int:
        op = term.op
        if op is Op.TRUE:
            return self.true_lit
        if op is Op.FALSE:
            return self.false_lit
        if op is Op.VAR:
            var = self._fresh()
            self._inputs.append((term.tid, [var]))
            return var
        if op is Op.NOT:
            return -self.literal(term.args[0])
        if op is Op.AND:
            acc = self.true_lit
            for arg in term.args:
                acc = self._gate_and(acc, self.literal(arg))
            return acc
        if op is Op.OR:
            acc = self.false_lit
            for arg in term.args:
                acc = self._gate_or(acc, self.literal(arg))
            return acc
        if op is Op.XOR:
            return self._gate_xor(self.literal(term.args[0]),
                                  self.literal(term.args[1]))
        if op is Op.IMPLIES:
            return self._gate_or(-self.literal(term.args[0]),
                                 self.literal(term.args[1]))
        if op is Op.ITE:
            return self._gate_ite(self.literal(term.args[0]),
                                  self.literal(term.args[1]),
                                  self.literal(term.args[2]))
        if op is Op.EQ:
            lhs, rhs = term.args
            if lhs.sort.is_bool:
                return self._gate_iff(self.literal(lhs), self.literal(rhs))
            return self._eq_lit(self.bits(lhs), self.bits(rhs))
        if op is Op.ULT:
            return self._ult_lit(self.bits(term.args[0]),
                                 self.bits(term.args[1]))
        if op is Op.ULE:
            return -self._ult_lit(self.bits(term.args[1]),
                                  self.bits(term.args[0]))
        if op is Op.SLT:
            return self._slt_lit(self.bits(term.args[0]),
                                 self.bits(term.args[1]))
        if op is Op.SLE:
            return -self._slt_lit(self.bits(term.args[1]),
                                  self.bits(term.args[0]))
        raise NotImplementedError(f"cannot bit-blast Boolean op {op}")

    def _encode_bv(self, term: Term) -> list[int]:
        op = term.op
        width = term.sort.width
        if op is Op.VAR:
            variables = [self._fresh() for _ in range(width)]
            self._inputs.append((term.tid, variables))
            return variables
        if op is Op.CONST:
            return self._const_bits(term.value, width)
        if op is Op.ITE:
            cond = self.literal(term.args[0])
            then_bits = self.bits(term.args[1])
            else_bits = self.bits(term.args[2])
            return [self._gate_ite(cond, t, e)
                    for t, e in zip(then_bits, else_bits)]

        if op is Op.BVNEG:
            return self._negate(self.bits(term.args[0]))
        if op is Op.BVNOT:
            return [-b for b in self.bits(term.args[0])]

        xs = self.bits(term.args[0])
        ys = self.bits(term.args[1]) if len(term.args) > 1 else []
        if op is Op.BVADD:
            out, _ = self._adder(xs, ys, self.false_lit)
            return out
        if op is Op.BVSUB:
            out, _ = self._adder(xs, [-y for y in ys], self.true_lit)
            return out
        if op is Op.BVMUL:
            return self._multiplier(xs, ys)
        if op is Op.BVAND:
            return [self._gate_and(a, b) for a, b in zip(xs, ys)]
        if op is Op.BVOR:
            return [self._gate_or(a, b) for a, b in zip(xs, ys)]
        if op is Op.BVXOR:
            return [self._gate_xor(a, b) for a, b in zip(xs, ys)]
        if op is Op.BVSHL:
            return self._shifter(xs, ys, left=True)
        if op is Op.BVLSHR:
            return self._shifter(xs, ys, left=False)
        if op is Op.BVUDIV:
            quotient, _ = self._divider(xs, ys)
            return quotient
        if op is Op.BVUREM:
            _, remainder = self._divider(xs, ys)
            return remainder
        raise NotImplementedError(f"cannot bit-blast bit-vector op {op}")
