"""Every bit-blaster operator against the concrete semantics, exhaustively.

At width 4 each operator's circuit is blasted once; every operand
combination then solves a fresh SAT solver holding a copy of the
circuit's clauses plus one unit clause per pinned bit: all 256 pairs of
a binary operator, all 16 values of a unary one and every ``(c, t, e)``
triple of an if-then-else.  With the operands pinned:

* the circuit is satisfiable and the model's ``z`` equals
  ``semantics.evaluate`` of the operator on those operands, and
* ``z != expected`` is UNSAT, so no other output is reachable.

The second check is what a random witness cannot give: it pins each
"infeasible" answer of the circuit, not just one feasible one.
"""

import itertools

import pytest

from repro.smt import BitBlaster, SatSolver, SatStatus, TermManager, evaluate

WIDTH = 4
VALUES = range(1 << WIDTH)

BINARY = ["bvadd", "bvsub", "bvmul", "bvudiv", "bvurem", "bvshl", "bvlshr",
          "bvand", "bvor", "bvxor"]
UNARY = ["bvnot", "bvneg"]
COMPARISONS = ["eq", "ult", "ule", "slt", "sle"]


def pin(lits, value):
    """Literals forcing little-endian ``lits`` to spell ``value``."""
    return [lit if (value >> i) & 1 else -lit for i, lit in enumerate(lits)]


class Circuit:
    """One operator blasted once, with ``z`` compared to a free ``expect``."""

    def __init__(self, mgr, operands, z):
        self.blaster = BitBlaster()
        self.operands = operands
        self.z = z
        if z.sort.is_bool:
            self.z_lits = [self.blaster.literal(z)]
            expect = mgr.bool_var("expect")
            self.expect_lits = [self.blaster.literal(expect)]
        else:
            self.z_lits = self.blaster.bits(z)
            expect = mgr.bv_var("expect", WIDTH)
            self.expect_lits = self.blaster.bits(expect)
        self.differs = self.blaster.literal(mgr.not_(mgr.eq(z, expect)))
        solver = self.blaster.solver
        self.num_vars = solver.num_vars
        self.clauses = [list(clause) for clause in solver._clauses]
        self.units = list(solver._pending_units)

    def solve(self, units):
        """A fresh solver over the circuit's clauses plus ``units``."""
        solver = SatSolver()
        for _ in range(self.num_vars):
            solver.new_var()
        for clause in self.clauses:
            solver.add_gate_clause(list(clause))
        for lit in self.units + units:
            solver.add_clause([lit])
        return solver.solve()

    def check(self, values):
        assignment = dict(zip(self.operands, values))
        expected = evaluate(self.z, assignment)
        pinned = []
        for operand, value in assignment.items():
            if operand.sort.is_bool:
                lit = self.blaster.literal(operand)
                pinned.append(lit if value else -lit)
            else:
                pinned += pin(self.blaster.bits(operand), value)

        result = self.solve(pinned)
        assert result.status is SatStatus.SAT, values
        assert self.blaster.model_value(self.z, result.model) == expected, \
            (values, expected)

        other = self.solve(pinned + pin(self.expect_lits, expected)
                           + [self.differs])
        assert other.status is SatStatus.UNSAT, (values, expected)


def bv_operands(mgr, count):
    return [mgr.bv_var(name, WIDTH) for name in "xy"[:count]]


@pytest.mark.parametrize("op", BINARY + COMPARISONS)
def test_binary_operator_matches_semantics(op):
    mgr = TermManager()
    x, y = bv_operands(mgr, 2)
    circuit = Circuit(mgr, [x, y], getattr(mgr, op)(x, y))
    for values in itertools.product(VALUES, VALUES):
        circuit.check(values)


@pytest.mark.parametrize("op", UNARY)
def test_unary_operator_matches_semantics(op):
    mgr = TermManager()
    (x,) = bv_operands(mgr, 1)
    circuit = Circuit(mgr, [x], getattr(mgr, op)(x))
    for value in VALUES:
        circuit.check((value,))


def test_ite_matches_semantics():
    mgr = TermManager()
    c = mgr.bool_var("c")
    t, e = mgr.bv_var("t", WIDTH), mgr.bv_var("e", WIDTH)
    circuit = Circuit(mgr, [c, t, e], mgr.ite(c, t, e))
    for values in itertools.product((0, 1), VALUES, VALUES):
        circuit.check(values)
