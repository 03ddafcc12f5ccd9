"""Ground truth for single preprocessing passes, by enumeration at width 4.

``tests/test_smt_preprocess.py`` checks the whole pipeline against one
random witness.  Here one pass runs alone (``enabled=(name,)``) on small
systems whose every assignment is enumerated, and two properties must
hold:

* **satisfiability is preserved exactly**: for every assignment of the
  ``protected`` variables, the input has a model extending it iff the
  output does.  With nothing protected this is plain equisatisfiability.
  With a protected set it is what Algorithm 6 relies on when it
  preprocesses a template once and binds its interface variables per
  query;
* **completion maps models back**: every model of the output, extended
  by ``complete_model``, is a model of the input and keeps the values the
  output model gave.

The inputs are read by a direct integer evaluation of each system, which
is cross-checked against :func:`repro.smt.evaluate` on a few points per
system.  ``gaussian`` runs on linear systems; ``constants`` and
``equalities`` run on shuffled binding chains (ROADMAP item 3).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.smt import Preprocessor, TermManager, Verdict, evaluate
from repro.smt.semantics import to_signed

WIDTH = 4
MODULUS = 1 << WIDTH
NAMES = ("x", "y", "z")


@dataclass(frozen=True)
class System:
    """Linear rows ``sum(coeffs[i] * v_i) = const (mod 2^w)``, each
    written with the variables flagged in ``on_right`` moved to the
    right-hand side, plus an optional comparison ``side`` =
    (op, i, j, bound): ``v_i op bound``, or ``v_i * v_j op bound`` when
    j >= 0."""

    nvars: int
    rows: tuple[tuple[tuple[int, ...], int, tuple[bool, ...]], ...]
    side: Optional[tuple[str, int, int, int]] = None
    protected: frozenset[int] = frozenset()

    def holds(self, values: tuple[int, ...]) -> bool:
        for coeffs, const, _ in self.rows:
            if sum(a * v for a, v in zip(coeffs, values)) % MODULUS != const:
                return False
        if self.side is None:
            return True
        op, i, j, bound = self.side
        operand = values[i] if j < 0 else values[i] * values[j] % MODULUS
        if op == "ult":
            return operand < bound
        return to_signed(operand, WIDTH) < to_signed(bound, WIDTH)

    def terms(self, mgr: TermManager):
        variables = [mgr.bv_var(name, WIDTH) for name in NAMES[:self.nvars]]

        def const(value: int):
            return mgr.bv_const(value % MODULUS, WIDTH)

        def scaled(coeff: int, var):
            return var if coeff == 1 else mgr.bvmul(const(coeff), var)

        def total(parts):
            acc = parts[0] if parts else const(0)
            for part in parts[1:]:
                acc = mgr.bvadd(acc, part)
            return acc

        constraints = []
        for coeffs, value, on_right in self.rows:
            lhs, rhs = [], [const(value)] if value else []
            for coeff, var, right in zip(coeffs, variables, on_right):
                if coeff == 0:
                    continue
                if right:
                    rhs.append(scaled(-coeff % MODULUS, var))
                else:
                    lhs.append(scaled(coeff, var))
            constraints.append(mgr.eq(total(lhs), total(rhs)))
        if self.side is not None:
            op, i, j, bound = self.side
            operand = variables[i] if j < 0 \
                else mgr.bvmul(variables[i], variables[j])
            compare = mgr.ult if op == "ult" else mgr.slt
            constraints.append(compare(operand, const(bound)))
        return variables, constraints


def domain(var) -> range:
    """Every value of ``var``: 0/1 for a Boolean, else width 4."""
    return range(2) if var.sort.is_bool else range(MODULUS)


def check_pass(name: str, system) -> None:
    """Both properties of the module docstring for pass ``name``."""
    mgr = TermManager()
    variables, constraints = system.terms(mgr)
    points = list(itertools.product(*map(domain, variables)))
    inputs = [values for values in points if system.holds(values)]
    for values in inputs[:3] + random.Random(repr(system)).sample(points, 3):
        env = dict(zip(variables, values))
        assert all(evaluate(c, env) for c in constraints) \
            == system.holds(values), (system, values)

    protected = [variables[i] for i in sorted(system.protected)]
    result = Preprocessor(mgr, enabled=(name,),
                          protected=protected).run(constraints)
    if result.verdict is Verdict.UNSAT:
        assert not inputs, system
        return
    scope = set(protected)
    for constraint in result.constraints:
        scope |= constraint.free_vars()
    assert scope <= set(variables), system
    scope = sorted(scope, key=lambda var: var.tid)

    reached = set()
    for point in itertools.product(*map(domain, scope)):
        model = dict(zip(scope, point))
        if not all(evaluate(c, model) for c in result.constraints):
            continue
        reached.add(tuple(model[var] for var in protected))
        completed = result.complete_model(model)
        assert all(completed[var] == model[var] for var in scope), \
            (system, model)
        assert system.holds(tuple(completed.get(var, 0)
                                  for var in variables)), (system, model)
    expected = {tuple(values[i] for i in sorted(system.protected))
                for values in inputs}
    assert reached == expected, system


#: Coefficients and constants of the enumerated single rows: zero, odd
#: (invertible) and even values of every 2-adic valuation.
ROW_COEFFS = (0, 1, 2, 3, 4, 8, 15)
ROW_CONSTS = (0, 1, 4, 6)


def single_rows(protected: frozenset[int]) -> list[System]:
    """Every ``a*x + b*y = c`` over ROW_COEFFS and ROW_CONSTS, written
    as a sum and as ``a*x = c - b*y``."""
    return [System(2, (((a, b), c, (False, right)),), protected=protected)
            for a, b, c, right in itertools.product(
                ROW_COEFFS, ROW_COEFFS, ROW_CONSTS, (False, True))]


def random_system(rng: random.Random) -> System:
    """One to three rows over three variables, half of them sharing a
    planted solution, an optional comparison, and up to two protected
    variables."""
    nvars = 3
    planted = [rng.randrange(MODULUS) for _ in range(nvars)]
    rows = []
    for _ in range(rng.randint(1, 3)):
        coeffs = tuple(rng.choice((0, 0, rng.randrange(1, MODULUS, 2),
                                   rng.randrange(2, MODULUS, 2)))
                       for _ in range(nvars))
        if rng.random() < 0.5:
            const = sum(a * v for a, v in zip(coeffs, planted)) % MODULUS
        else:
            const = rng.randrange(MODULUS)
        rows.append((coeffs, const,
                     tuple(rng.random() < 0.3 for _ in range(nvars))))
    side = None
    if rng.random() < 0.5:
        side = (rng.choice(("ult", "slt")), rng.randrange(nvars),
                rng.choice((-1, rng.randrange(nvars))),
                rng.randrange(1, MODULUS))
    protected = frozenset(rng.sample(range(nvars), rng.randint(0, 2)))
    return System(nvars, tuple(rows), side, protected)


class TestGaussian:
    @pytest.mark.parametrize("protected", [(), (0,), (1,), (0, 1)],
                             ids=["none", "x", "y", "xy"])
    def test_single_rows(self, protected):
        for system in single_rows(frozenset(protected)):
            check_pass("gaussian", system)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_systems(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            check_pass("gaussian", random_system(rng))


@dataclass(frozen=True)
class Chain:
    """Bindings and definitions over x, y, z and a Boolean p (variable
    index 3), for ``constants`` and ``equalities``.  Each atom is

    * ``("const", i, k)``: ``v_i = k``;
    * ``("affine", i, j, a, b)``: ``v_i = a * v_j + b``;
    * ``("bool", positive)``: ``p``, or ``not p``;
    * ``("guard", positive, i, k, j, l)``: the literal of ``p`` implies
      ``v_i = k and v_j = l``, so binding ``p`` yields a conjunction of
      two new bindings.

    ``flips`` writes the matching equations right to left."""

    atoms: tuple[tuple, ...]
    flips: tuple[bool, ...]
    protected: frozenset[int] = frozenset()
    nvars = 4

    def holds(self, values: tuple[int, ...]) -> bool:
        p = values[3]
        for atom in self.atoms:
            kind = atom[0]
            if kind == "const":
                ok = values[atom[1]] == atom[2]
            elif kind == "affine":
                _, i, j, a, b = atom
                ok = values[i] == (a * values[j] + b) % MODULUS
            elif kind == "bool":
                ok = p == atom[1]
            else:
                _, positive, i, k, j, l = atom
                ok = p != positive or (values[i] == k and values[j] == l)
            if not ok:
                return False
        return True

    def terms(self, mgr: TermManager):
        variables = [mgr.bv_var(name, WIDTH) for name in NAMES]
        variables.append(mgr.bool_var("p"))
        p = variables[3]

        def const(value: int):
            return mgr.bv_const(value % MODULUS, WIDTH)

        def equation(var, value, flip: bool):
            return mgr.eq(value, var) if flip else mgr.eq(var, value)

        constraints = []
        for atom, flip in zip(self.atoms, self.flips):
            kind = atom[0]
            if kind == "const":
                constraints.append(
                    equation(variables[atom[1]], const(atom[2]), flip))
            elif kind == "affine":
                _, i, j, a, b = atom
                value = variables[j] if a == 1 \
                    else mgr.bvmul(const(a), variables[j])
                if b:
                    value = mgr.bvadd(value, const(b))
                constraints.append(equation(variables[i], value, flip))
            elif kind == "bool":
                constraints.append(p if atom[1] else mgr.not_(p))
            else:
                _, positive, i, k, j, l = atom
                literal = p if positive else mgr.not_(p)
                constraints.append(mgr.or_(
                    mgr.not_(literal),
                    mgr.and_(equation(variables[i], const(k), flip),
                             equation(variables[j], const(l), flip))))
        return variables, constraints


def random_chain(rng: random.Random, protected: frozenset[int]) -> Chain:
    """``x = k``, ``y = x + c``, ``z = a*y + b`` over a random order of
    x, y and z, plus some of: a duplicate atom, a second (usually
    conflicting) constant, ``p`` asserted and maybe negated, a guarded
    pair of bindings and a stray definition that may close a cycle.
    The atoms are shuffled, so a binding can come after its use."""
    order = rng.sample(range(3), 3)
    atoms = [("const", order[0], rng.randrange(MODULUS))]
    for previous, var in zip(order, order[1:]):
        atoms.append(("affine", var, previous, rng.choice((1, 1, 2, 3, 15)),
                      rng.randrange(MODULUS)))
    if rng.random() < 0.4:
        atoms.append(rng.choice(atoms))
    if rng.random() < 0.3:
        atoms.append(("const", rng.randrange(3), rng.randrange(MODULUS)))
    if rng.random() < 0.5:
        positive = rng.random() < 0.5
        atoms.append(("bool", positive))
        if rng.random() < 0.3:
            atoms.append(("bool", not positive))
    if rng.random() < 0.4:
        i, j = rng.sample(range(3), 2)
        atoms.append(("guard", rng.random() < 0.5, i, rng.randrange(MODULUS),
                      j, rng.randrange(MODULUS)))
    if rng.random() < 0.3:
        i, j = rng.sample(range(3), 2)
        atoms.append(("affine", i, j, rng.choice((1, 3, 4)),
                      rng.randrange(MODULUS)))
    rng.shuffle(atoms)
    return Chain(tuple(atoms), tuple(rng.random() < 0.3 for _ in atoms),
                 protected)


#: Protected sets for the chain families: none, the chain variables,
#: the Boolean, and a mix.
CHAIN_PROTECTED = {"none": (), "x": (0,), "z": (2,), "p": (3,),
                   "xp": (0, 3)}


@pytest.mark.parametrize("name", ["constants", "equalities"])
class TestChains:
    @pytest.mark.parametrize("protected", sorted(CHAIN_PROTECTED))
    @pytest.mark.parametrize("seed", range(2))
    def test_random_chains(self, name, protected, seed):
        rng = random.Random(f"{seed}-{protected}")
        for _ in range(30):
            check_pass(name, random_chain(
                rng, frozenset(CHAIN_PROTECTED[protected])))

    @pytest.mark.parametrize("protected", ["none", "z", "p"])
    def test_every_order_of_one_chain(self, name, protected):
        """``x = 5``, ``y = x + 3``, ``z = 3*y + 1`` and ``p``, with
        ``x = 5`` twice, in every order."""
        atoms = (("const", 0, 5), ("affine", 1, 0, 1, 3),
                 ("affine", 2, 1, 3, 1), ("bool", True))
        for order in sorted(set(itertools.permutations(atoms + atoms[:1]))):
            check_pass(name, Chain(order, (False,) * 5,
                                   frozenset(CHAIN_PROTECTED[protected])))
