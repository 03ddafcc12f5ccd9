"""The SAT search is pinned, not just its verdicts.

Every figure below was recorded before the solver's hot paths were
rewritten for speed (docs/solver.md, "Cost").  A rewrite that keeps the
watch-list order, trail order, clause literal order and variable
numbering replays the same search, so these counters and the model
repeat exactly; one that drifts anywhere changes at least one of them.
Findings and ``--witness`` output rest on the model, and
``tests/bench_gate.json`` pins ``sat_clauses``, so a drift here is a
behaviour change, never noise.

The bit-blasted figures were re-recorded once since, on purpose: when
``BitBlaster.solve`` began to seed the input bits' VSIDS activity before
the search (docs/solver.md, "Branching order").  As (conflicts,
decisions, propagations, learned clauses, clauses, model digest), old
-> new:

* commutativity (500-conflict limit): 500, 779, 53,947, 499, 1,804 ->
  500, 872, 56,458, 500, 1,805;
* division identity: 410, 562, 33,477, 398, 1,620 -> 467, 660, 39,341,
  460, 1,682;
* Figure 1(b): 1, 15, 212, 1, 527, ``f5d237f8a266f7f6`` -> 0, 14, 208,
  0, 526, ``8bc5dac66f441bb6``;
* factoring: 8, 39, 602, 8, 727, ``e29593cb6e4b4aa7`` -> 2, 10, 327,
  2, 721, ``ee62cdbf0e2b6e60``.

Statuses and variable counts did not move, and neither did the
pigeonhole searches, which run on a bare ``SatSolver`` with no inputs to
seed.
"""

import hashlib
import importlib.util
import pathlib

import pytest

from repro.smt import BitBlaster, SatSolver, TermManager
import test_smt_sat
from test_smt_sat import LinearScanSolver, add_clauses

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
# Bound through the module so pytest does not collect the class here too.
pigeonhole = test_smt_sat.TestPigeonhole.pigeonhole


def search_record(solver, result):
    """(status, conflicts, decisions, propagations, learned clauses,
    variables, clauses, model digest) of one finished solve."""
    model = repr(sorted(result.model.items())).encode()
    return (result.status.value, result.conflicts, result.decisions,
            result.propagations, solver.learned_clauses, solver.num_vars,
            solver.num_clauses, hashlib.sha256(model).hexdigest()[:16])


def pigeonhole_search(holes):
    solver = SatSolver()
    add_clauses(solver, pigeonhole(holes))
    return search_record(solver, solver.solve())


def blasted_search(terms, conflict_limit=None):
    blaster = BitBlaster()
    for term in terms:
        blaster.assert_true(term)
    result = blaster.solve(conflict_limit=conflict_limit)
    return search_record(blaster.solver, result)


def commutativity(mgr):
    """Width-8 ``x*y != y*x``: UNSAT, but hard for a bit-blaster."""
    x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
    return [mgr.not_(mgr.eq(mgr.bvmul(x, y), mgr.bvmul(y, x)))]


def division_identity(mgr):
    """``d != 0`` and ``a != (a udiv d) * d + (a urem d)`` at width 4."""
    a, d = mgr.bv_var("a", 4), mgr.bv_var("d", 4)
    rebuilt = mgr.bvadd(mgr.bvmul(mgr.bvudiv(a, d), d), mgr.bvurem(a, d))
    return [mgr.not_(mgr.eq(d, mgr.bv_const(0, 4))),
            mgr.not_(mgr.eq(a, rebuilt))]


def figure1(mgr):
    """``examples/smt_playground.py``'s Figure 1(b) path condition."""
    spec = importlib.util.spec_from_file_location(
        "smt_playground", EXAMPLES / "smt_playground.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    _, _, constraints = module.figure1_condition(mgr)
    return constraints


def factoring(mgr):
    """``x * y == 143`` with both factors above 1 at width 8 (SAT)."""
    x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
    one = mgr.bv_const(1, 8)
    return [mgr.eq(mgr.bvmul(x, y), mgr.bv_const(143, 8)),
            mgr.ult(one, x), mgr.ult(one, y)]


UNSAT_MODEL = hashlib.sha256(b"[]").hexdigest()[:16]


@pytest.mark.parametrize("holes, expected", [
    (5, ("unsat", 157, 205, 1855, 150, 30, 231, UNSAT_MODEL)),
    (6, ("unsat", 781, 971, 11237, 774, 42, 907, UNSAT_MODEL)),
])
def test_pigeonhole_search_is_pinned(holes, expected):
    assert pigeonhole_search(holes) == expected


@pytest.mark.parametrize("build, conflict_limit, expected", [
    # The full refutation takes 35,885 conflicts (32,598 before the
    # inputs were seeded); the first 500 pin the search just as well.
    (commutativity, 500,
     ("unknown", 500, 872, 56458, 500, 398, 1805, UNSAT_MODEL)),
    (division_identity, None,
     ("unsat", 467, 660, 39341, 460, 383, 1682, UNSAT_MODEL)),
    (figure1, None,
     ("sat", 0, 14, 208, 0, 233, 526, "8bc5dac66f441bb6")),
    (factoring, None,
     ("sat", 2, 10, 327, 2, 231, 721, "ee62cdbf0e2b6e60")),
], ids=["commutativity", "division-identity", "figure1", "factoring"])
def test_bit_blasted_search_is_pinned(build, conflict_limit, expected):
    assert blasted_search(build(TermManager()), conflict_limit) == expected


def test_linear_scan_oracle_really_scans():
    """``LinearScanSolver`` overrides the heap methods; a hot path that
    filled ``_heap`` without calling them would bypass the oracle."""
    solver = LinearScanSolver()
    add_clauses(solver, pigeonhole(5))
    result = solver.solve()
    assert result.is_unsat
    assert result.decisions > 0
    assert solver._heap == []


@pytest.mark.parametrize("branches, expected", [
    # c == t: [-c, -c, out] loses its duplicate, [-c, c, -out] is dropped.
    (lambda p, q, mgr: (p, q), [[-2, 4], [2, -3, 4], [2, 3, -4]]),
    # c == -e: [c, c, out] loses its duplicate, [c, -c, -out] is dropped.
    (lambda p, q, mgr: (q, mgr.not_(p)), [[-2, -3, 4], [-2, 3, -4], [2, 4]]),
], ids=["condition-is-then", "condition-is-not-else"])
def test_ite_gate_sharing_its_condition_dedupes_clauses(branches, expected):
    """An ITE gate whose condition is also a branch must go through
    ``add_clause``: its Tseitin clauses hold a duplicate literal or a
    tautology, and ``add_gate_clause`` would store them as they are."""
    mgr = TermManager()
    p, q = mgr.bool_var("p"), mgr.bool_var("q")
    blaster = BitBlaster()
    then, other = branches(p, q, mgr)
    assert blaster.literal(mgr.ite(p, then, other)) == 4
    assert (blaster.literal(p), blaster.literal(q)) == (2, 3)
    assert blaster.solver._clauses == expected
