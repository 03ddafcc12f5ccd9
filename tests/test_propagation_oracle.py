"""Indexed constant and equality propagation against the rescanning loops.

``tests/propagation_oracle.py`` keeps the loops that rescanned the whole
constraint set after every step.  The indexed passes must make the same
eliminations in the same order.  Constraint sets drawn here mix
bindings (``x = k``, written either way round), definitions (``x = t``),
asserted Boolean literals and guarded conjunctions, so bindings chain,
conflict, repeat and appear only after a substitution.

* With equality propagation alone, both sides must intern the same terms
  with the same ids.
* With every pass, the indexed constant pass interns fewer terms: it
  never substitutes into a binding (``x = k`` becoming ``k = k``).  The
  residual must still be the same DAG with its nodes in the same
  relative creation order, with the same statistics and completion
  steps.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import Preprocessor, TermManager
from repro.smt.terms import Term
from propagation_oracle import rescan_passes
from strategies import WIDTH, bool_terms, bv_terms, make_manager
from test_term_walk_oracle import both_sides, tids


@st.composite
def chained_sets(draw):
    manager, bv_vars, bool_vars = make_manager()
    variables = st.sampled_from(bv_vars)
    constants = st.integers(0, (1 << WIDTH) - 1).map(
        lambda value: manager.bv_const(value, WIDTH))
    bvs = bv_terms(manager, bv_vars, st.sampled_from(bool_vars))
    bools = bool_terms(manager, bv_vars, bool_vars)
    literals = st.sampled_from(
        bool_vars + [manager.not_(p) for p in bool_vars])
    bindings = st.one_of(
        st.tuples(variables, constants).map(lambda t: manager.eq(*t)),
        st.tuples(constants, variables).map(lambda t: manager.eq(*t)))
    definitions = st.tuples(variables, bvs).map(lambda t: manager.eq(*t))
    guarded = st.tuples(literals, st.one_of(bindings, bools),
                        st.one_of(bindings, definitions)).map(
        lambda t: manager.or_(manager.not_(t[0]), manager.and_(t[1], t[2])))
    return draw(st.lists(st.one_of(bindings, definitions, literals, guarded,
                                   bools),
                         min_size=1, max_size=6))


PROTECTED = st.sets(st.sampled_from(["x0", "x1", "p0"]))


def protected(manager: TermManager, names) -> list[Term]:
    return [v for v in (manager.bv_var("x0", WIDTH),
                        manager.bv_var("x1", WIDTH), manager.bool_var("p0"))
            if v.payload in names]


def shape(constraints: list[Term]) -> tuple[list, list]:
    """The residual DAG with each term id replaced by its rank among the
    DAG's ids: (root ranks, (op, payload, sort, arg ranks) per node in
    id order)."""
    nodes: dict[int, Term] = {}
    stack = list(constraints)
    while stack:
        term = stack.pop()
        if term.tid not in nodes:
            nodes[term.tid] = term
            stack.extend(term.args)
    order = sorted(nodes)
    rank = {tid: i for i, tid in enumerate(order)}
    return ([rank[c.tid] for c in constraints],
            [(nodes[tid].op.value, nodes[tid].payload, repr(nodes[tid].sort),
              tuple(rank[arg.tid] for arg in nodes[tid].args))
             for tid in order])


def run_record(manager: TermManager, terms: list[Term], names,
               enabled=None) -> tuple:
    result = Preprocessor(manager, enabled=enabled,
                          protected=protected(manager, names)).run(terms)
    return (result.verdict, result.constraints,
            dataclasses.astuple(result.stats),
            [step.description for step in result.completions])


def check_against_oracle(terms: list[Term], names, enabled=None) -> None:
    """Both properties of the module docstring; term ids must match
    too when constant propagation is off."""
    (fast, fast_terms), (oracle, oracle_terms) = both_sides(terms)
    got = run_record(fast, fast_terms, names, enabled)
    with rescan_passes():
        expected = run_record(oracle, oracle_terms, names, enabled)
    assert got[0] == expected[0] and got[2:] == expected[2:]
    assert shape(got[1]) == shape(expected[1])
    if enabled is not None and "constants" not in enabled:
        assert tids(got[1]) == tids(expected[1])
        assert len(fast) == len(oracle)
    else:
        assert len(fast) <= len(oracle)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(chained_sets(), PROTECTED)
def test_equalities_intern_like_the_rescanning_pass(terms, names):
    check_against_oracle(terms, names, ("equalities",))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(chained_sets(), PROTECTED)
def test_every_pass_eliminates_like_the_rescanning_passes(terms, names):
    check_against_oracle(terms, names)


def test_a_rewritten_earlier_equation_comes_first():
    """Eliminating ``x2`` turns the first constraint into an equation
    for ``x1``, which must be eliminated before the later one for
    ``x0``."""
    mgr, (x0, x1, x2), _ = make_manager()
    one = mgr.bv_const(1, WIDTH)
    terms = [mgr.eq(mgr.bvadd(x0, one), mgr.bvmul(x1, x2)), mgr.eq(x2, one),
             mgr.eq(x0, mgr.bvadd(x1, mgr.bv_const(3, WIDTH))),
             mgr.ult(x0, x1)]
    check_against_oracle(terms, (), ("equalities",))


def test_a_rewrite_keeps_the_first_copy_of_a_duplicate():
    """Binding ``p0`` turns the first constraint into a copy of the
    third; the copy in first position is the one kept."""
    mgr, (x0, x1, x2), (p0, _) = make_manager()
    terms = [mgr.or_(mgr.not_(p0), mgr.ult(x1, x2)), mgr.ult(x0, x1),
             mgr.ult(x1, x2), p0]
    check_against_oracle(terms, (), ("constants",))
