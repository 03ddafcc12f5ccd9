"""The one-walk term operations against the walks they replaced.

``tests/term_walk_oracle.py`` keeps the generator ``iter_dag``, the
two-walk ``rename``, the per-constraint ``constraint_set_size``, the
subset-test ``_substitute_all`` and the pair-walk ``simplify`` with its
``sorted`` argument order.  Terms drawn from ``tests/strategies.py``
are replayed into two fresh managers, so both start from the same ids;
one side runs the current operations, the other the oracle's.  They
must agree on the ``iter_dag`` order, on the result ids of ``rename``,
``substitute``, ``simplify`` and ``Preprocessor.run``, on
``constraint_set_size`` and on how many terms each manager ends up
holding (for ``simplify``, on every term it holds, in id order): term
ids are interning order, and everything downstream (argument order,
CNF, the SAT search) rests on them.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import Preprocessor, TermManager, constraint_set_size
from repro.smt.rewriter import simplify
from repro.smt.terms import Op, Term
from strategies import bool_terms, bv_terms, make_manager
from term_walk_oracle import (oracle_constraint_set_size, oracle_iter_dag,
                              oracle_rename, oracle_simplify,
                              oracle_substitute, parent_walks)


def replay(manager: TermManager, terms: list[Term]) -> list[Term]:
    """Intern ``terms`` into ``manager``, arguments left to right before
    their parent: a walk of its own, the same on both sides."""
    memo: dict[int, Term] = {}

    def copy(term: Term) -> Term:
        if term.tid not in memo:
            if term.op is Op.VAR:
                memo[term.tid] = manager.var(term.payload, term.sort)
            elif term.op is Op.CONST:
                memo[term.tid] = manager.bv_const(term.payload,
                                                  term.sort.width)
            elif not term.args:
                memo[term.tid] = manager.bool_const(term.op is Op.TRUE)
            else:
                memo[term.tid] = manager.rebuild(
                    term, tuple(copy(arg) for arg in term.args))
        return memo[term.tid]

    return [copy(term) for term in terms]


def both_sides(terms: list[Term]):
    """(manager, replayed terms) for the fast side and the oracle side."""
    fast, oracle = TermManager(), TermManager()
    return (fast, replay(fast, terms)), (oracle, replay(oracle, terms))


def tids(terms) -> list[int]:
    return [term.tid for term in terms]


@st.composite
def constraint_sets(draw, min_size=1, max_size=4):
    """Boolean terms plus ``x = t`` definitions, so that equality
    propagation and Gaussian elimination have something to eliminate."""
    manager, bv_vars, bool_vars = make_manager()
    bvs = bv_terms(manager, bv_vars, st.sampled_from(bool_vars))
    definitions = st.tuples(st.sampled_from(bv_vars), bvs).map(
        lambda pair: manager.eq(*pair))
    return draw(st.lists(
        st.one_of(bool_terms(manager, bv_vars, bool_vars), definitions),
        min_size=min_size, max_size=max_size))


@settings(max_examples=100, deadline=None)
@given(constraint_sets())
def test_iter_dag_visits_in_the_oracle_order(terms):
    for term in terms:
        assert tids(term.iter_dag()) == tids(oracle_iter_dag(term))
        assert term.dag_size() == len(list(oracle_iter_dag(term)))


@settings(max_examples=50, deadline=None)
@given(constraint_sets(max_size=6))
def test_constraint_set_size_matches_the_oracle(terms):
    assert constraint_set_size(terms) == oracle_constraint_set_size(terms)


@settings(max_examples=80, deadline=None)
@given(constraint_sets())
def test_rename_interns_like_the_oracle(terms):
    (fast, fast_terms), (oracle, oracle_terms) = both_sides(terms)
    for suffix in ("#1", "#2"):
        renamed = [fast.rename(t, suffix) for t in fast_terms]
        expected = [oracle_rename(oracle, t, suffix) for t in oracle_terms]
        assert tids(renamed) == tids(expected)
        # Renaming a clone again walks terms the first rename interned.
        assert tids(fast.rename(t, "@") for t in renamed) == \
            tids(oracle_rename(oracle, t, "@") for t in expected)
    assert len(fast) == len(oracle)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_substitute_interns_like_the_oracle(data):
    manager, bv_vars, bool_vars = make_manager()
    target = data.draw(bool_terms(manager, bv_vars, bool_vars))
    keys = data.draw(st.lists(st.sampled_from(target.iter_dag()),
                              min_size=1, max_size=3, unique=True))
    bools = bool_terms(manager, bv_vars, bool_vars)
    bvs = bv_terms(manager, bv_vars, st.sampled_from(bool_vars))
    values = [data.draw(bools if key.sort.is_bool else bvs) for key in keys]
    (fast, fast_terms), (oracle, oracle_terms) = \
        both_sides([target] + keys + values)
    n = len(keys)

    def mapping(replayed):
        return dict(zip(replayed[1:1 + n], replayed[1 + n:]))

    got = fast.substitute(fast_terms[0], mapping(fast_terms))
    expected = oracle_substitute(oracle, oracle_terms[0],
                                 mapping(oracle_terms))
    assert got.tid == expected.tid
    assert len(fast) == len(oracle)


@settings(max_examples=80, deadline=None)
@given(constraint_sets(max_size=6))
def test_simplify_interns_like_the_oracle(terms):
    """The marker walk and the two-argument ordering intern what the
    pair walk and ``sorted`` did, with a shared memo and without."""
    (fast, fast_terms), (oracle, oracle_terms) = both_sides(terms)
    memo: dict = {}
    got = [simplify(fast, t, memo) for t in fast_terms]
    got += [simplify(fast, t) for t in reversed(fast_terms)]
    with parent_walks():
        oracle_memo: dict = {}
        expected = [oracle_simplify(oracle, t, oracle_memo)
                    for t in oracle_terms]
        expected += [oracle_simplify(oracle, t)
                     for t in reversed(oracle_terms)]
    assert tids(got) == tids(expected)
    assert interned(fast) == interned(oracle)


def interned(manager: TermManager) -> list[tuple]:
    """Every term ``manager`` holds, in id order."""
    return [(term.op, tids(term.args), term.sort.width, term.payload)
            for term in sorted(manager._table.values(),
                               key=lambda term: term.tid)]


def run_record(manager: TermManager, terms: list[Term],
               protected: list[Term]) -> tuple:
    result = Preprocessor(manager, protected=protected).run(terms)
    return (result.verdict, tids(result.constraints),
            dataclasses.astuple(result.stats),
            [step.description for step in result.completions])


@settings(max_examples=80, deadline=None)
@given(constraint_sets(), st.sets(st.sampled_from(["x0", "x1", "p0"])))
def test_preprocessing_interns_like_the_oracle(terms, protected_names):
    (fast, fast_terms), (oracle, oracle_terms) = both_sides(terms)

    def protected(manager):
        return [v for v in (manager.bv_var("x0", 4), manager.bv_var("x1", 4),
                            manager.bool_var("p0"))
                if v.payload in protected_names]

    got = run_record(fast, fast_terms, protected(fast))
    with parent_walks():
        expected = run_record(oracle, oracle_terms, protected(oracle))
    assert got == expected
    assert len(fast) == len(oracle)


def shared_dag(manager: TermManager) -> Term:
    """``and(c, s = y, not c)`` with ``c = (s*x <u s)`` and ``s = x+y``:
    ``c`` and ``s`` are shared, and ``c`` is reached again last."""
    x, y = manager.bv_var("x", 8), manager.bv_var("y", 8)
    s = manager.bvadd(x, y)
    c = manager.ult(manager.bvmul(s, x), s)
    return manager.and_(c, manager.eq(s, y), manager.not_(c))


def test_shared_dag_order_is_pinned():
    """Tids 2..9 are x, y, s, s*x, c, s = y, not c, the and.  The last
    argument's sub-DAG comes first, so ``not c`` pulls in ``c``, ``s``
    and its arguments (``y`` before ``x``) before ``s = y`` is visited."""
    root = shared_dag(TermManager())
    assert tids(root.iter_dag()) == [3, 2, 4, 5, 6, 8, 7, 9]
    assert tids(root.iter_dag()) == tids(oracle_iter_dag(root))
    assert root.dag_size() == 8


def test_shared_dag_renames_like_the_oracle():
    (fast, (fast_root,)), (oracle, (oracle_root,)) = \
        both_sides([shared_dag(TermManager())])
    assert fast.rename(fast_root, "#1").tid == \
        oracle_rename(oracle, oracle_root, "#1").tid
    # The renamed variables come first, in free_vars' set order.
    assert [fast.bv_var(name, 8).tid for name in ("x#1", "y#1")] == [10, 11]
    assert len(fast) == len(oracle)


def deep_chain(manager: TermManager, depth: int = 10_000) -> Term:
    x, y = manager.bv_var("x", 8), manager.bv_var("y", 8)
    term = x
    for i in range(depth):
        term = manager.bvneg(term) if i % 2 else manager.bvadd(term, y)
    return manager.eq(term, x)


def test_a_10000_deep_chain_walks_without_recursion():
    fast, oracle = TermManager(), TermManager()
    fast_root, oracle_root = deep_chain(fast), deep_chain(oracle)
    assert tids(fast_root.iter_dag()) == tids(oracle_iter_dag(oracle_root))
    assert fast_root.dag_size() == 10_000 + 3
    assert {v.payload for v in fast_root.free_vars()} == {"x", "y"}
    assert constraint_set_size([fast_root, fast_root.args[0]]) == \
        oracle_constraint_set_size([oracle_root, oracle_root.args[0]])
    assert fast.rename(fast_root, "#1").tid == \
        oracle_rename(oracle, oracle_root, "#1").tid
    zero = fast.bv_const(0, 8), oracle.bv_const(0, 8)
    assert fast.substitute(fast_root, {fast.bv_var("y", 8): zero[0]}).tid == \
        oracle_substitute(oracle, oracle_root,
                          {oracle.bv_var("y", 8): zero[1]}).tid
    assert len(fast) == len(oracle)
