"""Tests for the LFS / HFS / QE tactics used by the Pinpoint variants."""

import pytest

from repro.limits import MemoryBudgetExceeded
from repro.smt import (SmtSolver, TermManager, eliminate_quantifier,
                       evaluate, hfs_simplify, lfs_simplify)


@pytest.fixture
def mgr():
    return TermManager()


class TestLfs:
    def test_is_local_rewriting(self, mgr):
        p = mgr.bool_var("p")
        assert lfs_simplify(mgr, mgr.and_(p, mgr.true)) is p


class TestHfs:
    def test_drops_entailed_conjunct(self, mgr):
        x = mgr.bv_var("x", 8)
        five = mgr.bv_const(5, 8)
        eq = mgr.eq(x, five)
        redundant = mgr.sle(x, five)  # entailed by x == 5
        simplified, queries = hfs_simplify(mgr, mgr.and_(eq, redundant))
        assert queries >= 1
        assert simplified.dag_size() <= mgr.and_(eq, redundant).dag_size()
        # The surviving formula must still pin x to 5.
        result = SmtSolver(mgr).check([simplified], want_model=True)
        assert result.is_sat

    def test_detects_contextual_contradiction(self, mgr):
        x = mgr.bv_var("x", 8)
        formula = mgr.and_(mgr.eq(x, mgr.bv_const(1, 8)),
                           mgr.eq(x, mgr.bv_const(2, 8)))
        simplified, _ = hfs_simplify(mgr, formula)
        assert simplified is mgr.false

    def test_query_budget_respected(self, mgr):
        xs = [mgr.bv_var(f"x{i}", 8) for i in range(6)]
        formula = mgr.conj([mgr.sle(xs[i], xs[i + 1]) for i in range(5)])
        _, queries = hfs_simplify(mgr, formula, max_queries=3)
        assert queries <= 3


class TestQe:
    def test_eliminates_bool_var(self, mgr):
        p, q = mgr.bool_var("p"), mgr.bool_var("q")
        # exists p. (p or q) == true
        result = eliminate_quantifier(mgr, mgr.or_(p, q), [p])
        assert result is mgr.true

    def test_eliminates_bv_var_semantically(self, mgr):
        x = mgr.bv_var("x", 4)
        y = mgr.bv_var("y", 4)
        # exists x. (x == y) is true for every y — the enumeration-based
        # QE yields a (large) disjunction covering the whole domain, which
        # is the size blow-up the paper blames for Pinpoint+QE's failures.
        result = eliminate_quantifier(mgr, mgr.eq(x, y), [x])
        assert x not in result.free_vars()
        for value in range(16):
            assert evaluate(result, {y: value}) == 1

    def test_preserves_free_variable_dependence(self, mgr):
        x = mgr.bv_var("x", 4)
        y = mgr.bv_var("y", 4)
        # exists x. (x+x == y) holds iff y is even.
        formula = mgr.eq(mgr.bvadd(x, x), y)
        result = eliminate_quantifier(mgr, formula, [x])
        assert x not in result.free_vars()
        for value, expected in [(0, 1), (1, 0), (6, 1), (9, 0)]:
            assert evaluate(result, {y: value}) == expected

    def test_blowup_raises_memory_budget(self, mgr):
        xs = [mgr.bv_var(f"x{i}", 8) for i in range(4)]
        y = mgr.bv_var("y", 8)
        formula = mgr.conj([mgr.slt(mgr.bvmul(x, x), mgr.bvmul(y, x))
                            for x in xs])
        with pytest.raises(MemoryBudgetExceeded):
            eliminate_quantifier(mgr, formula, xs, max_size=500)

    def test_untouched_when_var_absent(self, mgr):
        y = mgr.bv_var("y", 4)
        z = mgr.bv_var("z", 4)
        formula = mgr.eq(y, z)
        assert eliminate_quantifier(mgr, formula,
                                    [mgr.bv_var("x", 4)]) is formula
