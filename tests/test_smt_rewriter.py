"""Unit and property tests for the local rewriter (LFS tactic)."""

import pytest
from hypothesis import given, settings

from repro.smt import Op, TermManager, evaluate, simplify
from strategies import all_assignments, bool_terms, make_manager


@pytest.fixture
def mgr():
    return TermManager()


class TestConstantFolding:
    def test_arith_folds(self, mgr):
        expr = mgr.bvadd(mgr.bv_const(200, 8), mgr.bv_const(100, 8))
        assert simplify(mgr, expr) is mgr.bv_const(44, 8)

    def test_comparison_folds(self, mgr):
        expr = mgr.slt(mgr.bv_const(255, 8), mgr.bv_const(1, 8))
        assert simplify(mgr, expr) is mgr.true

    def test_nested_folding(self, mgr):
        one = mgr.bv_const(1, 8)
        expr = mgr.eq(mgr.bvadd(one, mgr.bvmul(one, one)), mgr.bv_const(2, 8))
        assert simplify(mgr, expr) is mgr.true


class TestBooleanRules:
    def test_double_negation(self, mgr):
        p = mgr.bool_var("p")
        assert simplify(mgr, mgr.not_(mgr.not_(p))) is p

    def test_and_absorbs_true_false(self, mgr):
        p = mgr.bool_var("p")
        assert simplify(mgr, mgr.and_(p, mgr.true)) is p
        assert simplify(mgr, mgr.and_(p, mgr.false)) is mgr.false

    def test_and_contradiction(self, mgr):
        p = mgr.bool_var("p")
        assert simplify(mgr, mgr.and_(p, mgr.not_(p))) is mgr.false

    def test_or_tautology(self, mgr):
        p = mgr.bool_var("p")
        assert simplify(mgr, mgr.or_(p, mgr.not_(p))) is mgr.true

    def test_and_dedupes(self, mgr):
        p, q = mgr.bool_var("p"), mgr.bool_var("q")
        result = simplify(mgr, mgr.and_(p, q, p, q, p))
        assert result.op is Op.AND and len(result.args) == 2

    def test_implies_reflexive(self, mgr):
        p = mgr.bool_var("p")
        assert simplify(mgr, mgr.implies(p, p)) is mgr.true

    def test_eq_with_true_erases(self, mgr):
        p = mgr.bool_var("p")
        assert simplify(mgr, mgr.eq(p, mgr.true)) is p
        assert simplify(mgr, mgr.eq(mgr.false, p)) is simplify(
            mgr, mgr.not_(p))

    def test_xor_self_cancels(self, mgr):
        p = mgr.bool_var("p")
        assert simplify(mgr, mgr.xor(p, p)) is mgr.false


class TestIteRules:
    def test_constant_condition(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        assert simplify(mgr, mgr.ite(mgr.true, x, y)) is x
        assert simplify(mgr, mgr.ite(mgr.false, x, y)) is y

    def test_equal_branches(self, mgr):
        p = mgr.bool_var("p")
        x = mgr.bv_var("x", 8)
        assert simplify(mgr, mgr.ite(p, x, x)) is x

    def test_bool_ite_to_condition(self, mgr):
        p = mgr.bool_var("p")
        assert simplify(mgr, mgr.ite(p, mgr.true, mgr.false)) is p
        assert simplify(mgr, mgr.ite(p, mgr.false, mgr.true)) is simplify(
            mgr, mgr.not_(p))


class TestBitvectorRules:
    def test_add_zero(self, mgr):
        x = mgr.bv_var("x", 8)
        assert simplify(mgr, mgr.bvadd(x, mgr.bv_const(0, 8))) is x

    def test_sub_self(self, mgr):
        x = mgr.bv_var("x", 8)
        assert simplify(mgr, mgr.bvsub(x, x)) is mgr.bv_const(0, 8)

    def test_mul_identities(self, mgr):
        x = mgr.bv_var("x", 8)
        assert simplify(mgr, mgr.bvmul(x, mgr.bv_const(1, 8))) is x
        assert simplify(mgr, mgr.bvmul(x, mgr.bv_const(0, 8))) \
            is mgr.bv_const(0, 8)

    def test_and_or_identities(self, mgr):
        x = mgr.bv_var("x", 8)
        ones = mgr.bv_const(255, 8)
        zero = mgr.bv_const(0, 8)
        assert simplify(mgr, mgr.bvand(x, ones)) is x
        assert simplify(mgr, mgr.bvand(x, zero)) is zero
        assert simplify(mgr, mgr.bvor(x, zero)) is x
        assert simplify(mgr, mgr.bvor(x, ones)) is ones

    def test_xor_self_zero(self, mgr):
        x = mgr.bv_var("x", 8)
        assert simplify(mgr, mgr.bvxor(x, x)) is mgr.bv_const(0, 8)

    def test_shift_zero(self, mgr):
        x = mgr.bv_var("x", 8)
        assert simplify(mgr, mgr.bvshl(x, mgr.bv_const(0, 8))) is x

    def test_irreflexive_comparisons(self, mgr):
        x = mgr.bv_var("x", 8)
        assert simplify(mgr, mgr.slt(x, x)) is mgr.false
        assert simplify(mgr, mgr.ult(x, x)) is mgr.false
        assert simplify(mgr, mgr.sle(x, x)) is mgr.true

    def test_ult_zero_false(self, mgr):
        x = mgr.bv_var("x", 8)
        assert simplify(mgr, mgr.ult(x, mgr.bv_const(0, 8))) is mgr.false

    def test_commutative_canonicalisation_merges_terms(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        assert simplify(mgr, mgr.bvadd(x, y)) is simplify(mgr, mgr.bvadd(y, x))


class TestIdempotence:
    def test_simplify_is_idempotent_on_examples(self, mgr):
        p = mgr.bool_var("p")
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        exprs = [
            mgr.and_(p, mgr.not_(mgr.not_(p))),
            mgr.eq(mgr.bvadd(x, mgr.bv_const(0, 8)), mgr.bvmul(y, y)),
            mgr.ite(p, mgr.slt(x, y), mgr.slt(y, x)),
        ]
        for expr in exprs:
            once = simplify(mgr, expr)
            assert simplify(mgr, once) is once

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=__import__("hypothesis").strategies.data())
    def test_simplify_is_idempotent(self, data):
        """Preprocessing keeps a constraint that no substitution touched
        as is, which is sound only if simplifying it again would give
        the same term and intern nothing."""
        mgr, bv_vars, bool_vars = make_manager()
        once = simplify(mgr, data.draw(bool_terms(mgr, bv_vars, bool_vars)))
        size = len(mgr)
        assert simplify(mgr, once) is once
        assert len(mgr) == size


class TestSharedMemo:
    def test_second_call_reuses_memo_and_interns_nothing(self, mgr):
        p = mgr.bool_var("p")
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        shared = mgr.bvadd(mgr.bvmul(x, mgr.bv_const(1, 8)), y)
        expr = mgr.ite(p, mgr.slt(shared, y), mgr.eq(shared, x))
        memo = {}
        first = simplify(mgr, expr, memo)
        size = len(mgr)
        assert simplify(mgr, expr, memo) is first
        assert len(mgr) == size
        # A new term over the memoised sub-DAG reuses it as well.
        bigger = mgr.not_(expr)
        assert simplify(mgr, bigger, memo) is simplify(mgr, bigger)

    def test_memo_matches_fresh_calls(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        terms = [mgr.bvsub(mgr.bvadd(y, x), mgr.bvadd(x, y)),
                 mgr.ult(mgr.bvadd(x, y), mgr.bv_const(0, 8)),
                 mgr.eq(mgr.bvadd(x, y), mgr.bvadd(y, x))]
        memo = {}
        assert [simplify(mgr, t, memo) for t in terms] \
            == [simplify(mgr, t) for t in terms]


class TestSoundnessProperty:
    @settings(max_examples=150, deadline=None)
    @given(data=__import__("hypothesis").strategies.data())
    def test_simplify_preserves_semantics(self, data):
        mgr, bv_vars, bool_vars = make_manager()
        term = data.draw(bool_terms(mgr, bv_vars, bool_vars))
        simplified = simplify(mgr, term)
        assert simplified.dag_size() <= term.dag_size() + 1
        # Spot-check a handful of assignments rather than the full 2^14.
        for i, env in enumerate(all_assignments(bv_vars, bool_vars)):
            if i % 977 == 0 or i < 4:
                assert evaluate(term, env) == evaluate(simplified, env)
