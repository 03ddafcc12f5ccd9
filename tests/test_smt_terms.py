"""Unit tests for the hash-consed term DAG."""

import pytest
from hypothesis import given, settings

from repro.smt import BOOL, Sort, TermManager, bitvec, to_sexpr
from repro.smt.terms import Op
from strategies import bool_terms, make_manager


@pytest.fixture
def mgr() -> TermManager:
    return TermManager()


class TestInterning:
    def test_identical_constructions_are_the_same_object(self, mgr):
        x = mgr.bv_var("x", 8)
        y = mgr.bv_var("y", 8)
        assert mgr.bvadd(x, y) is mgr.bvadd(x, y)

    def test_distinct_constructions_differ(self, mgr):
        x = mgr.bv_var("x", 8)
        y = mgr.bv_var("y", 8)
        assert mgr.bvadd(x, y) is not mgr.bvadd(y, x)

    def test_same_name_different_sorts_are_distinct_vars(self, mgr):
        assert mgr.bv_var("v", 8) is not mgr.bv_var("v", 16)
        assert mgr.bv_var("v", 8) is not mgr.bool_var("v")

    def test_constants_are_normalised_modulo_width(self, mgr):
        assert mgr.bv_const(256, 8) is mgr.bv_const(0, 8)
        assert mgr.bv_const(-1, 8) is mgr.bv_const(255, 8)

    def test_manager_len_counts_interned_terms(self, mgr):
        before = len(mgr)
        x = mgr.bv_var("x", 8)
        mgr.bvadd(x, x)
        mgr.bvadd(x, x)  # duplicate: no new node
        assert len(mgr) == before + 2


class TestKernel:
    """Sorts are cached per width, leaf flags are stored on each term and
    the intern key holds a sort's width."""

    @pytest.mark.parametrize("width", [1, 4, 8, 32])
    def test_bitvec_is_one_object_per_width(self, width):
        assert bitvec(width) is bitvec(width)
        assert Sort(width) == bitvec(width)
        assert hash(Sort(width)) == hash(bitvec(width))

    def test_bitvec_rejects_nonpositive_widths(self):
        for width in (0, -1):
            with pytest.raises(ValueError):
                bitvec(width)

    def test_bool_and_bitvec_vars_with_one_name_stay_distinct(self, mgr):
        flag, word = mgr.bool_var("v"), mgr.bv_var("v", 1)
        assert flag is not word
        assert (flag.sort, word.sort) == (BOOL, bitvec(1))
        assert mgr.var("v", Sort(0)) is flag
        assert mgr.var("v", Sort(1)) is word
        assert flag.tid != word.tid

    @settings(max_examples=100, deadline=None)
    @given(bool_terms(*make_manager()))
    def test_leaf_flags_agree_with_the_operator(self, term):
        for node in term.iter_dag():
            assert node.is_var is (node.op is Op.VAR)
            assert node.is_const is (node.op in (Op.CONST, Op.TRUE,
                                                 Op.FALSE))


class TestSortChecking:
    def test_mixed_width_addition_rejected(self, mgr):
        with pytest.raises(TypeError):
            mgr.bvadd(mgr.bv_var("x", 8), mgr.bv_var("y", 16))

    def test_bool_arithmetic_rejected(self, mgr):
        with pytest.raises(TypeError):
            mgr.bvadd(mgr.bool_var("p"), mgr.bool_var("q"))

    def test_bv_used_as_condition_rejected(self, mgr):
        x = mgr.bv_var("x", 8)
        with pytest.raises(TypeError):
            mgr.ite(x, x, x)

    def test_ite_branch_mismatch_rejected(self, mgr):
        p = mgr.bool_var("p")
        with pytest.raises(TypeError):
            mgr.ite(p, mgr.bv_var("x", 8), mgr.bool_var("q"))

    def test_eq_sort_mismatch_rejected(self, mgr):
        with pytest.raises(TypeError):
            mgr.eq(mgr.bv_var("x", 8), mgr.bool_var("p"))


class TestAccessors:
    def test_var_name(self, mgr):
        assert mgr.bv_var("width", 8).name == "width"

    def test_name_on_non_var_raises(self, mgr):
        with pytest.raises(ValueError):
            _ = mgr.bv_const(1, 8).name

    def test_const_values(self, mgr):
        assert mgr.bv_const(42, 8).value == 42
        assert mgr.true.value == 1
        assert mgr.false.value == 0

    def test_value_on_non_const_raises(self, mgr):
        with pytest.raises(ValueError):
            _ = mgr.bv_var("x", 8).value


class TestDagTraversal:
    def test_iter_dag_children_before_parents(self, mgr):
        x = mgr.bv_var("x", 8)
        y = mgr.bv_var("y", 8)
        expr = mgr.bvmul(mgr.bvadd(x, y), x)
        order = list(expr.iter_dag())
        positions = {t.tid: i for i, t in enumerate(order)}
        for term in order:
            for arg in term.args:
                assert positions[arg.tid] < positions[term.tid]

    def test_dag_size_counts_shared_nodes_once(self, mgr):
        x = mgr.bv_var("x", 8)
        shared = mgr.bvadd(x, x)
        expr = mgr.bvmul(shared, shared)
        # nodes: x, shared, expr
        assert expr.dag_size() == 3

    def test_free_vars(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        p = mgr.bool_var("p")
        expr = mgr.ite(p, mgr.bvadd(x, y), x)
        assert expr.free_vars() == {x, y, p}


class TestSubstitution:
    def test_substitute_variable(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        expr = mgr.bvadd(x, mgr.bvmul(x, y))
        result = mgr.substitute(expr, {x: mgr.bv_const(3, 8)})
        three = mgr.bv_const(3, 8)
        assert result is mgr.bvadd(three, mgr.bvmul(three, y))

    def test_substitute_subterm(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        inner = mgr.bvadd(x, y)
        expr = mgr.bvmul(inner, x)
        result = mgr.substitute(expr, {inner: y})
        assert result is mgr.bvmul(y, x)

    def test_substitute_is_simultaneous(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        expr = mgr.bvadd(x, y)
        result = mgr.substitute(expr, {x: y, y: x})
        assert result is mgr.bvadd(y, x)

    def test_rename_suffixes_all_vars(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        expr = mgr.eq(mgr.bvadd(x, y), mgr.bv_const(0, 8))
        renamed = mgr.rename(expr, "#1")
        names = {v.name for v in renamed.free_vars()}
        assert names == {"x#1", "y#1"}

    def test_rename_preserves_structure_size(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        expr = mgr.eq(mgr.bvadd(x, y), mgr.bv_const(0, 8))
        assert mgr.rename(expr, "#1").dag_size() == expr.dag_size()


class TestFreshVars:
    def test_fresh_vars_are_distinct(self, mgr):
        a = mgr.fresh_var(BOOL)
        b = mgr.fresh_var(BOOL)
        assert a is not b

    def test_fresh_var_sort(self, mgr):
        assert mgr.fresh_var(bitvec(8)).sort == bitvec(8)


class TestPrinting:
    def test_sexpr_round_structure(self, mgr):
        x = mgr.bv_var("x", 8)
        expr = mgr.eq(mgr.bvadd(x, mgr.bv_const(1, 8)), x)
        assert to_sexpr(expr) == "(= (bvadd x #x01) x)"

    def test_sexpr_depth_limit(self, mgr):
        x = mgr.bv_var("x", 8)
        expr = x
        for _ in range(10):
            expr = mgr.bvadd(expr, x)
        assert "..." in to_sexpr(expr, max_depth=2)
