"""Unit and property tests for the preprocessing pipeline.

The key soundness property: preprocessing preserves satisfiability, and a
model of the residual constraint set extends (via the recorded completion
steps) to a model of the original constraints.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.limits import Deadline, QueryDeadlineExceeded
from repro.smt import (BitBlaster, Op, Preprocessor, SatStatus, SmtSolver,
                       SmtStatus, TermManager, Verdict, evaluate,
                       constraint_set_size, flatten_conjunction, to_sexpr)
from repro.smt import preprocess
from repro.smt.rewriter import _simplify_node
from strategies import WIDTH, all_assignments, bool_terms, make_manager


@pytest.fixture
def mgr():
    return TermManager()


def run(mgr, constraints, **kwargs):
    return Preprocessor(mgr, **kwargs).run(constraints)


class TestFlatten:
    def test_splits_nested_conjunctions(self, mgr):
        p, q, r = (mgr.bool_var(n) for n in "pqr")
        flat = flatten_conjunction([mgr.and_(p, mgr.and_(q, r))])
        assert flat == [p, q, r]

    def test_size_counts_shared_nodes_once(self, mgr):
        x = mgr.bv_var("x", 8)
        c = mgr.eq(x, mgr.bv_const(1, 8))
        assert constraint_set_size([c, c]) == c.dag_size()


class TestConstantPropagation:
    def test_binding_propagates(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        result = run(mgr, [
            mgr.eq(x, mgr.bv_const(4, 8)),
            mgr.eq(y, mgr.bvadd(x, mgr.bv_const(1, 8))),
        ])
        assert result.verdict is Verdict.SAT
        model = result.complete_model({})
        assert model[x] == 4 and model[y] == 5

    def test_conflicting_constants_unsat(self, mgr):
        x = mgr.bv_var("x", 8)
        result = run(mgr, [mgr.eq(x, mgr.bv_const(1, 8)),
                           mgr.eq(x, mgr.bv_const(2, 8))])
        assert result.verdict is Verdict.UNSAT

    def test_asserted_bool_var_backward_propagates(self, mgr):
        p, q = mgr.bool_var("p"), mgr.bool_var("q")
        result = run(mgr, [p, mgr.implies(p, q)])
        assert result.verdict is Verdict.SAT
        model = result.complete_model({})
        assert model[p] == 1 and model[q] == 1

    def test_negated_bool_var(self, mgr):
        p = mgr.bool_var("p")
        result = run(mgr, [mgr.not_(p), p])
        assert result.verdict is Verdict.UNSAT


class TestEqualityPropagation:
    def test_chain_collapses(self, mgr):
        # The paper's bar example: z = y, y = 2x; the chained equalities
        # disappear, leaving everything expressed over x.
        x, y, z = (mgr.bv_var(n, 8) for n in "xyz")
        two = mgr.bv_const(2, 8)
        result = run(mgr, [mgr.eq(y, mgr.bvmul(x, two)), mgr.eq(z, y)],
                     enabled=("equalities",))
        assert result.constraints == []
        assert result.verdict is Verdict.SAT

    def test_cyclic_equality_not_substituted_unsoundly(self, mgr):
        x = mgr.bv_var("x", 8)
        # x = x + 1 has no solution; must NOT be treated as a definition.
        constraint = mgr.eq(x, mgr.bvadd(x, mgr.bv_const(1, 8)))
        result = run(mgr, [constraint], enabled=("equalities",))
        assert result.verdict is not Verdict.SAT

    def test_model_completion_follows_definition(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        result = run(mgr, [mgr.eq(y, mgr.bvadd(x, mgr.bv_const(3, 8)))],
                     enabled=("equalities",))
        assert result.verdict is Verdict.SAT
        model = result.complete_model({x: 10})
        assert model[y] == 13


class TestUnconstrainedElimination:
    def test_paper_section2_example(self, mgr):
        # c = a, d = b, e = c < d with a, b unconstrained: SAT decided in
        # preprocessing, no search needed.
        a, b, c, d = (mgr.bv_var(n, 8) for n in "abcd")
        result = run(mgr, [mgr.eq(c, a), mgr.eq(d, b), mgr.slt(c, d)])
        assert result.verdict is Verdict.SAT
        model = result.complete_model({})
        # The completed model must actually witness c < d.
        assert evaluate(mgr.slt(c, d), model) == 1

    def test_addition_with_fresh_var_unconstrained(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        # x + (y*y) == 0 is satisfiable for any y since x occurs once.
        constraint = mgr.eq(mgr.bvadd(x, mgr.bvmul(y, y)),
                            mgr.bv_const(0, 8))
        result = run(mgr, [constraint])
        assert result.verdict is Verdict.SAT
        model = result.complete_model({})
        assert evaluate(constraint, model) == 1

    def test_var_occurring_twice_not_eliminated(self, mgr):
        x = mgr.bv_var("x", 8)
        # x + x == 1 is UNSAT in 8-bit arithmetic (LHS always even); an
        # unsound elimination would wrongly declare it SAT.
        constraint = mgr.eq(mgr.bvadd(x, x), mgr.bv_const(1, 8))
        result = run(mgr, [constraint], enabled=("unconstrained",))
        assert result.verdict is not Verdict.SAT

    def test_shared_subterm_counts_as_multiple_occurrences(self, mgr):
        x = mgr.bv_var("x", 8)
        shared = mgr.bvadd(x, mgr.bv_const(1, 8))
        constraint = mgr.eq(mgr.bvmul(shared, shared), mgr.bv_const(3, 8))
        result = run(mgr, [constraint], enabled=("unconstrained",))
        # x reaches the root through two paths; (x+1)^2 == 3 must not be
        # "solved" by unconstrained elimination (it is UNSAT: 3 is not a
        # quadratic residue pattern reachable by squares mod 256).
        assert result.verdict is not Verdict.SAT

    def test_odd_multiplication_inverted(self, mgr):
        x = mgr.bv_var("x", 8)
        constraint = mgr.eq(mgr.bvmul(x, mgr.bv_const(3, 8)),
                            mgr.bv_const(7, 8))
        result = run(mgr, [constraint])
        assert result.verdict is Verdict.SAT
        model = result.complete_model({})
        assert (model[x] * 3) % 256 == 7


class TestGaussianElimination:
    def test_figure1_return_value_conditions(self, mgr):
        # y1 = 2*x1, z1 = y1, c = z1, y2 = 2*x2, z2 = y2, d = z2, c < d.
        names = ["x1", "y1", "z1", "c", "x2", "y2", "z2", "d"]
        v = {n: mgr.bv_var(n, 8) for n in names}
        two = mgr.bv_const(2, 8)
        constraints = [
            mgr.eq(v["y1"], mgr.bvmul(two, v["x1"])),
            mgr.eq(v["z1"], v["y1"]),
            mgr.eq(v["c"], v["z1"]),
            mgr.eq(v["y2"], mgr.bvmul(two, v["x2"])),
            mgr.eq(v["z2"], v["y2"]),
            mgr.eq(v["d"], v["z2"]),
            mgr.slt(v["c"], v["d"]),
        ]
        result = run(mgr, constraints)
        assert result.verdict is Verdict.SAT
        model = result.complete_model({})
        for c in constraints:
            assert evaluate(c, model) == 1

    def test_linear_contradiction(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        result = run(mgr, [
            mgr.eq(mgr.bvadd(x, y), mgr.bv_const(1, 8)),
            mgr.eq(mgr.bvadd(x, y), mgr.bv_const(2, 8)),
        ], enabled=("gaussian",))
        assert result.verdict is Verdict.UNSAT

    def test_solvable_system(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        result = run(mgr, [
            mgr.eq(mgr.bvadd(x, y), mgr.bv_const(10, 8)),
            mgr.eq(mgr.bvsub(x, y), mgr.bv_const(4, 8)),
        ])
        assert result.verdict is Verdict.SAT
        model = result.complete_model({})
        assert (model[x] + model[y]) % 256 == 10
        assert (model[x] - model[y]) % 256 == 4

    def test_even_coefficient_divisibility_unsat(self, mgr):
        x = mgr.bv_var("x", 8)
        # 2x = 1 has no solution mod 256: LHS is always even.
        result = run(mgr, [mgr.eq(mgr.bvmul(mgr.bv_const(2, 8), x),
                                  mgr.bv_const(1, 8))],
                     enabled=("gaussian",))
        assert result.verdict is Verdict.UNSAT

    def test_even_coefficient_isolated_row_solved(self, mgr):
        x = mgr.bv_var("x", 8)
        # 254x = 250 mod 256 is solvable (x = 3) despite the even pivot.
        constraint = mgr.eq(mgr.bvmul(mgr.bv_const(254, 8), x),
                            mgr.bv_const(250, 8))
        result = run(mgr, [constraint], enabled=("gaussian",))
        assert result.verdict is Verdict.SAT
        model = result.complete_model({})
        assert evaluate(constraint, model) == 1

    def test_even_row_with_shared_var_kept(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        # x also appears in a non-linear constraint, so the even row cannot
        # be discharged by fixing x.
        result = run(mgr, [
            mgr.eq(mgr.bvmul(mgr.bv_const(2, 8), x), mgr.bv_const(2, 8)),
            mgr.eq(mgr.bvmul(x, y), mgr.bv_const(9, 8)),
        ], enabled=("gaussian",))
        assert result.verdict is Verdict.UNKNOWN

    def test_even_row_var_reaching_others_through_pivot_kept(self, mgr):
        # x + 2v = 0 solves x = -2v, which carries v into x <u 1.  The even
        # row 2v = 4 therefore constrains v (v in {2, 10}, so x = 12), and
        # must not be dropped as an isolated row: the system is UNSAT.
        x, v = mgr.bv_var("x", 4), mgr.bv_var("v", 4)
        two = mgr.bv_const(2, 4)
        constraints = [
            mgr.eq(mgr.bvadd(x, mgr.bvmul(two, v)), mgr.bv_const(0, 4)),
            mgr.eq(mgr.bvmul(two, v), mgr.bv_const(4, 4)),
            mgr.ult(x, mgr.bv_const(1, 4)),
        ]
        assert not any(
            all(evaluate(c, {x: xv, v: vv}) == 1 for c in constraints)
            for xv in range(16) for vv in range(16))
        blaster = BitBlaster()
        for constraint in constraints:
            blaster.assert_true(constraint)
        assert blaster.solve().status is SatStatus.UNSAT
        assert run(mgr, constraints).verdict is not Verdict.SAT
        assert SmtSolver(mgr).check(constraints).status is SmtStatus.UNSAT


def _linear_systems(draw):
    """Linear rows over two width-4 variables with even coefficients,
    each row with at most one odd-coefficient pivot, plus one non-linear
    constraint (a comparison outside any equation).  Once a pivot is
    solved, every other row is a single-variable even row.  The rows share
    a planted solution, so only the comparison can make the system UNSAT."""
    mgr, bv_vars, _ = make_manager()
    bv_vars = bv_vars[:2]
    value = st.integers(0, (1 << WIDTH) - 1)
    even = st.sampled_from(range(0, 1 << WIDTH, 2))
    odd = st.sampled_from(range(1, 1 << WIDTH, 2))
    planted = {var: draw(value) for var in bv_vars}
    constraints = []
    for _ in range(draw(st.integers(1, 3))):
        coefficients = {var: draw(even) for var in bv_vars}
        pivot = draw(st.sampled_from([None, *bv_vars]))
        if pivot is not None:
            coefficients[pivot] = draw(odd)
        lhs = mgr.bv_const(0, WIDTH)
        for var, coefficient in coefficients.items():
            lhs = mgr.bvadd(lhs, mgr.bvmul(mgr.bv_const(coefficient, WIDTH),
                                           var))
        rhs = sum(c * planted[var] for var, c in coefficients.items())
        constraints.append(mgr.eq(lhs, mgr.bv_const(rhs, WIDTH)))
    a, b = draw(st.sampled_from(bv_vars)), draw(st.sampled_from(bv_vars))
    operand = draw(st.sampled_from([a, mgr.bvmul(a, b)]))
    compare = draw(st.sampled_from([mgr.ult, mgr.ule, mgr.slt, mgr.sle]))
    constraints.append(compare(operand, mgr.bv_const(draw(value), WIDTH)))
    return mgr, bv_vars, constraints


class TestLinearSystemsAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_verdicts_match_enumeration(self, data):
        """Every SAT verdict's completed model satisfies the system, every
        UNSAT verdict has no solution among all 256 assignments, and the
        full solver agrees with enumeration."""
        mgr, bv_vars, constraints = _linear_systems(data.draw)
        satisfiable = any(
            all(evaluate(c, env) == 1 for c in constraints)
            for env in all_assignments(bv_vars, []))

        result = Preprocessor(mgr).run(constraints)
        if result.verdict is Verdict.SAT:
            model = result.complete_model({})
            for var in bv_vars:
                model.setdefault(var, 0)
            assert all(evaluate(c, model) == 1 for c in constraints)
        if result.verdict is Verdict.UNSAT:
            assert not satisfiable
        expected = SmtStatus.SAT if satisfiable else SmtStatus.UNSAT
        assert SmtSolver(mgr).check(constraints).status is expected


class _CountdownDeadline(Deadline):
    """A deadline that expires on its ``n``-th check (never, if None)."""

    def __init__(self, n=None):
        super().__init__(None)
        object.__setattr__(self, "checks", 0)
        object.__setattr__(self, "n", n)

    def check(self, what: str = "query") -> None:
        object.__setattr__(self, "checks", self.checks + 1)
        if self.n is not None and self.checks >= self.n:
            raise QueryDeadlineExceeded(f"{what} exceeded its deadline")


def _equality_chain(mgr, links=200):
    """x0 = x1 + 0, x1 = x2 + 1, ...: one elimination per link."""
    xs = [mgr.bv_var(f"x{i}", 8) for i in range(links + 1)]
    chain = [mgr.eq(xs[i], mgr.bvadd(xs[i + 1], mgr.bv_const(i, 8)))
             for i in range(links)]
    return chain + [mgr.ult(xs[0], xs[links])]


def _binding_chain(mgr, links=50):
    """x0 = 1, x1 = x0 + 1, ...: constant propagation binds one variable
    per batch."""
    xs = [mgr.bv_var(f"x{i}", 8) for i in range(links + 1)]
    chain = [mgr.eq(xs[i + 1], mgr.bvadd(xs[i], mgr.bv_const(1, 8)))
             for i in range(links)]
    return chain + [mgr.eq(xs[0], mgr.bv_const(1, 8))]


def _pivot_chain(mgr, rows=50):
    """x_i + 3*x_(i+1) = i: Gaussian elimination solves one pivot per
    row."""
    xs = [mgr.bv_var(f"x{i}", 8) for i in range(rows + 1)]
    three = mgr.bv_const(3, 8)
    return [mgr.eq(mgr.bvadd(xs[i], mgr.bvmul(three, xs[i + 1])),
                   mgr.bv_const(i, 8))
            for i in range(rows)]


def _isolated_constraints(mgr, count=60):
    """x_i < y_i: each constraint shares no variable with the others,
    so probing discharges every one."""
    return [mgr.ult(mgr.bv_var(f"x{i}", 8), mgr.bv_var(f"y{i}", 8))
            for i in range(count)]


class TestDeadlineGranularity:
    def test_checked_once_per_gaussian_pivot(self, mgr):
        deadline = _CountdownDeadline()
        result = Preprocessor(mgr, enabled=("gaussian",)).run(
            _pivot_chain(mgr), deadline=deadline)
        assert result.stats.gaussian_solved == 50
        assert deadline.checks >= result.stats.rounds + 50

    def test_checked_once_per_probed_constraint(self, mgr):
        deadline = _CountdownDeadline()
        result = Preprocessor(mgr, enabled=("probing",)).run(
            _isolated_constraints(mgr), deadline=deadline)
        assert result.verdict is Verdict.SAT
        assert result.stats.probed == 60
        assert deadline.checks >= result.stats.rounds + 60

    def test_pivot_chain_expires_mid_round(self, mgr):
        deadline = _CountdownDeadline(10)
        with pytest.raises(QueryDeadlineExceeded):
            Preprocessor(mgr, enabled=("gaussian",)).run(
                _pivot_chain(mgr), deadline=deadline)
        assert deadline.checks == 10

    def test_checked_once_per_elimination(self, mgr):
        deadline = _CountdownDeadline()
        result = Preprocessor(mgr).run(_equality_chain(mgr),
                                       deadline=deadline)
        assert result.stats.equalities_propagated == 200
        assert deadline.checks > result.stats.rounds + 200

    def test_checked_once_per_binding_batch(self, mgr):
        deadline = _CountdownDeadline()
        result = Preprocessor(mgr, enabled=("constants",)).run(
            _binding_chain(mgr), deadline=deadline)
        assert result.verdict is Verdict.SAT
        assert result.stats.constants_propagated == 51
        assert deadline.checks > result.stats.rounds + 51

    def test_binding_chain_expires_mid_round(self, mgr):
        deadline = _CountdownDeadline(10)
        with pytest.raises(QueryDeadlineExceeded):
            Preprocessor(mgr, enabled=("constants",)).run(
                _binding_chain(mgr), deadline=deadline)
        assert deadline.checks == 10

    def test_expires_mid_round(self, mgr):
        deadline = _CountdownDeadline(10)
        with pytest.raises(QueryDeadlineExceeded):
            Preprocessor(mgr).run(_equality_chain(mgr), deadline=deadline)
        assert deadline.checks == 10

    def test_solver_turns_expiry_into_unknown(self, mgr):
        result = SmtSolver(mgr).check(_equality_chain(mgr),
                                      deadline=_CountdownDeadline(10))
        assert result.status is SmtStatus.UNKNOWN


def _reference_simplify(manager, term, memo=None):
    """The rewriter's walk before it took a memo: every call starts from
    scratch.  The shared memo must change nothing but the cost."""
    cache = {}
    for node in term.iter_dag():
        new_args = tuple(cache[a.tid] for a in node.args)
        cache[node.tid] = _simplify_node(manager, node, new_args)
    return cache[term.tid]


def _copy_into(manager, constraints):
    """Rebuild ``constraints`` node by node in ``manager``."""
    copied = {}
    for c in constraints:
        for node in c.iter_dag():
            if node.tid in copied:
                continue
            args = tuple(copied[a.tid] for a in node.args)
            if node.op is Op.VAR:
                copied[node.tid] = manager.var(node.name, node.sort)
            elif node.op is Op.CONST:
                copied[node.tid] = manager.bv_const(node.value,
                                                    node.sort.width)
            elif not args:
                copied[node.tid] = manager.bool_const(bool(node.value))
            else:
                copied[node.tid] = manager.rebuild(node, args)
    return [copied[c.tid] for c in constraints]


def _observe(manager, constraints):
    result = Preprocessor(manager).run(constraints)
    return (result.verdict, [to_sexpr(c) for c in result.constraints],
            [c.tid for c in result.constraints], result.stats,
            [step.description for step in result.completions], len(manager))


def _assert_memo_changes_nothing(constraints):
    """Production run vs. memo-free run, each in a fresh manager: same
    verdict, residual (text and term ids), stats, completions and
    manager size."""
    def fresh_run():
        manager = TermManager()
        return _observe(manager, _copy_into(manager, constraints))

    memoised = fresh_run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(preprocess, "simplify", _reference_simplify)
        reference = fresh_run()
    assert memoised == reference


class TestMemoIdentity:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_random_constraints(self, data):
        mgr, bv_vars, bool_vars = make_manager()
        constraints = data.draw(st.lists(bool_terms(mgr, bv_vars, bool_vars),
                                         min_size=1, max_size=4))
        _assert_memo_changes_nothing(constraints)

    def test_equality_chain(self, mgr):
        _assert_memo_changes_nothing(_equality_chain(mgr))

    def test_binding_chain(self, mgr):
        _assert_memo_changes_nothing(_binding_chain(mgr))


class TestStrengthReduction:
    def test_mul_by_power_of_two(self, mgr):
        x = mgr.bv_var("x", 8)
        result = run(mgr, [mgr.eq(mgr.bvmul(x, mgr.bv_const(4, 8)),
                                  mgr.bv_var("y", 8))],
                     enabled=("strength",))
        [c] = result.constraints
        assert "bvshl" in repr(c)
        assert result.stats.strength_reduced == 1

    def test_udiv_and_urem_by_power_of_two(self, mgr):
        x, y = mgr.bv_var("x", 8), mgr.bv_var("y", 8)
        result = run(mgr, [
            mgr.eq(y, mgr.bvudiv(x, mgr.bv_const(8, 8))),
        ], enabled=("strength",))
        assert any("bvlshr" in repr(c) for c in result.constraints)
        result = run(mgr, [
            mgr.eq(y, mgr.bvurem(x, mgr.bv_const(8, 8))),
        ], enabled=("strength",))
        assert any("bvand" in repr(c) for c in result.constraints)


class TestPipeline:
    def test_empty_input_is_sat(self, mgr):
        assert run(mgr, []).verdict is Verdict.SAT

    def test_false_constraint_is_unsat(self, mgr):
        assert run(mgr, [mgr.false]).verdict is Verdict.UNSAT

    def test_unknown_pass_name_rejected(self, mgr):
        with pytest.raises(ValueError):
            Preprocessor(mgr, enabled=("nonsense",))

    def test_stats_record_size_reduction(self, mgr):
        x, y, z = (mgr.bv_var(n, 8) for n in "xyz")
        result = run(mgr, [mgr.eq(y, x), mgr.eq(z, y),
                           mgr.slt(z, mgr.bv_var("w", 8))])
        assert result.stats.initial_size > result.stats.final_size
        assert result.verdict is Verdict.SAT


class TestSoundnessProperty:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_preprocess_preserves_satisfiability(self, data):
        """If the evaluator finds a witness for the original constraints,
        preprocessing must not return UNSAT — and SAT verdicts must come
        with extendable models."""
        mgr, bv_vars, bool_vars = make_manager()
        strategy = bool_terms(mgr, bv_vars, bool_vars)
        constraints = data.draw(
            st.lists(strategy, min_size=1, max_size=3))
        witness = data.draw(st.fixed_dictionaries(
            {v: st.integers(0, 15) for v in bv_vars}
            | {v: st.integers(0, 1) for v in bool_vars}))
        original_holds = all(evaluate(c, witness) == 1 for c in constraints)

        result = Preprocessor(mgr).run(constraints)
        if original_holds:
            assert result.verdict is not Verdict.UNSAT
        if result.verdict is Verdict.SAT:
            model = result.complete_model({})
            for c in constraints:
                for var in c.free_vars():
                    model.setdefault(var, 0)
                assert evaluate(c, model) == 1
