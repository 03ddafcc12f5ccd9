"""Unit and property tests for the CDCL SAT solver."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import SatSolver, SatStatus
from repro.smt.sat import luby


def add_clauses(solver, clauses):
    for clause in clauses:
        solver.add_clause(clause)


def solve_clauses(clauses, conflict_limit=None):
    solver = SatSolver()
    add_clauses(solver, clauses)
    return solver.solve(conflict_limit=conflict_limit)


def brute_force_sat(clauses, num_vars):
    for bits in itertools.product([False, True], repeat=num_vars):
        model = {i + 1: bits[i] for i in range(num_vars)}
        if all(any(model[abs(lit)] == (lit > 0) for lit in clause)
               for clause in clauses):
            return True
    return False


def check_model(clauses, model):
    return all(any(model.get(abs(lit), False) == (lit > 0) for lit in clause)
               for clause in clauses)


class TestBasics:
    def test_empty_problem_is_sat(self):
        assert solve_clauses([]).status is SatStatus.SAT

    def test_single_unit(self):
        result = solve_clauses([[1]])
        assert result.is_sat and result.model[1] is True

    def test_conflicting_units(self):
        assert solve_clauses([[1], [-1]]).status is SatStatus.UNSAT

    def test_empty_clause_is_unsat(self):
        assert solve_clauses([[1, 2], []]).status is SatStatus.UNSAT

    def test_tautological_clause_ignored(self):
        result = solve_clauses([[1, -1], [2]])
        assert result.is_sat and result.model[2] is True

    def test_duplicate_literals_deduped(self):
        assert solve_clauses([[1, 1, 1]]).is_sat

    def test_zero_literal_rejected(self):
        solver = SatSolver()
        with pytest.raises(ValueError):
            solver.add_clause([0])

    def test_implication_chain(self):
        # 1 -> 2 -> 3 -> 4, with 1 forced true and 4 forced false: unsat.
        clauses = [[1], [-1, 2], [-2, 3], [-3, 4], [-4]]
        assert solve_clauses(clauses).status is SatStatus.UNSAT

    def test_model_satisfies_clauses(self):
        clauses = [[1, 2], [-1, 3], [-2, -3], [2, 3]]
        result = solve_clauses(clauses)
        assert result.is_sat
        assert check_model(clauses, result.model)


class TestPigeonhole:
    @staticmethod
    def pigeonhole(holes):
        """PHP(holes+1, holes): classic UNSAT family requiring real search."""
        pigeons = holes + 1

        def var(p, h):
            return p * holes + h + 1

        clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    clauses.append([-var(p1, h), -var(p2, h)])
        return clauses

    @pytest.mark.parametrize("holes", [2, 3, 4, 5])
    def test_pigeonhole_unsat(self, holes):
        assert solve_clauses(self.pigeonhole(holes)).status is SatStatus.UNSAT

    def test_pigeonhole_sat_when_enough_holes(self):
        # 3 pigeons in 3 holes: satisfiable.
        holes = 3

        def var(p, h):
            return p * holes + h + 1

        clauses = [[var(p, h) for h in range(holes)] for p in range(holes)]
        for h in range(holes):
            for p1 in range(holes):
                for p2 in range(p1 + 1, holes):
                    clauses.append([-var(p1, h), -var(p2, h)])
        assert solve_clauses(clauses).is_sat


class TestLimits:
    def test_conflict_limit_returns_unknown(self):
        clauses = TestPigeonhole.pigeonhole(6)
        result = solve_clauses(clauses, conflict_limit=3)
        assert result.status is SatStatus.UNKNOWN


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == \
            [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


class TestRandomInstances:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_agrees_with_brute_force(self, data):
        num_vars = data.draw(st.integers(1, 8))
        num_clauses = data.draw(st.integers(1, 30))
        literal = st.integers(1, num_vars).flatmap(
            lambda v: st.sampled_from([v, -v]))
        clauses = data.draw(st.lists(
            st.lists(literal, min_size=1, max_size=4),
            min_size=num_clauses, max_size=num_clauses))
        expected = brute_force_sat(clauses, num_vars)
        result = solve_clauses(clauses)
        assert result.is_sat == expected
        if result.is_sat:
            assert check_model(clauses, result.model)


class LinearScanSolver(SatSolver):
    """VSIDS picker downgraded to an O(num_vars) scan per decision.

    The baseline the indexed max-heap replaces; the microbenchmark pins
    the heap to verdict-equivalence and to a bounded slowdown (on small
    var counts raw scans are cheap, so parity — not speedup — is the
    honest invariant)."""

    def _heap_insert(self, var):
        pass

    def _heap_sift_up(self, i):
        pass

    def _heap_sift_down(self, i):
        pass

    def _heap_pop_max(self):
        best = 0
        best_act = -1.0
        assign = self._assign
        act = self._activity
        for var in range(1, self._num_vars + 1):
            if assign[var] == 0 and act[var] > best_act:
                best = var
                best_act = act[var]
        return best if best else None


class TestHeapMicrobench:
    def test_linear_scan_oracle_agrees(self):
        for clauses, expected in [
            (TestPigeonhole.pigeonhole(4), SatStatus.UNSAT),
            ([[1, 2], [-1, 3], [-2, -3], [2, 3]], SatStatus.SAT),
        ]:
            solver = LinearScanSolver()
            add_clauses(solver, clauses)
            result = solver.solve()
            assert result.status is expected
            if result.is_sat:
                assert check_model(clauses, result.model)

    def test_heap_verdicts_match_linear_scan(self):
        clauses = TestPigeonhole.pigeonhole(5)
        heap = SatSolver()
        add_clauses(heap, clauses)
        linear = LinearScanSolver()
        add_clauses(linear, clauses)
        assert heap.solve().status is linear.solve().status is \
            SatStatus.UNSAT

    def test_heap_picker_is_not_slower_than_linear_scan(self):
        # Conflict-heavy UNSAT instance => many decisions + activity
        # bumps.  Generous 3x slack absorbs timer noise on loaded CI
        # boxes; catching an accidental O(n)-per-decision regression is
        # the point, not a precise speedup claim.
        import time as _time

        clauses = TestPigeonhole.pigeonhole(6)

        t0 = _time.perf_counter()
        heap = SatSolver()
        add_clauses(heap, clauses)
        heap_result = heap.solve()
        t_heap = _time.perf_counter() - t0

        t0 = _time.perf_counter()
        linear = LinearScanSolver()
        add_clauses(linear, clauses)
        linear_result = linear.solve()
        t_linear = _time.perf_counter() - t0

        assert heap_result.status is linear_result.status is SatStatus.UNSAT
        assert t_heap <= t_linear * 3.0, (t_heap, t_linear)


class TestClauseMinimization:
    def test_minimization_fires_on_structured_instances(self):
        # Pigeonhole generates chained implications whose learned clauses
        # routinely contain self-subsumed literals.
        from repro.smt.sat import SatSolver

        solver = SatSolver()
        for clause in TestPigeonhole.pigeonhole(5):
            solver.add_clause(clause)
        result = solver.solve()
        assert result.status is SatStatus.UNSAT
        assert solver.minimized_literals > 0

    def test_minimization_preserves_verdicts(self):
        # Covered broadly by the brute-force property test above; this is
        # a quick focused check on a SAT instance with deep implications.
        clauses = [[1, 2, 3], [-1, 4], [-2, 4], [-3, 4], [-4, 5], [-5, 6],
                   [-6, 1, 2]]
        result = solve_clauses(clauses)
        assert result.is_sat
        assert check_model(clauses, result.model)
