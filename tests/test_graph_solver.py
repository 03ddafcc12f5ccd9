"""Focused tests for ir_based_smt_solve (Algorithms 4 and 6)."""

import pytest

from repro.checkers import NullDereferenceChecker
from repro.fusion import (GraphSolverConfig, IrBasedSmtSolver,
                          prepare_pdg)
from repro.lang import compile_source
from repro.pdg import compute_slice
from repro.smt import Preprocessor
from repro.sparse import collect_candidates

FIGURE1 = """
fun bar(x) {
  y = x * 2;
  z = y;
  return z;
}
fun foo(a, b) {
  p = null;
  c = bar(a);
  d = bar(b);
  if (c < d) { deref(p); }
  return 0;
}
"""

OPAQUE_CALLEE = """
fun mix(a, b) {
  m = a * b;
  return m;
}
fun f(k, n) {
  p = null;
  c = mix(k, n);
  if (c > 3) { deref(p); }
  return 0;
}
"""


def setup(src, **config_kwargs):
    pdg = prepare_pdg(compile_source(src))
    [candidate] = collect_candidates(pdg, NullDereferenceChecker())
    the_slice = compute_slice(pdg, [candidate.path])
    solver = IrBasedSmtSolver(pdg, config=GraphSolverConfig(**config_kwargs))
    return solver, candidate, the_slice


class TestOptimizedSolving:
    def test_figure1_solved_without_cloning(self):
        solver, candidate, the_slice = setup(FIGURE1)
        result = solver.solve([candidate.path], the_slice)
        assert result.is_sat
        # bar is affine: both call sites resolve through quick paths.
        assert solver.stats.quickpath_resolutions == 2
        assert solver.stats.clones == 0

    def test_figure1_decided_in_preprocessing(self):
        solver, candidate, the_slice = setup(FIGURE1)
        result = solver.solve([candidate.path], the_slice)
        # The Section 2 story: unconstrained propagation settles c < d
        # before any SAT search.
        assert result.decided_in_preprocess

    def test_opaque_callee_is_cloned(self):
        solver, candidate, the_slice = setup(OPAQUE_CALLEE)
        result = solver.solve([candidate.path], the_slice)
        assert result.is_sat
        assert solver.stats.clones == 1

    def test_templates_cached_across_queries(self):
        solver, candidate, the_slice = setup(FIGURE1)
        solver.solve([candidate.path], the_slice)
        nodes_after_first = solver.stats.template_nodes
        solver.solve([candidate.path], the_slice)
        assert solver.stats.template_nodes == nodes_after_first

    def test_quickpaths_disabled_forces_clones(self):
        solver, candidate, the_slice = setup(FIGURE1, use_quickpaths=False)
        result = solver.solve([candidate.path], the_slice)
        assert result.is_sat
        assert solver.stats.clones == 2


class TestUnoptimizedSolving:
    def test_algorithm4_agrees(self):
        opt_solver, candidate, the_slice = setup(FIGURE1)
        opt = opt_solver.solve([candidate.path], the_slice)
        raw_solver, candidate2, slice2 = setup(FIGURE1, optimized=False)
        raw = raw_solver.solve([candidate2.path], slice2)
        assert opt.status == raw.status

    def test_algorithm4_materialises_more(self):
        opt_solver, candidate, the_slice = setup(FIGURE1)
        opt_solver.solve([candidate.path], the_slice)
        raw_solver, candidate2, slice2 = setup(FIGURE1, optimized=False)
        raw_solver.solve([candidate2.path], slice2)
        assert raw_solver.stats.peak_condition_nodes >= \
            opt_solver.stats.peak_condition_nodes


class TestLocalPassSelection:
    def test_restricted_passes_still_correct(self):
        solver, candidate, the_slice = setup(FIGURE1,
                                             local_passes=("constants",))
        result = solver.solve([candidate.path], the_slice)
        assert result.is_sat

    def test_no_local_passes_still_correct(self):
        solver, candidate, the_slice = setup(FIGURE1, local_passes=())
        result = solver.solve([candidate.path], the_slice)
        assert result.is_sat

    def test_unknown_local_pass_rejected(self):
        """A misspelt pass fails at construction, not as an errored
        UNKNOWN in every query."""
        with pytest.raises(ValueError, match="gausian"):
            GraphSolverConfig(local_passes=("gausian",))

    def test_templates_skip_only_gaussian_by_default(self):
        assert set(GraphSolverConfig().template_passes) \
            == set(Preprocessor.ALL_PASSES) - {"gaussian"}
        assert GraphSolverConfig(local_passes=["gaussian"]).template_passes \
            == ("gaussian",)


class TestEscapedFrames:
    SRC = """
    fun make() {
      p = null;
      return p;
    }
    fun level1(a) {
      q = make();
      return q;
    }
    fun top(a) {
      r = level1(a);
      if (a > 9) { deref(r); }
      return 0;
    }
    """

    def test_null_escaping_two_levels(self):
        pdg = prepare_pdg(compile_source(self.SRC))
        [candidate] = collect_candidates(pdg, NullDereferenceChecker())
        # The path climbs make -> level1 -> top: three frames.
        frames = candidate.path.frames()
        assert {f.function for f in frames} == {"make", "level1", "top"}
        the_slice = compute_slice(pdg, [candidate.path])
        solver = IrBasedSmtSolver(pdg)
        assert solver.solve([candidate.path], the_slice).is_sat

    def test_infeasible_guard_after_escape(self):
        src = self.SRC.replace("a > 9", "a != a")
        pdg = prepare_pdg(compile_source(src))
        [candidate] = collect_candidates(pdg, NullDereferenceChecker())
        the_slice = compute_slice(pdg, [candidate.path])
        solver = IrBasedSmtSolver(pdg)
        assert solver.solve([candidate.path], the_slice).is_unsat
