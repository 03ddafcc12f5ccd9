"""Tests for Rules (1)-(8): slicing and the allotropic transformation."""

from repro.checkers import NullDereferenceChecker
from repro.fusion import ConditionTransformer, assemble_condition
from repro.lang import compile_source
from repro.pdg import build_pdg, compute_slice
from repro.smt import SmtSolver
from repro.sparse import collect_candidates

GUARDED = """
fun f(a) {
  p = null;
  b = a > 20;
  if (b) {
    deref(p);
  }
  return 0;
}
"""

FIGURE1_DEREF = """
fun bar(x) {
  y = x * 2;
  z = y;
  return z;
}
fun foo(a, b) {
  p = null;
  c = bar(a);
  d = bar(b);
  if (c < d) {
    deref(p);
  }
  return 0;
}
"""


def candidate_and_slice(src):
    pdg = build_pdg(compile_source(src))
    [candidate] = collect_candidates(pdg, NullDereferenceChecker())
    return pdg, candidate, compute_slice(pdg, [candidate.path])


class TestSlicing:
    def test_guard_requirement_recorded(self):
        _, candidate, the_slice = candidate_and_slice(GUARDED)
        assert len(the_slice.requirements) == 1
        req = the_slice.requirements[0]
        assert req.value is True

    def test_condition_defs_pulled_into_slice(self):
        _, _, the_slice = candidate_and_slice(GUARDED)
        names = {v.var.name for v in the_slice.needed_in("f")}
        # The guard %t = b and its chain b = a > 20, a = <a>.
        assert "b" in names and "a" in names

    def test_callee_condition_chain_in_slice(self):
        _, _, the_slice = candidate_and_slice(FIGURE1_DEREF)
        bar_names = {v.var.name for v in the_slice.needed_in("bar")}
        # The return-value condition z = y, y = 2x (the paper's example).
        assert {"y", "z"} <= bar_names

    def test_unguarded_flow_has_no_requirements(self):
        _, _, the_slice = candidate_and_slice("""
        fun f() {
          p = null;
          deref(p);
          return 0;
        }
        """)
        assert the_slice.requirements == []
        assert the_slice.size() == 0

    def test_ite_traversal_requirement(self):
        pdg, candidate, the_slice = candidate_and_slice("""
        fun f(a) {
          p = null;
          q = 1;
          if (a < 5) { r = p; } else { r = q; }
          deref(r);
          return 0;
        }
        """)
        # The null flows through the then-slot of the merge: cond == true.
        values = {req.value for req in the_slice.requirements}
        assert True in values

    def test_slice_size_linear_not_cloned(self):
        pdg, _, the_slice = candidate_and_slice(FIGURE1_DEREF)
        # The slice never exceeds the program size: no cloning (Table 1).
        assert the_slice.size() <= pdg.num_vertices


class TestTransformation:
    def test_statement_equations(self):
        pdg = build_pdg(compile_source(FIGURE1_DEREF))
        t = ConditionTransformer(pdg)
        bar = pdg.program.functions["bar"]
        equations = [t.statement_equation("bar", s) for s in bar.body]
        texts = [repr(e) for e in equations if e is not None]
        assert any("bvmul" in s for s in texts)        # y = x * 2
        assert any("(= bar::z bar::y)" in s for s in texts)

    def test_identity_and_branch_produce_no_equation(self):
        pdg = build_pdg(compile_source(GUARDED))
        t = ConditionTransformer(pdg)
        f = pdg.program.functions["f"]
        from repro.lang import Branch, Identity
        for stmt in f.statements():
            if isinstance(stmt, (Identity, Branch)):
                assert t.statement_equation("f", stmt) is None

    def test_template_cached(self):
        pdg = build_pdg(compile_source(GUARDED))
        t = ConditionTransformer(pdg)
        key = frozenset(v.index for v in pdg.function_vertices("f"))
        assert t.template("f", key) is t.template("f", key)

    def test_full_condition_is_satisfiable_iff_guard_can_hold(self):
        pdg, candidate, the_slice = candidate_and_slice(GUARDED)
        t = ConditionTransformer(pdg)
        needed = {fn: t.needed_key(the_slice, fn) for fn in the_slice.needed}

        def instance(fn, skip, suffix):
            return [t.manager.rename(c, suffix) for c in
                    t.template(fn, needed.get(fn, frozenset())).constraints]

        constraints = assemble_condition(t, [candidate.path], the_slice,
                                         instance)
        assert SmtSolver(t.manager).check(constraints).is_sat

    def test_infeasible_guard_yields_unsat(self):
        pdg, candidate, the_slice = candidate_and_slice("""
        fun f(a) {
          p = null;
          b = a < a;
          if (b) {
            deref(p);
          }
          return 0;
        }
        """)
        t = ConditionTransformer(pdg)
        needed = {fn: t.needed_key(the_slice, fn) for fn in the_slice.needed}

        def instance(fn, skip, suffix):
            return [t.manager.rename(c, suffix) for c in
                    t.template(fn, needed.get(fn, frozenset())).constraints]

        constraints = assemble_condition(t, [candidate.path], the_slice,
                                         instance)
        assert SmtSolver(t.manager).check(constraints).is_unsat

    def test_binding_constraints_connect_instances(self):
        pdg = build_pdg(compile_source(FIGURE1_DEREF))
        t = ConditionTransformer(pdg)
        site = next(iter(pdg.callsites.values()))
        from repro.fusion import CallBinding
        stmt = site.call_vertex.stmt
        binding = CallBinding(site.callsite_id, "bar", stmt.result.name,
                              stmt.args)
        constraints = t.binding_constraints("foo", "#f0", binding, "@1#f0")
        texts = [repr(c) for c in constraints]
        assert any("bar::x@1#f0" in s for s in texts)   # param binding
        assert any("foo::" in s and "#f0" in s for s in texts)

    def test_interface_vars_include_params_ret_and_conds(self):
        pdg = build_pdg(compile_source(GUARDED))
        t = ConditionTransformer(pdg)
        names = {v.name for v in t.interface_vars("f", frozenset())}
        assert "f::a" in names
        assert any(name.startswith("f::%ret") for name in names)
        assert "f::b" in names  # the branch condition variable


class TestRequirementTerms:
    def test_requirement_suffix_applied(self):
        pdg, candidate, the_slice = candidate_and_slice(GUARDED)
        t = ConditionTransformer(pdg)
        [req] = the_slice.requirements
        term = t.requirement_term(req, "#f0")
        assert "#f0" in repr(term)
        assert "true" in repr(term)
