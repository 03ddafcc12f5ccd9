"""Tests for frame planning and condition assembly."""

from repro.checkers import NullDereferenceChecker
from repro.fusion import (ConditionTransformer, assemble_condition,
                          build_frame_plan, frame_boundary_constraints,
                          frame_suffix, prepare_pdg)
from repro.lang import compile_source
from repro.pdg import compute_slice
from repro.sparse import collect_candidates

ESCAPING = """
fun make() {
  p = null;
  return p;
}
fun top(a) {
  r = make();
  if (a > 9) { deref(r); }
  return 0;
}
"""

ENTERING = """
fun use(p, a) {
  if (a > 9) { deref(p); }
  return 0;
}
fun top(a) {
  q = null;
  z = use(q, a);
  return z;
}
"""


def candidate_of(src):
    pdg = prepare_pdg(compile_source(src))
    [candidate] = collect_candidates(pdg, NullDereferenceChecker())
    return pdg, candidate


class TestFramePlans:
    def test_escaped_caller_plan(self):
        pdg, candidate = candidate_of(ESCAPING)
        plan = build_frame_plan([candidate.path])
        functions = {f.function for f in plan.frames}
        assert functions == {"make", "top"}
        escaped = next(f for f in plan.frames if f.via_return)
        assert escaped.function == "top"
        # The caller's own expansion skips the site covered by the frame.
        assert plan.skip_sites.get(escaped.fid), plan.skip_sites

    def test_call_entered_plan(self):
        pdg, candidate = candidate_of(ENTERING)
        plan = build_frame_plan([candidate.path])
        functions = {f.function for f in plan.frames}
        assert functions == {"use", "top"}
        callee_frame = next(f for f in plan.frames
                            if f.function == "use")
        assert not callee_frame.via_return
        caller = callee_frame.parent
        assert caller is not None
        assert plan.skip_sites.get(caller.fid), plan.skip_sites

    def test_root_only_plan_has_no_skips(self):
        pdg, candidate = candidate_of("""
        fun f(a) {
          p = null;
          if (a > 3) { deref(p); }
          return 0;
        }
        """)
        plan = build_frame_plan([candidate.path])
        assert len(plan.frames) == 1
        assert plan.skip_sites == {}


class TestBoundaryConstraints:
    def test_escape_binds_params_and_receiver(self):
        pdg, candidate = candidate_of(ESCAPING)
        transformer = ConditionTransformer(pdg)
        plan = build_frame_plan([candidate.path])
        escaped = next(f for f in plan.frames if f.via_return)
        constraints = frame_boundary_constraints(transformer, escaped)
        texts = [repr(c) for c in constraints]
        # Receiver in the caller equals the callee's return value.
        assert any("top::r" in t and "make::%ret" in t for t in texts)

    def test_call_entry_binds_actuals(self):
        pdg, candidate = candidate_of(ENTERING)
        transformer = ConditionTransformer(pdg)
        plan = build_frame_plan([candidate.path])
        callee_frame = next(f for f in plan.frames if f.function == "use")
        constraints = frame_boundary_constraints(transformer, callee_frame)
        texts = " ".join(repr(c) for c in constraints)
        # The callee's params bind to the caller's actuals (q and a).
        assert "use::p" in texts and "top::q" in texts
        assert "use::a" in texts and "top::a" in texts

    def test_root_frame_has_no_bindings(self):
        pdg, candidate = candidate_of(ESCAPING)
        transformer = ConditionTransformer(pdg)
        root = candidate.path.steps[0].frame
        assert frame_boundary_constraints(transformer, root) == []


class TestAssembly:
    def test_every_requirement_lands_in_its_frame(self):
        pdg, candidate = candidate_of(ENTERING)
        transformer = ConditionTransformer(pdg)
        the_slice = compute_slice(pdg, [candidate.path])
        needed = {fn: transformer.needed_key(the_slice, fn)
                  for fn in the_slice.needed}

        def instance(fn, skip, suffix):
            return [transformer.manager.rename(c, suffix)
                    for c in transformer.template(
                        fn, needed.get(fn, frozenset())).constraints]

        constraints = assemble_condition(transformer, [candidate.path],
                                         the_slice, instance)
        texts = " ".join(repr(c) for c in constraints)
        # The guard requirement targets the callee frame's instance of
        # use::%t (a > 9 evaluated inside use).
        callee_frame = next(f for f in candidate.path.frames()
                            if f.function == "use")
        assert f"use::" in texts and frame_suffix(callee_frame) in texts

    def test_suffix_format(self):
        pdg, candidate = candidate_of(ESCAPING)
        root = candidate.path.steps[0].frame
        assert frame_suffix(root) == f"#f{root.fid}"
