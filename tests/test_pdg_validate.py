"""Tests for the PDG validator, including fuzzing over generated
subjects."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import SubjectSpec, generate_subject
from repro.fusion import prepare_pdg
from repro.lang import compile_source
from repro.pdg import build_pdg
from repro.pdg.graph import DataEdge, EdgeKind
from repro.pdg.validate import validate_pdg

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


class TestValidPdgs:
    def test_figure1_validates(self):
        report = validate_pdg(build_pdg(compile_source(FIGURE1)))
        assert report.ok, report.errors

    def test_recursive_program_after_unrolling(self):
        pdg = prepare_pdg(compile_source("""
        fun f(n) {
          if (n < 1) { return 0; }
          m = f(n - 1);
          return m + 1;
        }
        fun main(k) { r = f(k); return r; }
        """))
        assert validate_pdg(pdg).ok

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_generated_subjects_validate(self, seed):
        spec = SubjectSpec("v", seed=seed, num_functions=12, layers=3,
                           avg_stmts=7, call_fanout=2, null_bugs=(1, 0, 1),
                           loop_density=0.2)
        subject = generate_subject(spec)
        pdg = prepare_pdg(subject.program)
        report = validate_pdg(pdg)
        assert report.ok, report.errors


class TestBrokenPdgsDetected:
    def test_missing_use_edge(self):
        pdg = build_pdg(compile_source(FIGURE1))
        # Sever z = y's incoming edge.
        z = pdg.def_of("bar", "z")
        pdg._preds[z.index].clear()
        report = validate_pdg(pdg)
        assert not report.ok
        assert any("no data edge" in e for e in report.errors)

    def test_missing_return_edge(self):
        pdg = build_pdg(compile_source(FIGURE1))
        site = next(iter(pdg.callsites.values()))
        pdg._preds[site.call_vertex.index] = [
            e for e in pdg.data_preds(site.call_vertex)
            if e.kind is not EdgeKind.RETURN]
        report = validate_pdg(pdg)
        assert any("missing return edge" in e for e in report.errors)

    def test_cycle_detected(self):
        pdg = build_pdg(compile_source(FIGURE1))
        y = pdg.def_of("bar", "y")
        z = pdg.def_of("bar", "z")
        pdg.add_data_edge(DataEdge(z, y, EdgeKind.LOCAL))
        report = validate_pdg(pdg)
        assert any("cycle" in e for e in report.errors)

    def test_cross_function_control_parent(self):
        pdg = build_pdg(compile_source(FIGURE1))
        from repro.lang import Branch
        branch = next(v for v in pdg.vertices
                      if isinstance(v.stmt, Branch))
        alien = pdg.def_of("bar", "y")
        pdg._control_parent[alien.index] = branch
        report = validate_pdg(pdg)
        assert any("crosses functions" in e for e in report.errors)
