"""Tests for quick-path summaries (Section 3.2.3)."""

import weakref

from repro.collector import paused
from repro.fusion import QuickPathTable, Shape
from repro.lang import compile_source
from repro.pdg import build_pdg


def table_of(src):
    return QuickPathTable(build_pdg(compile_source(src)))


class TestShapes:
    def test_paper_bar_is_affine(self):
        table = table_of("""
        fun bar(x) {
          y = x * 2;
          z = y;
          return z;
        }
        """)
        summary = table.summary("bar")
        assert summary.shape is Shape.AFFINE
        assert (summary.scale, summary.param_index, summary.offset) \
            == (2, 0, 0)

    def test_constant_return(self):
        table = table_of("fun k() { return 42; }")
        summary = table.summary("k")
        assert summary.shape is Shape.CONST and summary.offset == 42

    def test_identity_passthrough(self):
        table = table_of("fun id(v) { return v; }")
        summary = table.summary("id")
        assert summary.shape is Shape.AFFINE
        assert (summary.scale, summary.param_index, summary.offset) \
            == (1, 0, 0)

    def test_affine_chain_with_offset(self):
        table = table_of("""
        fun f(a) {
          b = a + 3;
          c = b * 5;
          d = c - 1;
          return d;
        }
        """)
        summary = table.summary("f")
        assert summary.shape is Shape.AFFINE
        assert (summary.scale, summary.offset) == (5, 14)

    def test_shift_is_scaling(self):
        table = table_of("fun f(a) { b = a << 3; return b; }")
        summary = table.summary("f")
        assert summary.shape is Shape.AFFINE and summary.scale == 8

    def test_extern_result_is_havoc(self):
        table = table_of("fun f() { t = ext(); return t; }")
        assert table.summary("f").shape is Shape.HAVOC

    def test_havoc_plus_constant_stays_havoc(self):
        table = table_of("fun f() { t = ext(); u = t + 7; return u; }")
        assert table.summary("f").shape is Shape.HAVOC

    def test_same_havoc_twice_is_opaque(self):
        # t + t == 2t only covers even residues: not unconstrained.
        table = table_of("fun f() { t = ext(); u = t + t; return u; }")
        assert table.summary("f").shape is Shape.OPAQUE

    def test_havoc_minus_itself_is_opaque(self):
        table = table_of("""
        fun f() {
          t = ext();
          u = t;
          v = t - u;
          return v;
        }
        """)
        assert table.summary("f").shape is Shape.OPAQUE

    def test_independent_havocs_combine(self):
        table = table_of("""
        fun f() {
          t = ext();
          u = ext();
          v = t + u;
          return v;
        }
        """)
        assert table.summary("f").shape is Shape.HAVOC

    def test_two_params_is_opaque(self):
        table = table_of("fun f(a, b) { c = a + b; return c; }")
        assert table.summary("f").shape is Shape.OPAQUE

    def test_same_param_twice_folds(self):
        table = table_of("fun f(a) { c = a + a; return c; }")
        summary = table.summary("f")
        assert summary.shape is Shape.AFFINE and summary.scale == 2

    def test_nonlinear_is_opaque(self):
        table = table_of("fun f(a) { c = a * a; return c; }")
        assert table.summary("f").shape is Shape.OPAQUE

    def test_branch_dependent_return_is_opaque(self):
        table = table_of("""
        fun f(a) {
          if (a < 5) { return 1; }
          return 2;
        }
        """)
        assert table.summary("f").shape is Shape.OPAQUE


class TestComposition:
    def test_summary_composes_through_calls(self):
        table = table_of("""
        fun double(x) { return x * 2; }
        fun quad(y) {
          a = double(y);
          b = double(a);
          return b;
        }
        """)
        summary = table.summary("quad")
        assert summary.shape is Shape.AFFINE and summary.scale == 4

    def test_const_through_call(self):
        table = table_of("""
        fun k() { return 7; }
        fun f() {
          a = k();
          b = a + 1;
          return b;
        }
        """)
        summary = table.summary("f")
        assert summary.shape is Shape.CONST and summary.offset == 8

    def test_havoc_through_call_fresh_per_site(self):
        table = table_of("""
        fun h() { t = ext(); return t; }
        fun f() {
          a = h();
          b = h();
          c = a - b;
          return c;
        }
        """)
        # Two activations of h are independent havocs: difference covers
        # everything.
        assert table.summary("f").shape is Shape.HAVOC

    def test_caching_counts_hits(self):
        table = table_of("""
        fun g(x) { return x; }
        fun f(a) {
          p = g(a);
          q = g(p);
          return q;
        }
        """)
        table.summary("f")
        hits_before = table.hits
        table.summary("g")
        assert table.hits > hits_before

    def test_modulus_wraps_scale(self):
        # Width is 8 by default: scale 256 == 0 -> constant 0.
        table = table_of("fun f(a) { b = a << 8; return b; }")
        summary = table.summary("f")
        assert summary.shape is Shape.CONST and summary.offset == 0

    def test_summaries_leave_no_reference_cycle(self):
        """A dropped table (and the PDG it holds) is freed at once, not
        at the next full collection: computing a summary ties nothing
        into a reference cycle."""
        table = table_of("fun f(a) { b = a * 2; return b; }")
        assert table.summary("f").shape is Shape.AFFINE
        alive = weakref.ref(table.pdg)
        with paused:
            del table
            assert alive() is None
