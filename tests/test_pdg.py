"""Tests for PDG construction (Definition 3.1 / Figure 5)."""

import pytest

from repro.lang import (Assign, Branch, Call, Const, Function, Identity,
                        Program, Return, Var, compile_source)
from repro.pdg import (CallGraph, EdgeKind, build_pdg, pdg_to_dot,
                       unroll_recursion)
from pdg_oracle import pdg_shape

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
  if (c < d) {
    return p;
  }
  return 0;
}
"""


@pytest.fixture
def fig1_pdg():
    return build_pdg(compile_source(FIGURE1))


class TestVertices:
    def test_every_statement_is_a_vertex(self, fig1_pdg):
        program = fig1_pdg.program
        total = sum(f.size() for f in program.functions.values())
        assert fig1_pdg.num_vertices == total

    def test_def_of_finds_definitions(self, fig1_pdg):
        vertex = fig1_pdg.def_of("bar", "y")
        assert repr(vertex.stmt) == "y = x * 2"

    def test_return_vertices_registered(self, fig1_pdg):
        assert fig1_pdg.return_vertex("bar") is not None
        assert fig1_pdg.return_vertex("foo") is not None

    def test_param_vertices_are_identities(self, fig1_pdg):
        params = fig1_pdg.param_vertices("foo")
        assert [p.var.name for p in params] == ["a", "b"]


class TestDataEdges:
    def test_local_def_use_edge(self, fig1_pdg):
        z = fig1_pdg.def_of("bar", "z")
        preds = fig1_pdg.data_preds(z)
        assert len(preds) == 1
        assert preds[0].src.var.name == "y"
        assert preds[0].kind is EdgeKind.LOCAL

    def test_call_edges_labelled_per_site(self, fig1_pdg):
        x_param = fig1_pdg.def_of("bar", "x")
        call_edges = [e for e in fig1_pdg.data_preds(x_param)
                      if e.kind is EdgeKind.CALL]
        assert len(call_edges) == 2  # called from two sites
        labels = {e.callsite for e in call_edges}
        assert len(labels) == 2  # distinct parentheses

    def test_return_edges_to_each_receiver(self, fig1_pdg):
        ret = fig1_pdg.return_vertex("bar")
        succs = [e for e in fig1_pdg.data_succs(ret)
                 if e.kind is EdgeKind.RETURN]
        receivers = {e.dst.var.name for e in succs}
        assert receivers == {"c", "d"}

    def test_call_and_return_share_callsite_label(self, fig1_pdg):
        x_param = fig1_pdg.def_of("bar", "x")
        ret = fig1_pdg.return_vertex("bar")
        call_sites = {e.callsite for e in fig1_pdg.data_preds(x_param)
                      if e.kind is EdgeKind.CALL}
        return_sites = {e.callsite for e in fig1_pdg.data_succs(ret)
                        if e.kind is EdgeKind.RETURN}
        assert call_sites == return_sites

    def test_extern_call_links_actual_to_receiver(self):
        pdg = build_pdg(compile_source(
            "fun f(a) { x = lib(a); return x; }"))
        x = pdg.def_of("f", "x")
        [edge] = pdg.data_preds(x)
        assert edge.kind is EdgeKind.EXTERN
        assert edge.src.var.name == "a"

    def test_constants_produce_no_edges(self, fig1_pdg):
        p = fig1_pdg.def_of("foo", "p")
        assert fig1_pdg.data_preds(p) == []


class TestControlEdges:
    def test_branch_body_depends_on_branch(self, fig1_pdg):
        foo = fig1_pdg.program.functions["foo"]
        branch = next(s for s in foo.statements() if isinstance(s, Branch))
        inner = branch.body[0]
        parent = fig1_pdg.control_parent(
            fig1_pdg.def_of("foo", inner.result.name))
        assert parent is fig1_pdg.def_of("foo", branch.result.name)

    def test_top_level_statements_have_no_parent(self, fig1_pdg):
        p = fig1_pdg.def_of("foo", "p")
        assert fig1_pdg.control_parent(p) is None

    def test_control_chain_walks_nesting(self):
        pdg = build_pdg(compile_source("""
        fun f(a, b) {
          x = 0;
          if (a < 1) {
            if (b < 1) { x = 1; }
          }
          return x;
        }
        """))
        x1 = pdg.def_of("f", "x.1")
        chain = list(pdg.control_chain(x1))
        assert len(chain) == 2

    def test_stats_shape(self, fig1_pdg):
        stats = fig1_pdg.stats()
        assert stats["functions"] == 2
        assert stats["callsites"] == 2
        assert stats["vertices"] > 0 and stats["data_edges"] > 0


class TestRecursionHandling:
    REC = """
    fun f(n) {
      if (n < 1) { return 0; }
      m = f(n - 1);
      return m + 1;
    }
    fun main(k) {
      r = f(k);
      return r;
    }
    """

    def test_build_rejects_recursion(self):
        with pytest.raises(ValueError):
            build_pdg(compile_source(self.REC))

    def test_unroll_removes_cycles(self):
        prog = unroll_recursion(compile_source(self.REC), depth=2)
        assert not CallGraph(prog).recursive_functions()
        assert "f%1" in prog.functions

    def test_unrolled_program_builds(self):
        prog = unroll_recursion(compile_source(self.REC), depth=2)
        pdg = build_pdg(prog)
        assert pdg.num_vertices > 0

    def test_deepest_level_calls_extern(self):
        prog = unroll_recursion(compile_source(self.REC), depth=2)
        deepest = prog.functions["f%1"]
        callees = {s.callee for s in deepest.statements()
                   if isinstance(s, Call)}
        assert callees == {"f%cut"}
        assert "f%cut" in prog.externs

    def test_mutual_recursion_unrolled(self):
        prog = unroll_recursion(compile_source("""
        fun even(n) {
          if (n < 1) { return 1; }
          r = odd(n - 1);
          return r;
        }
        fun odd(n) {
          if (n < 1) { return 0; }
          r = even(n - 1);
          return r;
        }
        """), depth=2)
        assert not CallGraph(prog).recursive_functions()
        assert {"even", "odd", "even%1", "odd%1"} <= set(prog.functions)

    def test_non_recursive_program_unchanged(self):
        prog = compile_source(FIGURE1)
        assert unroll_recursion(prog) is prog


class TestBuildValidates:
    """The builder's walk is the IR validator: hand-built IR that breaks
    SSA, uses an undefined variable, returns twice or calls a defined
    function with the wrong number of arguments is refused with the
    messages ``Program.validate`` has always raised."""

    @staticmethod
    def program(*functions):
        program = Program()
        for function in functions:
            program.add(function)
        return program

    @pytest.mark.parametrize("body, message", [
        ([Identity(Var("a")), Assign(Var("x"), Var("a")),
          Assign(Var("x"), Const(1))],
         "bad: variable x defined twice (SSA violation)"),
        ([Identity(Var("a")), Assign(Var("x"), Var("ghost"))],
         "bad: use of undefined variable ghost in x = ghost"),
        ([Identity(Var("a")), Return(Var("r"), Var("a")),
          Return(Var("s"), Var("a"))],
         "bad: multiple return statements"),
        ([Identity(Var("a")), Assign(Var("x"), Var("ghost")),
          Assign(Var("a"), Const(1))],
         "bad: variable a defined twice (SSA violation)"),
    ], ids=["ssa", "undefined", "returns", "ssa-before-undefined"])
    def test_invalid_ir_refused(self, body, message):
        program = self.program(Function("bad", (Var("a"),), body))
        for check in (program.validate, lambda: build_pdg(program)):
            with pytest.raises(ValueError) as error:
                check()
            assert str(error.value) == message

    def test_use_before_definition_links_like_a_later_def(self):
        # Validation has always accepted a use that precedes its
        # (single) definition; the edge comes from that definition.
        program = self.program(Function("f", (Var("a"),), [
            Identity(Var("a")), Assign(Var("y"), Var("x")),
            Assign(Var("x"), Var("a")), Return(Var("r"), Var("y"))]))
        pdg = build_pdg(program)
        y, x = pdg.def_of("f", "y"), pdg.def_of("f", "x")
        assert [edge.src for edge in pdg.data_preds(y)] == [x]

    def test_wrong_arity_call_refused_at_link(self):
        program = self.program(
            Function("g", (Var("a"),), [Identity(Var("a")),
                                        Return(Var("r"), Var("a"))]),
            Function("f", (Var("x"),), [
                Identity(Var("x")), Call(Var("y"), "g", (Var("x"), Var("x"))),
                Return(Var("r"), Var("y"))]))
        program.validate()
        with pytest.raises(ValueError,
                           match="^call to g with 2 args, expected 1$"):
            build_pdg(program)


class TestCarry:
    """``build_pdg(program, previous=...)`` reuses the fragment of each
    function that is the previous version's very object, and builds the
    PDG a build without ``previous`` builds."""

    F = Function("f", (Var("a"),), [Identity(Var("a")),
                                    Call(Var("b"), "g", (Var("a"),)),
                                    Return(Var("r"), Var("b"))])
    G = Function("g", (Var("x"),), [Identity(Var("x")),
                                    Return(Var("s"), Var("x"))])

    def test_unchanged_functions_keep_their_fragments(self):
        program = compile_source(FIGURE1)
        previous = build_pdg(program)
        edited = TestBuildValidates.program(
            program.functions["bar"],
            compile_source(FIGURE1.replace("c < d", "d < c"))
            .functions["foo"])
        pdg = build_pdg(edited, previous=previous)
        assert pdg._fragments["bar"] is previous._fragments["bar"]
        assert pdg._fragments["foo"] is not previous._fragments["foo"]
        assert pdg_shape(pdg) == pdg_shape(build_pdg(edited))

    @pytest.mark.parametrize("before, after", [((F,), (F, G)),
                                               ((F, G), (F,))],
                             ids=["defined", "undefined"])
    def test_a_callee_changing_status_rewalks_its_callers(self, before,
                                                           after):
        previous = build_pdg(TestBuildValidates.program(*before))
        program = TestBuildValidates.program(*after)
        pdg = build_pdg(program, previous=previous)
        assert pdg._fragments["f"] is not previous._fragments["f"]
        assert pdg_shape(pdg) == pdg_shape(build_pdg(program))


class TestCallGraph:
    def test_topological_order_callees_first(self):
        prog = compile_source(FIGURE1)
        order = CallGraph(prog).topological_order()
        assert order.index("bar") < order.index("foo")

    def test_callers(self):
        graph = CallGraph(compile_source(FIGURE1))
        callers = {f for f in graph.edges if "bar" in graph.callees(f)}
        assert callers == {"foo"}

    def test_sccs_partition_functions(self):
        graph = CallGraph(compile_source(FIGURE1))
        members = [m for scc in graph.sccs() for m in scc]
        assert sorted(members) == ["bar", "foo"]


class TestDot:
    def test_dot_contains_call_labels(self, fig1_pdg):
        dot = pdg_to_dot(fig1_pdg)
        assert "(1" in dot or "(2" in dot
        assert "style=dashed" in dot  # control dependence
