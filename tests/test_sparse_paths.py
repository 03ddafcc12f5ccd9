"""Tests for dependence paths, frames, and sparse candidate collection."""

from repro.checkers import NullDereferenceChecker, cwe23_checker
from repro.lang import compile_source
from repro.pdg import EdgeKind, build_pdg
from repro.sparse import (DependencePath, FrameTable, PathStep,
                          collect_candidates, extend_path)
from repro.sparse import engine as sparse_engine
from repro.sparse.engine import MAX_PATHS_PER_PAIR


def pdg_of(src):
    return build_pdg(compile_source(src))


class TestFrameTable:
    def test_root_interned(self):
        frames = FrameTable()
        assert frames.root("f") is frames.root("f")

    def test_call_frames_distinct_per_site(self):
        frames = FrameTable()
        root = frames.root("f")
        a = frames.enter_call(root, 1, "g")
        b = frames.enter_call(root, 2, "g")
        assert a is not b
        assert frames.enter_call(root, 1, "g") is a

    def test_escape_frames_interned(self):
        frames = FrameTable()
        root = frames.root("g")
        caller = frames.escape_return(root, 3, "f")
        assert frames.escape_return(root, 3, "f") is caller
        assert caller.via_return


class TestExtendPath:
    SRC = """
    fun id(v) { return v; }
    fun f(a) {
      x = id(a);
      y = id(x);
      return y;
    }
    """

    def test_balanced_call_return(self):
        pdg = pdg_of(self.SRC)
        frames = FrameTable()
        a_def = pdg.def_of("f", "a")
        path = DependencePath([PathStep(a_def, frames.root("f"))])
        call_edge = next(e for e in pdg.data_succs(a_def)
                         if e.kind is EdgeKind.CALL)
        path = extend_path(path, call_edge, frames)
        assert path.steps[-1].frame.function == "id"
        # Walk to the return statement of id.
        v = path.steps[-1].vertex
        while True:
            nxt = [e for e in pdg.data_succs(v) if e.kind is EdgeKind.LOCAL]
            if not nxt:
                break
            path = extend_path(path, nxt[0], frames)
            v = path.steps[-1].vertex
        # Exit through the matching return edge only.
        ret_edges = [e for e in pdg.data_succs(v)
                     if e.kind is EdgeKind.RETURN]
        matching = [e for e in ret_edges
                    if extend_path(path, e, frames) is not None]
        assert len(matching) == 1
        extended = extend_path(path, matching[0], frames)
        assert extended.steps[-1].frame.function == "f"
        assert extended.steps[-1].frame is path.steps[0].frame

    def test_mismatched_return_rejected(self):
        pdg = pdg_of(self.SRC)
        frames = FrameTable()
        a_def = pdg.def_of("f", "a")
        path = DependencePath([PathStep(a_def, frames.root("f"))])
        call_edges = [e for e in pdg.data_succs(a_def)
                      if e.kind is EdgeKind.CALL]
        path = extend_path(path, call_edges[0], frames)
        ret = pdg.return_vertex("id")
        wrong = [e for e in pdg.data_succs(ret)
                 if e.kind is EdgeKind.RETURN
                 and e.callsite != call_edges[0].callsite]
        # Reach the return vertex first.
        v = path.steps[-1].vertex
        while v is not ret:
            nxt = [e for e in pdg.data_succs(v) if e.kind is EdgeKind.LOCAL]
            path = extend_path(path, nxt[0], frames)
            v = path.steps[-1].vertex
        for edge in wrong:
            assert extend_path(path, edge, frames) is None

    def test_unbalanced_escape_into_caller(self):
        pdg = pdg_of("""
        fun source() {
          p = null;
          return p;
        }
        fun f() {
          q = source();
          return q;
        }
        """)
        frames = FrameTable()
        p_def = pdg.def_of("source", "p")
        path = DependencePath([PathStep(p_def, frames.root("source"))])
        ret = pdg.return_vertex("source")
        local = next(e for e in pdg.data_succs(p_def))
        path = extend_path(path, local, frames)
        # %rv -> return
        while path.steps[-1].vertex is not ret:
            edge = next(e for e in pdg.data_succs(path.steps[-1].vertex)
                        if e.kind is EdgeKind.LOCAL)
            path = extend_path(path, edge, frames)
        escape = next(e for e in pdg.data_succs(ret)
                      if e.kind is EdgeKind.RETURN)
        escaped = extend_path(path, escape, frames)
        assert escaped.steps[-1].frame.function == "f"
        assert escaped.steps[-1].frame.via_return

    def test_frames_collects_parents(self):
        pdg = pdg_of(self.SRC)
        frames = FrameTable()
        a_def = pdg.def_of("f", "a")
        path = DependencePath([PathStep(a_def, frames.root("f"))])
        call_edge = next(e for e in pdg.data_succs(a_def)
                         if e.kind is EdgeKind.CALL)
        path = extend_path(path, call_edge, frames)
        fids = {f.function for f in path.frames()}
        assert fids == {"f", "id"}


class TestCollectCandidates:
    def test_finds_simple_null_flow(self):
        pdg = pdg_of("""
        fun f() {
          p = null;
          deref(p);
          return 0;
        }
        """)
        candidates = collect_candidates(pdg, NullDereferenceChecker())
        assert len(candidates) == 1
        assert candidates[0].source.var.name == "p"

    def test_null_killed_by_arithmetic(self):
        pdg = pdg_of("""
        fun f() {
          p = null;
          q = p + 1;
          deref(q);
          return 0;
        }
        """)
        assert collect_candidates(pdg, NullDereferenceChecker()) == []

    def test_interprocedural_flow_through_return(self):
        pdg = pdg_of("""
        fun make() {
          p = null;
          return p;
        }
        fun f() {
          q = make();
          deref(q);
          return 0;
        }
        """)
        candidates = collect_candidates(pdg, NullDereferenceChecker())
        assert len(candidates) == 1
        functions = {s.vertex.function for s in candidates[0].path.steps}
        assert functions == {"make", "f"}

    def test_flow_through_parameter(self):
        pdg = pdg_of("""
        fun use(p) {
          deref(p);
          return 0;
        }
        fun f() {
          q = null;
          r = use(q);
          return r;
        }
        """)
        candidates = collect_candidates(pdg, NullDereferenceChecker())
        assert len(candidates) == 1

    def test_taint_flows_through_arithmetic(self):
        pdg = pdg_of("""
        fun f() {
          t = gets();
          u = t + 1;
          fopen(u);
          return 0;
        }
        """)
        assert len(collect_candidates(pdg, cwe23_checker())) == 1

    def test_taint_stopped_by_sanitizer(self):
        pdg = pdg_of("""
        fun f() {
          t = gets();
          u = sanitize_path(t);
          fopen(u);
          return 0;
        }
        """)
        assert collect_candidates(pdg, cwe23_checker()) == []

    def test_paths_per_pair_cap(self, monkeypatch):
        # Three call sites give three paths (one per callee frame) from
        # the one null to the one deref.
        pdg = pdg_of("""
        fun g(x) { deref(x); return 0; }
        fun f(a) {
          p = null;
          g(p);
          g(p);
          g(p);
          return 0;
        }
        """)
        checker = NullDereferenceChecker()
        candidates = collect_candidates(pdg, checker)
        assert MAX_PATHS_PER_PAIR == 2
        assert len(candidates) == MAX_PATHS_PER_PAIR
        assert len({c.key() for c in candidates}) == 1
        monkeypatch.setattr(sparse_engine, "MAX_PATHS_PER_PAIR", 10)
        assert len(collect_candidates(pdg, checker)) == 3

    def test_null_does_not_flow_through_condition(self):
        pdg = pdg_of("""
        fun f(a) {
          p = null;
          if (p == a) { b = 1; } else { b = 2; }
          deref(b);
          return 0;
        }
        """)
        assert collect_candidates(pdg, NullDereferenceChecker()) == []
