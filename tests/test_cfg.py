"""Tests for the CFG/dominance oracle and its cross-check against the
control parents the PDG builder reads off branch nesting."""

import pytest

from repro.lang import Branch, compile_source
from repro.pdg import build_pdg
from cfg_oracle import (ControlFlowGraph, DominatorTree, block_control_deps,
                        statement_control_deps)

DIAMOND = """
fun f(a) {
  x = 0;
  if (a < 5) { x = 1; } else { x = 2; }
  return x;
}
"""

NESTED = """
fun f(a, b) {
  x = 0;
  if (a < 5) {
    y = 1;
    if (b < 5) { x = y; }
  }
  return x;
}
"""


def cfg_of(src, name="f"):
    prog = compile_source(src)
    return ControlFlowGraph(prog.functions[name])


class TestCfgConstruction:
    def test_straight_line_single_block(self):
        cfg = cfg_of("fun f(a) { x = a + 1; y = x; return y; }")
        assert len(cfg.blocks) == 1
        assert cfg.entry is cfg.exit

    def test_diamond_shape(self):
        cfg = cfg_of(DIAMOND)
        branch_blocks = [b for b in cfg.blocks if len(b.succs) == 2]
        assert len(branch_blocks) == 2  # then-branch and else-branch guards
        for block in branch_blocks:
            assert block.true_succ is not None

    def test_every_statement_mapped_to_block(self):
        prog = compile_source(NESTED)
        cfg = ControlFlowGraph(prog.functions["f"])
        for stmt in prog.functions["f"].statements():
            assert id(stmt) in cfg.block_of

    def test_exit_reachable_from_entry(self):
        cfg = cfg_of(NESTED)
        seen = set()
        stack = [cfg.entry]
        while stack:
            b = stack.pop()
            if b.index in seen:
                continue
            seen.add(b.index)
            stack.extend(b.succs)
        assert cfg.exit.index in seen

    def test_no_dangling_empty_blocks(self):
        cfg = cfg_of(NESTED)
        for block in cfg.blocks:
            if block is not cfg.entry and block is not cfg.exit:
                assert block.stmts or len(block.succs) != 1

    def test_reverse_postorder_starts_at_entry(self):
        cfg = cfg_of(DIAMOND)
        order = cfg.reverse_postorder()
        assert order[0] is cfg.entry
        positions = {b.index: i for i, b in enumerate(order)}
        # Loop-free CFG: every edge goes forward in RPO.
        for block in cfg.blocks:
            for succ in block.succs:
                assert positions[block.index] < positions[succ.index]

    def test_to_dot_mentions_all_blocks(self):
        cfg = cfg_of(DIAMOND)
        dot = cfg.to_dot()
        for block in cfg.blocks:
            assert f"bb{block.index}" in dot


class TestDominance:
    def test_entry_dominates_everything(self):
        cfg = cfg_of(NESTED)
        dom = DominatorTree(cfg)
        for block in cfg.blocks:
            assert dom.dominates(cfg.entry, block)

    def test_exit_postdominates_everything(self):
        cfg = cfg_of(NESTED)
        pdom = DominatorTree(cfg, reverse=True)
        for block in cfg.blocks:
            assert pdom.dominates(cfg.exit, block)

    def test_branch_target_not_dominating_join(self):
        cfg = cfg_of(DIAMOND)
        dom = DominatorTree(cfg)
        branch_block = next(b for b in cfg.blocks if len(b.succs) == 2)
        then_block = branch_block.true_succ
        assert not dom.dominates(then_block, cfg.exit)

    def test_idom_of_root_is_none(self):
        cfg = cfg_of(DIAMOND)
        dom = DominatorTree(cfg)
        assert dom.immediate_dominator(cfg.entry) is None

    def test_strict_dominance_irreflexive(self):
        cfg = cfg_of(DIAMOND)
        dom = DominatorTree(cfg)
        for block in cfg.blocks:
            assert not dom.strictly_dominates(block, block)


class TestControlDependence:
    def test_then_block_depends_on_branch(self):
        cfg = cfg_of(DIAMOND)
        deps = block_control_deps(cfg)
        branch_blocks = [b for b in cfg.blocks if len(b.succs) == 2]
        for branch in branch_blocks:
            then_block = branch.true_succ
            assert any(a is branch for a, _ in deps[then_block.index])

    def test_join_block_not_dependent(self):
        cfg = cfg_of(DIAMOND)
        deps = block_control_deps(cfg)
        assert deps[cfg.exit.index] == set()

    @pytest.mark.parametrize("src", [DIAMOND, NESTED, """
    fun f(n) {
      i = 0;
      while (i < n) { i = i + 1; }
      if (i < 3) { i = 9; }
      return i;
    }
    """])
    def test_cfg_control_deps_match_structural_nesting(self, src):
        """The FOW post-dominance computation must agree with the branch
        nesting the structured lowering guarantees."""
        prog = compile_source(src)
        function = prog.functions["f"]
        cfg = ControlFlowGraph(function)
        from_cfg = statement_control_deps(cfg)
        pdg = build_pdg(prog)
        for vertex in pdg.function_vertices("f"):
            parent = pdg.control_parent(vertex)
            from_pdg = set() if parent is None else {id(parent.stmt)}
            assert from_cfg[id(vertex.stmt)] == from_pdg, repr(vertex)

    def test_branch_statement_itself_not_self_dependent(self):
        prog = compile_source(DIAMOND)
        function = prog.functions["f"]
        cfg = ControlFlowGraph(function)
        deps = statement_control_deps(cfg)
        for stmt in function.statements():
            if isinstance(stmt, Branch):
                assert id(stmt) not in deps[id(stmt)]
