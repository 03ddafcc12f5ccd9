"""Test oracle: CFGs, dominator trees and post-dominance control deps.

The PDG builder reads control dependence straight off the structured
IR's branch nesting (each statement's control parent is its innermost
enclosing branch, :func:`repro.pdg.builder.walk_function`).
This module is the textbook construction it is checked against: a CFG
per function, dominator/post-dominator trees (Cooper–Harvey–Kennedy) and
control dependence from post-dominance (Ferrante–Ottenstein–Warren), the
"almost linear time [17]" construction the paper cites (Cytron et al.).
``tests/test_cfg.py`` and ``tests/test_fuzz_lowering.py`` require both
to agree on every statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.lang.ir import Branch, Function, Stmt


# --------------------------------------------------------------------- #
# Control-flow graphs
# --------------------------------------------------------------------- #
#
# The lowered IR is structured (branch bodies nest), so the CFG is built by
# a single recursive walk: a ``Branch`` statement terminates its block with
# a true-edge into the body and a false-edge to the join block.

@dataclass
class BasicBlock:
    index: int
    stmts: list[Stmt] = field(default_factory=list)
    succs: list["BasicBlock"] = field(default_factory=list)
    preds: list["BasicBlock"] = field(default_factory=list)
    #: For a block ending in a Branch: which successor is the true edge.
    true_succ: Optional["BasicBlock"] = None

    @property
    def terminator(self) -> Optional[Stmt]:
        return self.stmts[-1] if self.stmts else None

    def __repr__(self) -> str:
        return f"BB{self.index}({len(self.stmts)} stmts)"

    def __hash__(self) -> int:
        return self.index


class ControlFlowGraph:
    """The CFG of one function: unique entry, unique exit."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self.blocks: list[BasicBlock] = []
        self.entry = self._new_block()
        exit_block = self._build(function.body, self.entry)
        self.exit = exit_block
        self._prune_empty_blocks()
        self.block_of: dict[int, BasicBlock] = {}
        for block in self.blocks:
            for stmt in block.stmts:
                self.block_of[id(stmt)] = block

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def _new_block(self) -> BasicBlock:
        block = BasicBlock(len(self.blocks))
        self.blocks.append(block)
        return block

    @staticmethod
    def _link(src: BasicBlock, dst: BasicBlock,
              is_true_edge: bool = False) -> None:
        src.succs.append(dst)
        dst.preds.append(src)
        if is_true_edge:
            src.true_succ = dst

    def _build(self, stmts: list[Stmt], current: BasicBlock) -> BasicBlock:
        for stmt in stmts:
            if isinstance(stmt, Branch):
                current.stmts.append(stmt)
                body_entry = self._new_block()
                self._link(current, body_entry, is_true_edge=True)
                body_exit = self._build(stmt.body, body_entry)
                join = self._new_block()
                self._link(current, join)
                self._link(body_exit, join)
                current = join
            else:
                current.stmts.append(stmt)
        return current

    def _prune_empty_blocks(self) -> None:
        """Splice out empty blocks (e.g. joins after trailing branches)."""
        changed = True
        while changed:
            changed = False
            for block in self.blocks:
                if block.stmts or block is self.entry or block is self.exit:
                    continue
                if len(block.succs) != 1:
                    continue
                successor = block.succs[0]
                successor.preds.remove(block)
                for pred in block.preds:
                    pred.succs[pred.succs.index(block)] = successor
                    if pred.true_succ is block:
                        pred.true_succ = successor
                    successor.preds.append(pred)
                self.blocks.remove(block)
                changed = True
                break
        for i, block in enumerate(self.blocks):
            block.index = i

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def statements(self) -> Iterator[Stmt]:
        for block in self.blocks:
            yield from block.stmts

    def reverse_postorder(self) -> list[BasicBlock]:
        seen: set[int] = set()
        order: list[BasicBlock] = []

        def visit(block: BasicBlock) -> None:
            seen.add(block.index)
            for succ in block.succs:
                if succ.index not in seen:
                    visit(succ)
            order.append(block)

        visit(self.entry)
        order.reverse()
        return order

    def to_dot(self) -> str:
        lines = ["digraph cfg {"]
        for block in self.blocks:
            label = "\\n".join(repr(s) for s in block.stmts) or "(empty)"
            lines.append(f'  bb{block.index} [shape=box,label="{label}"];')
        for block in self.blocks:
            for succ in block.succs:
                style = ' [label="T"]' if succ is block.true_succ else ""
                lines.append(f"  bb{block.index} -> bb{succ.index}{style};")
        lines.append("}")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# Dominator and post-dominator trees (Cooper–Harvey–Kennedy)
# --------------------------------------------------------------------- #
#
# The iterative "engineered" algorithm: process blocks in reverse
# postorder, intersecting predecessor dominators by walking up the current
# tree.  Runs in near-linear time on reducible CFGs, which is all the
# loop-free lowered IR ever produces.

class DominatorTree:
    """Immediate-dominator map over a flow graph.

    ``reverse=True`` computes *post*-dominators by flipping edge direction
    and rooting at the CFG exit — the ingredient for control dependence.
    """

    def __init__(self, cfg: ControlFlowGraph, reverse: bool = False) -> None:
        self.cfg = cfg
        self.reverse = reverse
        self.root = cfg.exit if reverse else cfg.entry
        self.idom: dict[int, Optional[BasicBlock]] = {}
        self._order_index: dict[int, int] = {}
        self._compute()

    def _succs(self, block: BasicBlock) -> list[BasicBlock]:
        return block.preds if self.reverse else block.succs

    def _preds(self, block: BasicBlock) -> list[BasicBlock]:
        return block.succs if self.reverse else block.preds

    def _reverse_postorder(self) -> list[BasicBlock]:
        seen: set[int] = set()
        order: list[BasicBlock] = []

        def visit(block: BasicBlock) -> None:
            seen.add(block.index)
            for succ in self._succs(block):
                if succ.index not in seen:
                    visit(succ)
            order.append(block)

        visit(self.root)
        order.reverse()
        return order

    def _compute(self) -> None:
        order = self._reverse_postorder()
        self._order_index = {b.index: i for i, b in enumerate(order)}
        self.idom = {self.root.index: self.root}

        changed = True
        while changed:
            changed = False
            for block in order:
                if block is self.root:
                    continue
                preds = [p for p in self._preds(block)
                         if p.index in self.idom]
                if not preds:
                    continue
                new_idom = preds[0]
                for pred in preds[1:]:
                    new_idom = self._intersect(pred, new_idom)
                if self.idom.get(block.index) is not new_idom:
                    self.idom[block.index] = new_idom
                    changed = True

    def _intersect(self, a: BasicBlock, b: BasicBlock) -> BasicBlock:
        index = self._order_index
        while a is not b:
            while index[a.index] > index[b.index]:
                a = self.idom[a.index]  # type: ignore[assignment]
            while index[b.index] > index[a.index]:
                b = self.idom[b.index]  # type: ignore[assignment]
        return a

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def immediate_dominator(self, block: BasicBlock) -> Optional[BasicBlock]:
        if block is self.root:
            return None
        return self.idom.get(block.index)

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True iff ``a`` (post-)dominates ``b`` (reflexively)."""
        node: Optional[BasicBlock] = b
        while node is not None:
            if node is a:
                return True
            if node is self.root:
                return False
            node = self.idom.get(node.index)
        return False

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)


# --------------------------------------------------------------------- #
# Control dependence from post-dominance (Ferrante–Ottenstein–Warren)
# --------------------------------------------------------------------- #
#
# A block ``n`` is control-dependent on a branch edge ``(a, s)`` when ``n``
# post-dominates ``s`` but does not strictly post-dominate ``a``: walk the
# post-dominator tree from each edge target ``s`` up to (but excluding)
# ``ipdom(a)``.  Definition 3.1 of the paper restricts control dependence
# to *true* branches (the lowering desugars ``else`` into a
# negated-condition branch precisely so this holds), so
# :func:`statement_control_deps` only reports dependences through true
# edges and maps them to the governing ``Branch`` statement.

def block_control_deps(
        cfg: ControlFlowGraph,
        pdom: DominatorTree | None = None,
) -> dict[int, set[tuple[BasicBlock, BasicBlock]]]:
    """Map block index -> set of controlling edges ``(branch_block, succ)``."""
    if pdom is None:
        pdom = DominatorTree(cfg, reverse=True)
    deps: dict[int, set[tuple[BasicBlock, BasicBlock]]] = {
        b.index: set() for b in cfg.blocks}
    for a in cfg.blocks:
        if len(a.succs) < 2:
            continue
        stop = pdom.immediate_dominator(a)
        for s in a.succs:
            node: BasicBlock | None = s
            while node is not None and node is not stop and node is not a:
                deps[node.index].add((a, s))
                node = pdom.immediate_dominator(node)
    return deps


def statement_control_deps(cfg: ControlFlowGraph) -> dict[int, set[int]]:
    """Map ``id(stmt)`` -> set of ``id(branch_stmt)`` it is
    control-dependent on, restricted to true edges (Definition 3.1)."""
    block_deps = block_control_deps(cfg)
    result: dict[int, set[int]] = {}
    for block in cfg.blocks:
        controlling: set[int] = set()
        for branch_block, succ in block_deps[block.index]:
            terminator = branch_block.terminator
            if isinstance(terminator, Branch) and \
                    succ is branch_block.true_succ:
                controlling.add(id(terminator))
        for stmt in block.stmts:
            result[id(stmt)] = set(controlling)
    return result
