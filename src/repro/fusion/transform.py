"""The linear allotropic transformation (Section 3.2.1, Rules 4-8).

Translates sliced program-dependence-graph vertices into first-order
constraints over bit-vector/Boolean terms:

* Rule (4)/(5): a path is feasible iff every required branch/ite condition
  holds — :meth:`ConditionTransformer.requirement_term`.
* Rule (6): each sliced statement becomes its defining equation —
  :meth:`ConditionTransformer.template`.
* Rules (7)/(8): call/return edges become parameter and receiver binding
  equations; cloning a callee is just renaming its template with a context
  suffix (:func:`rename` on the hash-consed DAG), so the *cost* of
  context-sensitivity is explicit and measurable.

Variables are qualified ``function::ssa_name`` and instantiated per
context by appending suffixes: ``@<site>`` for a clone made inside a
summary expansion, ``#f<id>`` for a path frame; names compose innermost
site first (``x@63@90#f0``).  The same transformer is shared by the
conventional engine, which expands and caches summaries eagerly and
renames them into each call site with :meth:`~ConditionTransformer.clone_at`,
and by Fusion's graph solver, which caches nothing and names each cloned
term once, at its final suffix — the paper's point that the two
representations are allotropes of the same information.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.lang.ir import (Assign, Binary, BinOp, Branch, Call,
                           Identity, IfThenElse, Operand, Return, Var,
                           VarType)
from repro.pdg.graph import ProgramDependenceGraph, Vertex
from repro.pdg.slicing import Requirement, Slice
from repro.smt.sorts import BOOL, bitvec
from repro.smt.terms import Term, TermManager


@dataclass
class CallBinding:
    """A sliced call to a defined function: whoever instantiates the
    template must connect receiver/params to a callee instance."""

    callsite: int
    callee: str
    receiver: str              # unqualified receiver SSA name
    args: tuple[Operand, ...]  # actual operands (caller-local)


@dataclass
class LocalTemplate:
    """The un-cloned, per-function path-condition fragment."""

    function: str
    constraints: list[Term] = field(default_factory=list)
    calls: list[CallBinding] = field(default_factory=list)


class ConditionTransformer:
    """Rules (4)-(8) over a fixed PDG and term manager."""

    def __init__(self, pdg: ProgramDependenceGraph,
                 manager: Optional[TermManager] = None) -> None:
        self.pdg = pdg
        self.manager = manager if manager is not None else TermManager()
        self.width = pdg.program.width
        self._template_cache: dict[tuple, LocalTemplate] = {}

    # ------------------------------------------------------------------ #
    # Terms for IR entities
    # ------------------------------------------------------------------ #

    def var_term(self, function: str, var: Var, suffix: str = "") -> Term:
        sort = BOOL if var.type is VarType.BOOL else bitvec(self.width)
        return self.manager.var(f"{function}::{var.name}{suffix}", sort)

    def operand_term(self, function: str, operand: Operand,
                     suffix: str = "") -> Term:
        if isinstance(operand, Var):
            return self.var_term(function, operand, suffix)
        if operand.type is VarType.BOOL:
            return self.manager.bool_const(bool(operand.value))
        return self.manager.bv_const(operand.value, self.width)

    # ------------------------------------------------------------------ #
    # Rule (6): statement translation
    # ------------------------------------------------------------------ #

    def statement_equation(self, function: str, stmt) -> Optional[Term]:
        """The defining equation of one statement, or None when the
        statement contributes no constraint (identities, branches, calls
        to defined functions — those are handled by bindings)."""
        mgr = self.manager

        if isinstance(stmt, (Identity, Branch)):
            return None
        result = self.var_term(function, stmt.result)
        if isinstance(stmt, (Assign, Return)):
            return mgr.eq(result, self.operand_term(function, stmt.source))
        if isinstance(stmt, Binary):
            lhs = self.operand_term(function, stmt.lhs)
            rhs = self.operand_term(function, stmt.rhs)
            return mgr.eq(result, self._binary_term(stmt.op, lhs, rhs))
        if isinstance(stmt, IfThenElse):
            return mgr.eq(result, mgr.ite(
                self.operand_term(function, stmt.cond),
                self.operand_term(function, stmt.then_value),
                self.operand_term(function, stmt.else_value)))
        if isinstance(stmt, Call):
            if stmt.callee in self.pdg.program.functions:
                return None  # bound to a callee instance by Rules (7)/(8)
            # Empty function (Figure 5, last rule): the receiver depends on
            # the single actual; with zero or several actuals the result is
            # unconstrained (a havoc value).
            if len(stmt.args) == 1 and isinstance(stmt.args[0], Var) \
                    and stmt.args[0].type is stmt.result.type:
                return mgr.eq(result,
                              self.operand_term(function, stmt.args[0]))
            return None
        raise NotImplementedError(f"cannot translate {stmt!r}")

    def _binary_term(self, op: BinOp, lhs: Term, rhs: Term) -> Term:
        # An ``is`` chain, not a table: ``Enum.__hash__`` is a Python call.
        mgr = self.manager
        if op is BinOp.ADD:
            return mgr.bvadd(lhs, rhs)
        if op is BinOp.SUB:
            return mgr.bvsub(lhs, rhs)
        if op is BinOp.MUL:
            return mgr.bvmul(lhs, rhs)
        if op is BinOp.DIV:
            return mgr.bvudiv(lhs, rhs)
        if op is BinOp.REM:
            return mgr.bvurem(lhs, rhs)
        if op is BinOp.SHL:
            return mgr.bvshl(lhs, rhs)
        if op is BinOp.SHR:
            return mgr.bvlshr(lhs, rhs)
        if op is BinOp.LT:
            return mgr.slt(lhs, rhs)
        if op is BinOp.LE:
            return mgr.sle(lhs, rhs)
        if op is BinOp.GT:
            return mgr.gt(lhs, rhs)
        if op is BinOp.GE:
            return mgr.ge(lhs, rhs)
        if op is BinOp.BAND:
            return mgr.and_(lhs, rhs) if lhs.sort.is_bool \
                else mgr.bvand(lhs, rhs)
        if op is BinOp.BOR:
            return mgr.or_(lhs, rhs) if lhs.sort.is_bool \
                else mgr.bvor(lhs, rhs)
        if op is BinOp.BXOR:
            return mgr.xor(lhs, rhs) if lhs.sort.is_bool \
                else mgr.bvxor(lhs, rhs)
        if op is BinOp.EQ:
            return mgr.eq(lhs, rhs)
        if op is BinOp.NE:
            return mgr.not_(mgr.eq(lhs, rhs))
        if op is BinOp.AND:
            return mgr.and_(lhs, rhs)
        if op is BinOp.OR:
            return mgr.or_(lhs, rhs)
        raise NotImplementedError(f"operator {op}")

    # ------------------------------------------------------------------ #
    # Templates over slices
    # ------------------------------------------------------------------ #

    def template(self, function: str,
                 needed: frozenset[int]) -> LocalTemplate:
        """Constraints for the needed vertices of one function.

        ``needed`` holds vertex indices (from a :class:`Slice`); templates
        are cached per (function, needed-set) so repeated queries over the
        same slice shape pay construction once.
        """
        key = (function, needed)
        cached = self._template_cache.get(key)
        if cached is not None:
            return cached

        template = LocalTemplate(function)
        for vertex in sorted(self.pdg.function_vertices(function),
                             key=lambda v: v.index):
            if vertex.index not in needed:
                continue
            stmt = vertex.stmt
            if isinstance(stmt, Call) and \
                    stmt.callee in self.pdg.program.functions:
                site = self._callsite_of(vertex)
                template.calls.append(CallBinding(
                    site, stmt.callee, stmt.result.name, stmt.args))
                continue
            equation = self.statement_equation(function, stmt)
            if equation is not None:
                template.constraints.append(equation)
        self._template_cache[key] = template
        return template

    def _callsite_of(self, call_vertex: Vertex) -> int:
        cache = getattr(self, "_callsite_index", None)
        if cache is None:
            cache = {site.call_vertex.index: site_id
                     for site_id, site in self.pdg.callsites.items()}
            self._callsite_index = cache
        return cache[call_vertex.index]

    def needed_key(self, the_slice: Slice, function: str) -> frozenset[int]:
        return frozenset(v.index for v in the_slice.needed_in(function))

    # ------------------------------------------------------------------ #
    # Rules (4)/(5): requirements
    # ------------------------------------------------------------------ #

    def requirement_term(self, requirement: Requirement,
                         suffix: str) -> Term:
        """``cond == true/false`` for a Branch or IfThenElse requirement,
        in the instance identified by ``suffix``."""
        mgr = self.manager
        stmt = requirement.vertex.stmt
        cond = self.operand_term(requirement.vertex.function, stmt.cond,
                                 suffix)
        target = mgr.bool_const(requirement.value)
        return mgr.eq(cond, target)

    # ------------------------------------------------------------------ #
    # Rules (7)/(8): call-boundary bindings
    # ------------------------------------------------------------------ #

    def binding_constraints(self, caller: str, caller_suffix: str,
                            binding: CallBinding,
                            callee_suffix: str) -> list[Term]:
        """Equate callee params with actuals and the receiver with the
        callee's return value, across two instance suffixes."""
        mgr = self.manager
        out: list[Term] = []
        callee_fn = self.pdg.program.functions[binding.callee]
        for param, actual in zip(callee_fn.params, binding.args):
            out.append(mgr.eq(
                self.var_term(binding.callee, param, callee_suffix),
                self.operand_term(caller, actual, caller_suffix)))
        ret = self.pdg.return_vertex(binding.callee)
        if ret is not None:
            receiver = Var(binding.receiver,
                           ret.var.type)
            out.append(mgr.eq(
                self.var_term(caller, receiver, caller_suffix),
                self.var_term(binding.callee, ret.var, callee_suffix)))
        return out

    def clone_at(self, caller: str, binding: CallBinding,
                 callee_constraints: list[Term]) -> list[Term]:
        """Rules (7)/(8): the callee's constraints renamed into the
        call site's instance (``@callsite``), then the binding
        constraints tying that instance to the caller."""
        suffix = f"@{binding.callsite}"
        out = [self.manager.rename(c, suffix) for c in callee_constraints]
        out.extend(self.binding_constraints(caller, "", binding, suffix))
        return out

    def interface_vars(self, function: str,
                       needed: frozenset[int]) -> set[Term]:
        """Variables of a template that outside parties may reference:
        params, the return value, call receivers/actuals, and the branch
        and ite condition variables that requirements can target.  The
        modular preprocessing of Algorithm 6 must not eliminate these."""
        protected: set[Term] = set()
        fn = self.pdg.program.functions[function]
        for param in fn.params:
            protected.add(self.var_term(function, param))
        ret = self.pdg.return_vertex(function)
        if ret is not None:
            protected.add(self.var_term(function, ret.var))
        for vertex in self.pdg.function_vertices(function):
            stmt = vertex.stmt
            if isinstance(stmt, (Branch, IfThenElse)) and \
                    isinstance(stmt.cond, Var):
                protected.add(self.var_term(function, stmt.cond))
            if isinstance(stmt, Call) and \
                    stmt.callee in self.pdg.program.functions:
                protected.add(self.var_term(function, stmt.result))
                for arg in stmt.args:
                    if isinstance(arg, Var):
                        protected.add(self.var_term(function, arg))
        return protected
