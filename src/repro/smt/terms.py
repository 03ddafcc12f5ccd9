"""Hash-consed term DAG for the bit-vector/Boolean theory.

Terms are immutable and interned per :class:`TermManager`, so structural
equality is pointer equality and common sub-terms are shared.  Sharing is
essential for the paper's cost model: a path condition produced from the
program dependence graph is a *DAG*, and cloning a callee's condition at a
call site multiplies the number of distinct nodes — exactly the
"condition cloning" cost Fusion avoids.

The term language mirrors Figure 8 of the paper::

    e := true | false | v | e1 (+) e2 | ite(e1, e2, e3)

with ``(+)`` drawn from the operator set of Figure 4
(logical and/or/not, arithmetic, comparisons, equality).
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, Optional

from repro.smt.sorts import BOOL, Sort, bitvec


class Op(enum.Enum):
    """Term constructors.

    Members hash by identity (C-level ``object.__hash__``) instead of
    ``Enum.__hash__``, which hashes the member's name in Python on every
    intern-key lookup.  Members are singletons, so equality is unchanged;
    the hashes differ from process to process, so no order may come from
    iterating a set of operators (none does).
    """

    __hash__ = object.__hash__

    # Leaves.
    VAR = "var"
    CONST = "const"        # bit-vector literal; payload is the value
    TRUE = "true"
    FALSE = "false"

    # Boolean connectives.
    NOT = "not"
    AND = "and"
    OR = "or"
    XOR = "xor"
    IMPLIES = "=>"

    # Polymorphic.
    EQ = "="
    ITE = "ite"

    # Bit-vector arithmetic.
    BVADD = "bvadd"
    BVSUB = "bvsub"
    BVMUL = "bvmul"
    BVNEG = "bvneg"
    BVUDIV = "bvudiv"
    BVUREM = "bvurem"

    # Bit-vector bitwise.
    BVAND = "bvand"
    BVOR = "bvor"
    BVXOR = "bvxor"
    BVNOT = "bvnot"
    BVSHL = "bvshl"
    BVLSHR = "bvlshr"

    # Bit-vector comparisons (Boolean-sorted).
    ULT = "bvult"
    ULE = "bvule"
    SLT = "bvslt"
    SLE = "bvsle"


#: Operators whose result sort is Boolean regardless of argument sorts.
BOOLEAN_RESULT_OPS = frozenset(
    {Op.TRUE, Op.FALSE, Op.NOT, Op.AND, Op.OR, Op.XOR, Op.IMPLIES,
     Op.EQ, Op.ULT, Op.ULE, Op.SLT, Op.SLE}
)

#: Commutative operators, used by the rewriter for argument ordering.
COMMUTATIVE_OPS = frozenset(
    {Op.AND, Op.OR, Op.XOR, Op.EQ, Op.BVADD, Op.BVMUL,
     Op.BVAND, Op.BVOR, Op.BVXOR}
)


class Term:
    """An immutable, interned term.

    Do not construct directly — use a :class:`TermManager`.  Two terms from
    the same manager are semantically equal iff they are the same object.
    """

    __slots__ = ("op", "args", "sort", "payload", "tid", "is_var",
                 "is_const", "__weakref__")

    def __init__(self, op: Op, args: tuple["Term", ...], sort: Sort,
                 payload: object, tid: int) -> None:
        self.op = op
        self.args = args
        self.sort = sort
        self.payload = payload
        self.tid = tid
        # Leaf tests are read in every rewrite; stored, they cost an
        # attribute load instead of a property call.
        self.is_var = op is Op.VAR
        self.is_const = op is Op.CONST or op is Op.TRUE or op is Op.FALSE

    def __hash__(self) -> int:
        return self.tid

    # Identity equality is intentional: interning guarantees uniqueness.

    @property
    def name(self) -> str:
        if self.op is not Op.VAR:
            raise ValueError(f"not a variable: {self!r}")
        return self.payload  # type: ignore[return-value]

    @property
    def value(self) -> int:
        """Value of a constant: the bit-vector value, or 0/1 for false/true."""
        if self.op is Op.CONST:
            return self.payload  # type: ignore[return-value]
        if self.op is Op.TRUE:
            return 1
        if self.op is Op.FALSE:
            return 0
        raise ValueError(f"not a constant: {self!r}")

    def __repr__(self) -> str:
        return to_sexpr(self, max_depth=4)

    def iter_dag(self) -> list["Term"]:
        """Every distinct sub-term once, children before parents.

        The last argument's sub-DAG comes first: arguments are pushed in
        order and popped last-first.  Term operations intern in this
        order, so it fixes term ids and must not change (docs/solver.md,
        "Terms").  A ``None`` on the stack marks that the term under it
        has all its arguments emitted.
        """
        order: list[Term] = []
        seen: set[int] = set()
        stack: list[Optional[Term]] = [self]
        pop, push = stack.pop, stack.append
        emit, mark = order.append, seen.add
        while stack:
            term = pop()
            if term is None:
                term = pop()
                mark(term.tid)
                emit(term)
                continue
            if term.tid in seen:
                continue
            if not term.args:
                mark(term.tid)
                emit(term)
                continue
            push(term)
            push(None)
            for arg in term.args:
                if arg.tid not in seen:
                    push(arg)
        return order

    def dag_size(self) -> int:
        """Number of distinct nodes in the term DAG.

        This is the paper's ``sizeof(phi)``: the memory cost of holding the
        condition, which condition cloning multiplies.
        """
        return len(self.iter_dag())

    def free_vars(self) -> set["Term"]:
        return {t for t in self.iter_dag() if t.op is Op.VAR}


class TermManager:
    """Owns the intern table and builds well-sorted terms.

    All construction is *raw*: no simplification happens here beyond sort
    checking, so rewriting/preprocessing cost stays observable and is
    attributable to the tactics that the benchmarks compare (this mirrors
    how Z3 separates term construction from its ``simplify`` tactic).
    """

    def __init__(self) -> None:
        self._table: dict[tuple, Term] = {}
        self._counter = itertools.count()
        self._true = self._intern(Op.TRUE, (), BOOL, None)
        self._false = self._intern(Op.FALSE, (), BOOL, None)
        self._fresh_counter = itertools.count()

    # ------------------------------------------------------------------ #
    # Interning
    # ------------------------------------------------------------------ #

    def _intern(self, op: Op, args: tuple[Term, ...], sort: Sort,
                payload: object) -> Term:
        # The width stands for the sort: it hashes in C, where a
        # dataclass ``Sort`` would hash in Python.
        key = (op, tuple([a.tid for a in args]), sort.width, payload)
        term = self._table.get(key)
        if term is None:
            term = Term(op, args, sort, payload, next(self._counter))
            self._table[key] = term
        return term

    def __len__(self) -> int:
        """Number of live interned terms (a proxy for solver memory)."""
        return len(self._table)

    # ------------------------------------------------------------------ #
    # Leaves
    # ------------------------------------------------------------------ #

    @property
    def true(self) -> Term:
        return self._true

    @property
    def false(self) -> Term:
        return self._false

    def bool_const(self, value: bool) -> Term:
        return self._true if value else self._false

    def var(self, name: str, sort: Sort) -> Term:
        return self._intern(Op.VAR, (), sort, name)

    def bool_var(self, name: str) -> Term:
        return self.var(name, BOOL)

    def bv_var(self, name: str, width: int) -> Term:
        return self.var(name, bitvec(width))

    def fresh_var(self, sort: Sort, prefix: str = "!k") -> Term:
        """A variable guaranteed not to collide with user-named variables."""
        return self.var(f"{prefix}{next(self._fresh_counter)}", sort)

    def bv_const(self, value: int, width: int) -> Term:
        return self._intern(Op.CONST, (), bitvec(width), value % (1 << width))

    # ------------------------------------------------------------------ #
    # Boolean connectives
    # ------------------------------------------------------------------ #

    def _check_bool(self, *terms: Term) -> None:
        for t in terms:
            if not t.sort.is_bool:
                raise TypeError(f"expected Bool term, got {t.sort}: {t!r}")

    def not_(self, a: Term) -> Term:
        self._check_bool(a)
        return self._intern(Op.NOT, (a,), BOOL, None)

    def _nary_bool(self, op: Op, terms: Iterable[Term],
                   empty: Term) -> Term:
        flat = tuple(terms)
        self._check_bool(*flat)
        if not flat:
            return empty
        if len(flat) == 1:
            return flat[0]
        return self._intern(op, flat, BOOL, None)

    def and_(self, *terms: Term) -> Term:
        return self._nary_bool(Op.AND, terms, self._true)

    def or_(self, *terms: Term) -> Term:
        return self._nary_bool(Op.OR, terms, self._false)

    def conj(self, terms: Iterable[Term]) -> Term:
        return self.and_(*terms)

    def disj(self, terms: Iterable[Term]) -> Term:
        return self.or_(*terms)

    def xor(self, a: Term, b: Term) -> Term:
        self._check_bool(a, b)
        return self._intern(Op.XOR, (a, b), BOOL, None)

    def implies(self, a: Term, b: Term) -> Term:
        self._check_bool(a, b)
        return self._intern(Op.IMPLIES, (a, b), BOOL, None)

    # ------------------------------------------------------------------ #
    # Polymorphic
    # ------------------------------------------------------------------ #

    def eq(self, a: Term, b: Term) -> Term:
        if a.sort.width != b.sort.width:
            raise TypeError(f"eq on mismatched sorts: {a.sort} vs {b.sort}")
        return self._intern(Op.EQ, (a, b), BOOL, None)

    def ite(self, cond: Term, then: Term, other: Term) -> Term:
        self._check_bool(cond)
        if then.sort.width != other.sort.width:
            raise TypeError(
                f"ite branches have mismatched sorts: {then.sort} vs {other.sort}")
        return self._intern(Op.ITE, (cond, then, other), then.sort, None)

    # ------------------------------------------------------------------ #
    # Bit-vector operations
    # ------------------------------------------------------------------ #

    def _check_bv_pair(self, a: Term, b: Term) -> Sort:
        width = a.sort.width
        if width == 0 or width != b.sort.width:
            raise TypeError(
                f"expected matching bit-vector sorts, got {a.sort} and {b.sort}")
        return a.sort

    def _bv_binop(self, op: Op, a: Term, b: Term) -> Term:
        sort = self._check_bv_pair(a, b)
        return self._intern(op, (a, b), sort, None)

    def _bv_cmp(self, op: Op, a: Term, b: Term) -> Term:
        self._check_bv_pair(a, b)
        return self._intern(op, (a, b), BOOL, None)

    def bvadd(self, a: Term, b: Term) -> Term:
        return self._bv_binop(Op.BVADD, a, b)

    def bvsub(self, a: Term, b: Term) -> Term:
        return self._bv_binop(Op.BVSUB, a, b)

    def bvmul(self, a: Term, b: Term) -> Term:
        return self._bv_binop(Op.BVMUL, a, b)

    def bvudiv(self, a: Term, b: Term) -> Term:
        return self._bv_binop(Op.BVUDIV, a, b)

    def bvurem(self, a: Term, b: Term) -> Term:
        return self._bv_binop(Op.BVUREM, a, b)

    def bvneg(self, a: Term) -> Term:
        if not a.sort.is_bv:
            raise TypeError(f"bvneg expects a bit vector, got {a.sort}")
        return self._intern(Op.BVNEG, (a,), a.sort, None)

    def bvnot(self, a: Term) -> Term:
        if not a.sort.is_bv:
            raise TypeError(f"bvnot expects a bit vector, got {a.sort}")
        return self._intern(Op.BVNOT, (a,), a.sort, None)

    def bvand(self, a: Term, b: Term) -> Term:
        return self._bv_binop(Op.BVAND, a, b)

    def bvor(self, a: Term, b: Term) -> Term:
        return self._bv_binop(Op.BVOR, a, b)

    def bvxor(self, a: Term, b: Term) -> Term:
        return self._bv_binop(Op.BVXOR, a, b)

    def bvshl(self, a: Term, b: Term) -> Term:
        return self._bv_binop(Op.BVSHL, a, b)

    def bvlshr(self, a: Term, b: Term) -> Term:
        return self._bv_binop(Op.BVLSHR, a, b)

    def ult(self, a: Term, b: Term) -> Term:
        return self._bv_cmp(Op.ULT, a, b)

    def ule(self, a: Term, b: Term) -> Term:
        return self._bv_cmp(Op.ULE, a, b)

    def slt(self, a: Term, b: Term) -> Term:
        return self._bv_cmp(Op.SLT, a, b)

    def sle(self, a: Term, b: Term) -> Term:
        return self._bv_cmp(Op.SLE, a, b)

    # Signed comparison aliases matching surface-language operators.
    def lt(self, a: Term, b: Term) -> Term:
        return self.slt(a, b)

    def le(self, a: Term, b: Term) -> Term:
        return self.sle(a, b)

    def gt(self, a: Term, b: Term) -> Term:
        return self.slt(b, a)

    def ge(self, a: Term, b: Term) -> Term:
        return self.sle(b, a)

    # ------------------------------------------------------------------ #
    # Structural helpers
    # ------------------------------------------------------------------ #

    def rebuild(self, term: Term, new_args: tuple[Term, ...]) -> Term:
        """Rebuild ``term`` with ``new_args``, preserving op and payload."""
        if new_args == term.args:
            return term
        if term.op is Op.EQ:
            return self.eq(*new_args)
        if term.op is Op.ITE:
            return self.ite(*new_args)
        sort = BOOL if term.op in BOOLEAN_RESULT_OPS else new_args[0].sort
        return self._intern(term.op, new_args, sort, term.payload)

    def substitute(self, term: Term,
                   mapping: dict[Term, Term]) -> Term:
        """Simultaneously substitute variables (or arbitrary sub-terms)."""
        return self._substitute(term.iter_dag(), mapping)

    def _substitute(self, order: list[Term],
                    mapping: dict[Term, Term]) -> Term:
        """``substitute`` over ``order``, a term's ``iter_dag``.

        ``mapping`` is re-keyed by term id first: an ``int`` lookup hashes
        in C, where ``Term.__hash__`` is a Python call per node.
        """
        replace = {key.tid: value for key, value in mapping.items()}
        cache: dict[int, Term] = {}
        rebuild = self.rebuild
        for node in order:
            replacement = replace.get(node.tid)
            if replacement is not None:
                cache[node.tid] = replacement
            elif not node.args:
                cache[node.tid] = node
            else:
                cache[node.tid] = rebuild(
                    node, tuple([cache[a.tid] for a in node.args]))
        return cache[order[-1].tid]

    def rename(self, term: Term, suffix: str) -> Term:
        """Clone ``term``, renaming every free variable with ``suffix``.

        This is the *condition cloning* operation the conventional design
        performs at every call site (Line 12 of Algorithm 2); its cost is
        linear in the DAG size of ``term``, which is what makes eager
        cloning exponential over deep call chains.  One walk serves both
        steps: the variables are collected in walk order, as
        ``free_vars`` does, so the renamed ones are interned in the same
        order.
        """
        order = term.iter_dag()
        mapping = {v: self.var(v.payload + suffix, v.sort)
                   for v in {t for t in order if t.op is Op.VAR}}
        return self._substitute(order, mapping)


def to_sexpr(term: Term, max_depth: Optional[int] = None) -> str:
    """Render a term as an SMT-LIB-flavoured s-expression (for debugging)."""

    def go(t: Term, depth: int) -> str:
        if t.op is Op.VAR:
            return str(t.payload)
        if t.op is Op.CONST:
            return f"#x{t.payload:0{(t.sort.width + 3) // 4}x}"
        if t.op is Op.TRUE:
            return "true"
        if t.op is Op.FALSE:
            return "false"
        if max_depth is not None and depth >= max_depth:
            return "..."
        inner = " ".join(go(a, depth + 1) for a in t.args)
        return f"({t.op.value} {inner})"

    return go(term, 0)
