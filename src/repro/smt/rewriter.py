"""Local term rewriting: the lightweight formula simplification (LFS) tactic.

This is the analogue of Z3's ``simplify`` tactic, which the paper uses to
implement the *Pinpoint+LFS* baseline ("LFS means lightweight formula
simplification, which just performs local formula rewriting", Section 5.1).
Every rule preserves logical *equivalence* (not merely equisatisfiability),
so the pass is safe to apply anywhere, including under negations.

The rewriter is a single bottom-up pass over the term DAG with
memoisation, so its cost is linear in the DAG size — which is exactly why
applying it to an exponentially cloned condition cannot rescue the
conventional design (Figure 10 of the paper).
"""

from __future__ import annotations

from typing import Optional

from repro.smt import semantics
from repro.smt.terms import COMMUTATIVE_OPS, Op, Term, TermManager


def simplify(manager: TermManager, term: Term,
             memo: Optional[dict[int, Term]] = None) -> Term:
    """Return an equivalent, locally simplified term.

    ``memo`` maps term ids to their simplified form and may be shared by
    several calls on the same ``manager``: terms are hash-consed and
    immutable, so a node's simplified form depends on the node alone.  The
    walk never descends into a node already in the memo.  Everything such
    a node's sub-DAG would intern was interned when it was first
    simplified, and since only this walk fills the memo, the node's
    descendants are all in it too: the remaining nodes are visited in the
    same post-order, so a shared memo yields the same terms *and* the same
    term ids as fresh calls.

    The walk is :meth:`Term.iter_dag`'s: a ``None`` on the stack marks
    that the node under it has all its arguments simplified.  A leaf
    simplifies to itself, so it is entered without a marker.
    """
    cache: dict[int, Term] = {} if memo is None else memo
    stack: list[Optional[Term]] = [term]
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        if node is None:
            node = pop()
            cache[node.tid] = _simplify_node(
                manager, node, tuple([cache[a.tid] for a in node.args]))
            continue
        if node.tid in cache:
            continue
        if not node.args:
            cache[node.tid] = node
            continue
        push(node)
        push(None)
        for arg in node.args:
            if arg.tid not in cache:
                push(arg)
    return cache[term.tid]


def _simplify_node(mgr: TermManager, node: Term,
                   args: tuple[Term, ...]) -> Term:
    op = node.op
    if not args:
        return node

    # Constant folding: every argument is a literal.
    for a in args:
        if not a.is_const:
            break
    else:
        rebuilt = mgr.rebuild(node, args)
        value = semantics.evaluate(rebuilt, {})
        if rebuilt.sort.is_bool:
            return mgr.bool_const(bool(value))
        return mgr.bv_const(value, rebuilt.sort.width)

    handler = _HANDLERS.get(op)
    if handler is not None:
        result = handler(mgr, node, args)
        if result is not None:
            return result

    if op in COMMUTATIVE_OPS:
        args = _sort_commutative(args)
    return mgr.rebuild(node, args)


def _sort_commutative(args: tuple[Term, ...]) -> tuple[Term, ...]:
    """Order commutative arguments canonically (constants first, then by id).

    Two arguments, the common case, are compared directly.
    """
    if len(args) == 2:
        a, b = args
        if a.is_const is b.is_const:
            return args if a.tid <= b.tid else (b, a)
        return args if a.is_const else (b, a)
    return tuple(sorted(args, key=lambda t: (not t.is_const, t.tid)))


# --------------------------------------------------------------------- #
# Per-operator rules.  Each handler returns a replacement term or None
# (meaning: fall through to generic rebuild).
# --------------------------------------------------------------------- #


def _rw_not(mgr: TermManager, node: Term, args: tuple[Term, ...]):
    (a,) = args
    if a.op is Op.TRUE:
        return mgr.false
    if a.op is Op.FALSE:
        return mgr.true
    if a.op is Op.NOT:
        return a.args[0]
    return None


def _rw_and(mgr: TermManager, node: Term, args: tuple[Term, ...]):
    kept: list[Term] = []
    seen: set[int] = set()
    for a in args:
        if a.op is Op.FALSE:
            return mgr.false
        if a.op is Op.TRUE or a.tid in seen:
            continue
        seen.add(a.tid)
        kept.append(a)
    for a in kept:
        complement = a.args[0].tid if a.op is Op.NOT else None
        for b in kept:
            if complement is not None and b.tid == complement:
                return mgr.false
            if b.op is Op.NOT and b.args[0].tid == a.tid:
                return mgr.false
    if not kept:
        return mgr.true
    if len(kept) == 1:
        return kept[0]
    return mgr.and_(*_sort_commutative(tuple(kept)))


def _rw_or(mgr: TermManager, node: Term, args: tuple[Term, ...]):
    kept: list[Term] = []
    seen: set[int] = set()
    for a in args:
        if a.op is Op.TRUE:
            return mgr.true
        if a.op is Op.FALSE or a.tid in seen:
            continue
        seen.add(a.tid)
        kept.append(a)
    for a in kept:
        for b in kept:
            if b.op is Op.NOT and b.args[0].tid == a.tid:
                return mgr.true
    if not kept:
        return mgr.false
    if len(kept) == 1:
        return kept[0]
    return mgr.or_(*_sort_commutative(tuple(kept)))


def _rw_xor(mgr: TermManager, node: Term, args: tuple[Term, ...]):
    a, b = args
    if a.tid == b.tid:
        return mgr.false
    if a.op is Op.FALSE:
        return b
    if b.op is Op.FALSE:
        return a
    if a.op is Op.TRUE:
        return _rw_not(mgr, node, (b,)) or mgr.not_(b)
    if b.op is Op.TRUE:
        return _rw_not(mgr, node, (a,)) or mgr.not_(a)
    return None


def _rw_implies(mgr: TermManager, node: Term, args: tuple[Term, ...]):
    a, b = args
    if a.op is Op.FALSE or b.op is Op.TRUE:
        return mgr.true
    if a.op is Op.TRUE:
        return b
    if b.op is Op.FALSE:
        return _rw_not(mgr, node, (a,)) or mgr.not_(a)
    if a.tid == b.tid:
        return mgr.true
    return None


def _rw_eq(mgr: TermManager, node: Term, args: tuple[Term, ...]):
    a, b = args
    if a.tid == b.tid:
        return mgr.true
    if a.sort.is_bool:
        if a.op is Op.TRUE:
            return b
        if b.op is Op.TRUE:
            return a
        if a.op is Op.FALSE:
            return _rw_not(mgr, node, (b,)) or mgr.not_(b)
        if b.op is Op.FALSE:
            return _rw_not(mgr, node, (a,)) or mgr.not_(a)
    if a.is_const and b.is_const:
        return mgr.bool_const(a.value == b.value)
    return None


def _rw_ite(mgr: TermManager, node: Term, args: tuple[Term, ...]):
    cond, then, other = args
    if cond.op is Op.TRUE:
        return then
    if cond.op is Op.FALSE:
        return other
    if then.tid == other.tid:
        return then
    if then.sort.is_bool:
        if then.op is Op.TRUE and other.op is Op.FALSE:
            return cond
        if then.op is Op.FALSE and other.op is Op.TRUE:
            return _rw_not(mgr, node, (cond,)) or mgr.not_(cond)
    return None


def _is_zero(t: Term) -> bool:
    return t.op is Op.CONST and t.value == 0


def _is_one(t: Term) -> bool:
    return t.op is Op.CONST and t.value == 1


def _is_ones(t: Term) -> bool:
    return t.op is Op.CONST and t.value == (1 << t.sort.width) - 1


def _rw_bvadd(mgr: TermManager, node: Term, args: tuple[Term, ...]):
    a, b = args
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return None


def _rw_bvsub(mgr: TermManager, node: Term, args: tuple[Term, ...]):
    a, b = args
    if _is_zero(b):
        return a
    if a.tid == b.tid:
        return mgr.bv_const(0, a.sort.width)
    return None


def _rw_bvmul(mgr: TermManager, node: Term, args: tuple[Term, ...]):
    a, b = args
    if _is_zero(a) or _is_zero(b):
        return mgr.bv_const(0, a.sort.width)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return None


def _rw_bvand(mgr: TermManager, node: Term, args: tuple[Term, ...]):
    a, b = args
    if _is_zero(a) or _is_zero(b):
        return mgr.bv_const(0, a.sort.width)
    if _is_ones(a):
        return b
    if _is_ones(b):
        return a
    if a.tid == b.tid:
        return a
    return None


def _rw_bvor(mgr: TermManager, node: Term, args: tuple[Term, ...]):
    a, b = args
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if _is_ones(a) or _is_ones(b):
        return mgr.bv_const((1 << a.sort.width) - 1, a.sort.width)
    if a.tid == b.tid:
        return a
    return None


def _rw_bvxor(mgr: TermManager, node: Term, args: tuple[Term, ...]):
    a, b = args
    if a.tid == b.tid:
        return mgr.bv_const(0, a.sort.width)
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return None


def _rw_shift(mgr: TermManager, node: Term, args: tuple[Term, ...]):
    a, b = args
    if _is_zero(b):
        return a
    if _is_zero(a):
        return a
    return None


def _rw_ult(mgr: TermManager, node: Term, args: tuple[Term, ...]):
    a, b = args
    if a.tid == b.tid or _is_zero(b):
        return mgr.false
    return None


def _rw_ule(mgr: TermManager, node: Term, args: tuple[Term, ...]):
    a, b = args
    if a.tid == b.tid or _is_zero(a) or _is_ones(b):
        return mgr.true
    return None


def _rw_slt(mgr: TermManager, node: Term, args: tuple[Term, ...]):
    a, b = args
    if a.tid == b.tid:
        return mgr.false
    return None


def _rw_sle(mgr: TermManager, node: Term, args: tuple[Term, ...]):
    a, b = args
    if a.tid == b.tid:
        return mgr.true
    return None


_HANDLERS = {
    Op.NOT: _rw_not,
    Op.AND: _rw_and,
    Op.OR: _rw_or,
    Op.XOR: _rw_xor,
    Op.IMPLIES: _rw_implies,
    Op.EQ: _rw_eq,
    Op.ITE: _rw_ite,
    Op.BVADD: _rw_bvadd,
    Op.BVSUB: _rw_bvsub,
    Op.BVMUL: _rw_bvmul,
    Op.BVAND: _rw_bvand,
    Op.BVOR: _rw_bvor,
    Op.BVXOR: _rw_bvxor,
    Op.BVSHL: _rw_shift,
    Op.BVLSHR: _rw_shift,
    Op.ULT: _rw_ult,
    Op.ULE: _rw_ule,
    Op.SLT: _rw_slt,
    Op.SLE: _rw_sle,
}
