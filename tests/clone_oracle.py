"""The nested condition construction Fusion's graph solver replaced.

Fusion used to build a path condition the way the conventional design
clones summaries: each callee instance was built over unsuffixed names,
renamed into its call site with ``ConditionTransformer.clone_at`` (one
``@site`` rename per level), and the whole frame instance was renamed a
last time with the frame suffix ``#f<fid>``.  A leaf template at call
depth d was therefore rewritten d+1 times.

``nested_condition`` keeps that construction, for Algorithm 6
(preprocessed templates, quick paths, opaque callees cloned) and
Algorithm 4 (raw templates, every callee cloned).  It reads the solver's
caches and configuration but none of its instance code, so
``tests/test_clone_oracle.py`` can hold ``IrBasedSmtSolver.condition_of``
to the same constraint list, term for term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.fusion.instantiate import (build_frame_plan, frame_suffix,
                                      frame_boundary_constraints)
from repro.fusion.quickpath import Shape
from repro.lang.ir import Var


@dataclass
class NestedCounts:
    clones: int = 0
    quickpath_resolutions: int = 0


def nested_condition(solver, paths, the_slice):
    """(constraints, counts): Π's condition as the nested construction
    assembles it, over ``solver``'s transformer and caches."""
    transformer = solver.transformer
    mgr = transformer.manager
    counts = NestedCounts()
    needed = {fn: transformer.needed_key(the_slice, fn)
              for fn in the_slice.needed}

    def needed_of(fn):
        return needed.get(fn, frozenset())

    def instance(fn, skip):
        template = transformer.template(fn, needed_of(fn))
        if solver.config.optimized:
            out = list(solver._local_template(fn, needed_of(fn)))
        else:
            out = list(template.constraints)
        for binding in template.calls:
            if binding.callsite in skip:
                continue
            if solver.config.optimized:
                resolved = _resolve_quickpath(solver, fn, binding)
                if resolved is not None:
                    counts.quickpath_resolutions += 1
                    out.extend(resolved)
                    continue
            counts.clones += 1
            child = instance(binding.callee, frozenset())
            out.extend(transformer.clone_at(fn, binding, child))
        return out

    plan = build_frame_plan(paths)
    constraints = []
    for frame in plan.frames:
        skip = plan.skip_sites.get(frame.fid, frozenset())
        for constraint in instance(frame.function, skip):
            constraints.append(mgr.rename(constraint, frame_suffix(frame)))
        constraints.extend(frame_boundary_constraints(transformer, frame))
    for requirement in the_slice.requirements:
        constraints.append(transformer.requirement_term(
            requirement, frame_suffix(requirement.frame)))
    return constraints, counts


def _resolve_quickpath(solver, caller, binding) -> Optional[list]:
    """The receiver bound through the callee's quick-path summary, over
    unsuffixed names; None when the callee must be cloned."""
    if not solver.config.use_quickpaths:
        return None
    transformer = solver.transformer
    mgr = transformer.manager
    width = transformer.width
    summary = solver.quickpaths.summary(binding.callee)
    callee_ret = solver.pdg.return_vertex(binding.callee)
    if callee_ret is None:
        return None
    receiver_var = Var(binding.receiver, callee_ret.var.type)
    if receiver_var.type.value != "int":
        return None
    receiver = transformer.var_term(caller, receiver_var)
    if summary.shape is Shape.CONST:
        return [mgr.eq(receiver, mgr.bv_const(summary.offset, width))]
    if summary.shape is Shape.HAVOC:
        return []
    if summary.shape is Shape.AFFINE:
        if summary.param_index >= len(binding.args):
            return None
        value = transformer.operand_term(
            caller, binding.args[summary.param_index])
        if not value.sort.is_bv:
            return None
        if summary.scale != 1:
            value = mgr.bvmul(mgr.bv_const(summary.scale, width), value)
        if summary.offset != 0:
            value = mgr.bvadd(value, mgr.bv_const(summary.offset, width))
        return [mgr.eq(receiver, value)]
    return None
