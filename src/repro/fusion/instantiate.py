"""Frame instantiation: turning path contexts into constraint instances.

Every frame a path visits becomes one *instance* of its function's sliced
template, identified by the suffix ``#f<fid>``.  Call-boundary bindings
(Rules 7/8) connect adjacent frames; call sites covered by an explicit
frame are *skipped* inside the parent's own expansion so no instance is
materialised twice.

The ``instance_fn`` callback returns a frame's instance already named
with the frame suffix; it is where the engines differ:

* the conventional engine (Pinpoint) renames a **fully expanded**
  summary — every callee recursively cloned with ``@site`` suffixes —
  cached across queries (condition caching + cloning);
* Fusion's graph solver builds the instance at its final names, passing
  the suffix down the call tree: the locally-preprocessed template with
  call bindings resolved through quick-path summaries, cloning only
  opaque callees (Algorithm 6).

Names compose innermost site first: ``x@63@90#f0`` is ``x`` in the clone
at site 63 inside the clone at site 90 of frame 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.fusion.transform import CallBinding, ConditionTransformer
from repro.pdg.slicing import Slice
from repro.smt.terms import Term
from repro.sparse.paths import DependencePath, Frame

#: ``instance_fn(function, skip_sites, suffix)`` -> constraints over
#: ``function::var`` names ending in ``suffix`` (clones: ``@site`` +
#: ``suffix``).
InstanceFn = Callable[[str, frozenset[int], str], list[Term]]


@dataclass
class FramePlan:
    frames: list[Frame] = field(default_factory=list)
    skip_sites: dict[int, frozenset[int]] = field(default_factory=dict)


def build_frame_plan(paths: Iterable[DependencePath]) -> FramePlan:
    """Collect the distinct frames of Π and decide which call sites each
    frame's expansion must leave to an explicit sibling instance."""
    frames: dict[int, Frame] = {}
    for path in paths:
        for frame in path.frames():
            frames[frame.fid] = frame

    skip: dict[int, set[int]] = {}
    for frame in frames.values():
        if frame.parent is None or frame.callsite is None:
            continue
        caller = frame if frame.via_return else frame.parent
        skip.setdefault(caller.fid, set()).add(frame.callsite)
    return FramePlan(
        frames=sorted(frames.values(), key=lambda f: f.fid),
        skip_sites={fid: frozenset(sites) for fid, sites in skip.items()})


def frame_suffix(frame: Frame) -> str:
    return f"#f{frame.fid}"


def frame_boundary_constraints(transformer: ConditionTransformer,
                               frame: Frame) -> list[Term]:
    """Rules (7)/(8) across one frame relation."""
    if frame.parent is None or frame.callsite is None:
        return []
    if frame.via_return:
        caller, callee_frame = frame, frame.parent
    else:
        caller, callee_frame = frame.parent, frame
    site = transformer.pdg.callsites[frame.callsite]
    stmt = site.call_vertex.stmt
    binding = CallBinding(site.callsite_id, site.callee, stmt.result.name,
                          stmt.args)
    return transformer.binding_constraints(
        caller.function, frame_suffix(caller), binding,
        frame_suffix(callee_frame))


def assemble_condition(transformer: ConditionTransformer,
                       paths: Iterable[DependencePath],
                       the_slice: Slice,
                       instance_fn: InstanceFn) -> list[Term]:
    """Build the complete path condition of Π as a constraint set."""
    plan = build_frame_plan(paths)
    constraints: list[Term] = []
    for frame in plan.frames:
        skip = plan.skip_sites.get(frame.fid, frozenset())
        constraints.extend(instance_fn(frame.function, skip,
                                       frame_suffix(frame)))
        constraints.extend(frame_boundary_constraints(transformer, frame))
    for requirement in the_slice.requirements:
        constraints.append(transformer.requirement_term(
            requirement, frame_suffix(requirement.frame)))
    return constraints
