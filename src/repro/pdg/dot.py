"""Graphviz export of program dependence graphs (Figure 3 style)."""

from __future__ import annotations

from typing import Optional

from repro.pdg.graph import EdgeKind, ProgramDependenceGraph
from repro.pdg.slicing import Slice


def pdg_to_dot(pdg: ProgramDependenceGraph,
               highlight: Optional[Slice] = None) -> str:
    """Render the PDG: solid arrows for data dependence (labelled with
    parentheses on call/return edges), dashed for control dependence —
    matching the paper's Figure 3 conventions."""
    lines = ["digraph pdg {", "  rankdir=BT;"]
    highlighted: set[int] = set()
    if highlight is not None:
        for vertices in highlight.needed.values():
            highlighted.update(v.index for v in vertices)

    for function in pdg.functions():
        lines.append(f"  subgraph cluster_{function} {{")
        lines.append(f'    label="{function}";')
        for vertex in pdg.function_vertices(function):
            attrs = f'label="{_escape(repr(vertex.stmt))}"'
            if vertex.index in highlighted:
                attrs += ",style=filled,fillcolor=lightyellow"
            lines.append(f"    v{vertex.index} [{attrs}];")
        lines.append("  }")

    for vertex in pdg.vertices:
        for edge in pdg.data_preds(vertex):
            attrs = ""
            if edge.kind in (EdgeKind.CALL, EdgeKind.RETURN):
                attrs = f' [label="{edge.label()}"]'
            elif edge.kind is EdgeKind.EXTERN:
                attrs = ' [style=dotted]'
            lines.append(f"  v{edge.src.index} -> v{edge.dst.index}{attrs};")
        parent = pdg.control_parent(vertex)
        if parent is not None:
            lines.append(
                f"  v{vertex.index} -> v{parent.index} [style=dashed];")
    lines.append("}")
    return "\n".join(lines)


def view_to_dot(view) -> str:
    """Render a checker's :class:`~repro.pdg.reduce.SparsePDGView`.

    Only the kept subgraph is drawn: the region plus the kept edges'
    destinations, grouped per function (the full graph's elided
    vertices are simply absent).  Sink edges are red, propagating
    call/return edges carry their parenthesis labels.
    """
    pdg = view.pdg
    shown = view.kept_vertices()

    lines = ["digraph sparse_view {", "  rankdir=BT;",
             f'  label="{view.checker_name} view: '
             f'{view.nodes_kept}/{view.nodes_before} nodes, '
             f'{view.edges_kept}/{view.edges_before} edges";']
    for function in pdg.functions():
        members = [v for v in pdg.function_vertices(function)
                   if v.index in shown]
        if not members:
            continue
        lines.append(f"  subgraph cluster_{function} {{")
        lines.append(f'    label="{function}";')
        for vertex in members:
            attrs = f'label="{_escape(repr(vertex.stmt))}"'
            if vertex.index in view.observable_indices:
                attrs += ",style=filled,fillcolor=lightyellow"
            lines.append(f"    v{vertex.index} [{attrs}];")
        lines.append("  }")

    for vertex in pdg.vertices:
        for edge, is_sink in view.kept_entries(vertex):
            attrs = ""
            if is_sink:
                attrs = ' [color=red,penwidth=2]'
            elif edge.kind in (EdgeKind.CALL, EdgeKind.RETURN):
                attrs = f' [label="{edge.label()}"]'
            elif edge.kind is EdgeKind.EXTERN:
                attrs = ' [style=dotted]'
            lines.append(
                f"  v{edge.src.index} -> v{edge.dst.index}{attrs};")
    lines.append("}")
    return "\n".join(lines)


def _escape(text: str) -> str:
    return text.replace('"', '\\"')
