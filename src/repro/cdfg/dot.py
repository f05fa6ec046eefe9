"""GraphViz (DOT) export of CDFGs, in the visual style of the paper.

Control edges are dashed, data edges solid; node labels show the paper-style
name plus the control-port polarity (``+`` / ``-``).  Loop-carried edges are
annotated with their initial value in braces, like ``i(0)`` in Figure 1.
"""

from __future__ import annotations

from repro.cdfg.graph import CDFG
from repro.cdfg.node import OpKind, Polarity

_SHAPES = {
    OpKind.SELECT: "trapezium",
    OpKind.ENDLOOP: "house",
    OpKind.INPUT: "invtriangle",
    OpKind.OUTPUT: "triangle",
    OpKind.CONST: "plaintext",
}


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(cdfg: CDFG) -> str:
    """Render the CDFG as a DOT digraph string."""
    lines = [f'digraph "{_escape(cdfg.name)}" {{', "  rankdir=TB;"]
    for node in cdfg.nodes.values():
        label = node.name
        if node.control.source is not None:
            label += f" ({node.control.polarity.value})"
        if node.kind is OpKind.CONST:
            label = str(node.value)
        shape = _SHAPES.get(node.kind, "circle")
        lines.append(f'  n{node.id} [label="{_escape(label)}" shape={shape}];')
    for edge in cdfg.edges:
        style = "dashed" if edge.is_control else "solid"
        attrs = [f"style={style}"]
        if edge.carried:
            init = edge.init_const if edge.init_const is not None else "*"
            attrs.append(f'label="({init})"')
            attrs.append("constraint=false")
        lines.append(f"  n{edge.src} -> n{edge.dst} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines)
