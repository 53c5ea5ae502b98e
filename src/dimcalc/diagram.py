"""Formula Diagram rendering as DOT text.

One node per variable: triangles are data, boxes are inputs, circles are
calculated variables, ellipses are outputs. Arrows run from operand to
the variable it helps define; an arrow carrying a SUM aggregation is
labeled. Variables sharing a non-empty dimension set sit in one
dash-bordered cluster whose label names the dimensions; dimensionless
variables sit outside all clusters.

Output is byte-deterministic for a given model and flags.
"""

from __future__ import annotations

from .model import EMPTY_DIMS, Aggregate, Model, Variable, \
    VariableKind, ValueTable
from .parser import format_number

_SHAPE = {
    VariableKind.DATA: "triangle",
    VariableKind.INPUT: "box",
    VariableKind.CALCULATED: "circle",
    VariableKind.OUTPUT: "ellipse",
}


def _quote(text: str, raw: str = "") -> str:
    """`text` as a DOT string, escaped, with `raw` appended as written."""
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}{raw}"'


def _node_line(var: Variable, include_data_values: bool) -> str:
    attrs = [f"shape={_SHAPE[var.kind]}"]
    if (include_data_values and var.kind is VariableKind.DATA
            and isinstance(var.payload, ValueTable)):
        values = ", ".join(format_number(v) for v in var.payload.values)
        attrs.append("label=" + _quote(var.name, "\\n" + values))
    return f"{_quote(var.name)} [{', '.join(attrs)}];"


def emit_dot(model: Model, *, group_by_dimension_set: bool = True,
             include_data_values: bool = False) -> str:
    lines = ["digraph model {"]

    if group_by_dimension_set:
        groups: dict = {}
        for var in model.variables:
            groups.setdefault(var.dims, []).append(var)
        index = {d.name: i for i, d in enumerate(model.dimensions)}
        clustered = sorted(
            (dims for dims in groups if len(dims) > 0),
            key=lambda d: (len(d), [index[n] for n in d]))
        for number, dims in enumerate(clustered):
            lines.append(f"  subgraph cluster_{number} {{")
            lines.append(f"    label = {_quote(str(dims))};")
            lines.append("    style = dashed;")
            for var in groups[dims]:
                lines.append("    " + _node_line(var, include_data_values))
            lines.append("  }")
        top_level = groups.get(EMPTY_DIMS, [])
    else:
        top_level = list(model.variables)
    for var in top_level:
        lines.append("  " + _node_line(var, include_data_values))

    # {(source, target): whether a SUM carries it}, in first-appearance order
    edges: dict[tuple[str, str], bool] = {}
    for var in model.variables:
        for name, node in var.uses:
            key = (name, var.name)
            edges[key] = edges.get(key, False) or isinstance(node, Aggregate)
    for (source, target), via_sum in edges.items():
        label = ' [label="SUM"]' if via_sum else ""
        lines.append(f"  {_quote(source)} -> {_quote(target)}{label};")

    lines.append("}")
    return "\n".join(lines) + "\n"
