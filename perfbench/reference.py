"""Plain-Python reference evaluator for generated specs.

It imports nothing from dimcalc. Values live in dicts keyed by instance
label tuples, and each cell is computed by walking the formula tree,
so no indexing or broadcasting code is shared with the engine. SUM adds
source cells in dimension declaration order, as the README specifies.
"""

from __future__ import annotations

import math

from generate import Spec


def evaluate(spec: Spec, overrides: dict | None = None) -> dict:
    """name -> {labels: value} for every variable of `spec`."""
    overrides = overrides or {}
    dims_of = {v.name: v.dims for v in spec.variables}
    values: dict[str, dict] = {}

    def cell(tree, at: dict):
        tag = tree[0]
        if tag == "lit":
            return tree[1]
        if tag == "ref":
            name = tree[1]
            return values[name][tuple(at[d] for d in dims_of[name])]
        if tag == "sum":
            name = tree[1]
            src = dims_of[name]
            gone = [d for d in src if d not in at]
            total = 0.0
            for labels in spec.tuples(gone):
                full = dict(at)
                full.update(zip(gone, labels))
                total += values[name][tuple(full[d] for d in src)]
            return total
        if tag == "neg":
            return -cell(tree[1], at)
        a = cell(tree[1], at)
        b = cell(tree[2], at)
        if tag == "+":
            return a + b
        if tag == "-":
            return a - b
        if tag == "*":
            return a * b
        if tag == "/":
            return a / b
        if tag == "^":
            return math.pow(a, b)
        raise ValueError(f"unknown formula node {tag!r}")

    for var in spec.variables:
        if var.formula is None:
            table = dict(var.table)
            if var.name in overrides:
                table[()] = overrides[var.name]
            values[var.name] = table
            continue
        values[var.name] = {
            labels: cell(var.formula, dict(zip(var.dims, labels)))
            for labels in spec.tuples(var.dims)}
    return values
