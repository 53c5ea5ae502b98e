"""Spans around the calls that cross dimcalc's module boundaries.

The benchmark records spans from its own code: while a `Tracer` is
installed, each boundary below is replaced by a wrapper that opens a
span on entry and closes it on exit. Spans stay in memory until the run
writes them out. A layer's self time is its spans' durations minus
their child spans' durations, so the self times of all layers add up to
the op spans exactly.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, layer). `dimcalc.cli` calls the first layer of
# each stage through these names; `parser` builds the Model through its
# own imported name.
BOUNDARIES = (
    ("dimcalc.cli", "main", "cli"),
    ("dimcalc.cli", "parse_model", "parser"),
    ("dimcalc.parser", "Model", "model"),
    ("dimcalc.cli", "check_model", "checker"),
    ("dimcalc.cli", "evaluate", "evaluator"),
    ("dimcalc.cli", "emit_dot", "diagram"),
)
LAYERS = ("bench", "cli", "parser", "model", "checker", "evaluator", "diagram")


class Tracer:
    """Span recorder. A span is [layer, parent index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        # (layer, first argument) of each boundary call in the current op,
        # for counting work after the op
        self.calls: list[tuple[str, object]] = []

    def open(self, layer: str) -> int:
        index = len(self.spans)
        self.spans.append([layer, self.stack[-1] if self.stack else None,
                           perf_counter(), None])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = perf_counter()
        self.stack.pop()

    def _wrap(self, fn, layer: str):
        def traced(*args, **kwargs):
            index = self.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
                first = args[0] if args else next(iter(kwargs.values()), None)
                self.calls.append((layer, first))
        return traced

    @contextmanager
    def installed(self):
        """Wrap every boundary that exists; restore them on exit."""
        saved = []
        try:
            for module_name, attr, layer in BOUNDARIES:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    print(f"perfbench: {module_name}.{attr} not found; its time "
                          f"counts toward the caller", file=sys.stderr)
                    continue
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, layer))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Layer -> total self time in seconds, over every span."""
        child = [0.0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for (layer, _, start, end), inner in zip(self.spans, child):
            totals[layer] += end - start - inner
        return totals

    def roots(self) -> list[float]:
        """Duration of each top-level span, in seconds."""
        return [end - start for _, parent, start, end in self.spans if parent is None]


COUNTS = ("source_bytes", "refs", "nodes", "formula_vars", "cells", "sum_terms")


def _nodes(expr):
    from dimcalc import Binary, Unary
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Binary):
            stack += (node.right, node.left)
        elif isinstance(node, Unary):
            stack.append(node.operand)


def count_work(calls) -> dict[str, int]:
    """Work handed across the boundaries in one op, from the call arguments.

    source_bytes: text given to parse_model. refs and nodes: references
    and formula nodes of the model given to check_model. formula_vars,
    cells and sum_terms (source cells read by SUM): the model given to
    evaluate.
    """
    from dimcalc import Aggregate, Expr, Ref
    counts = dict.fromkeys(COUNTS, 0)
    for layer, arg in calls:
        if arg is None:
            continue
        if layer == "parser":
            counts["source_bytes"] += len(arg.encode("utf-8"))
        elif layer == "checker":
            for var in arg.variables:
                if isinstance(var.payload, Expr):
                    for node in _nodes(var.payload):
                        counts["nodes"] += 1
                        counts["refs"] += isinstance(node, (Ref, Aggregate))
        elif layer == "evaluator":
            model = arg.model
            for var in model.variables:
                if not isinstance(var.payload, Expr):
                    continue
                size = model.tensor_size(var.dims)
                counts["formula_vars"] += 1
                counts["cells"] += size
                for node in _nodes(var.payload):
                    if isinstance(node, Aggregate):
                        source = model.variable(node.source)
                        per_cell = 1
                        for name in source.dims:
                            if name not in var.dims:
                                per_cell *= len(model.dimension(name).instances)
                        counts["sum_terms"] += size * per_cell
    return counts
