"""Whole-model evaluation of a checked model.

Variables are computed in the checker's topological order, one dense
tensor per variable (row-major over the declared dimension set), each as
a Python list. A formula runs whole-tensor: every node, in post-order,
is one list operation over all cells of the target. A reference to a
smaller-dimensioned operand broadcasts: its values repeat along the
target dimensions it lacks. SUM adds the source cells over the
eliminated dimensions in declaration order, as a left fold from 0.0,
which keeps results bit-identical across runs and Python versions.

Numeric failures stop evaluation at the first bad cell and name it
exactly: kind, variable, and instance tuple.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from itertools import chain

from .checker import CheckedModel
from .model import (
    Aggregate,
    Binary,
    DimensionSet,
    Expr,
    Literal,
    Model,
    Ref,
    Tensor,
    Unary,
    ValueTable,
    VariableKind,
    difference,
    iter_nodes,
)


@dataclass(frozen=True)
class InputOverride:
    """A user-supplied value for one input cell.

    `labels` is None for a dimensionless input; a dimensioned input takes
    one full instance tuple per override.
    """

    name: str
    labels: tuple[str, ...] | None
    value: float


class EvalError(Exception):
    """A numeric failure at one cell; evaluation stops here."""

    def __init__(self, kind: str, variable: str, labels: tuple[str, ...],
                 detail: str):
        self.kind = kind
        self.variable = variable
        self.labels = labels
        self.detail = detail
        cell = f"{variable}[{','.join(labels)}]" if labels else variable
        super().__init__(f"error[{kind}]: {cell}: {detail}")


@dataclass(frozen=True)
class EvaluationResult:
    """One Tensor per variable, plus the order used and the time taken."""

    tensors: dict = field(repr=False)
    order: tuple[str, ...]
    elapsed: float

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]


class _CellError(Exception):
    def __init__(self, kind: str, detail: str):
        self.kind = kind
        self.detail = detail


def _strides(counts) -> tuple[int, ...]:
    out = []
    acc = 1
    for c in reversed(counts):
        out.append(acc)
        acc *= c
    return tuple(reversed(out))


def broadcast_lookup(tensor: Tensor, target_dims, target_labels, model: Model):
    """Value of `tensor` at the projection of a target instance tuple.

    The tensor's dimensions must be a subset of `target_dims` (Rule 2
    guarantees this for checked models); a dimensionless tensor yields its
    single value for every tuple.
    """
    projected = tuple(
        target_labels[target_dims.names.index(name)] for name in tensor.dims)
    return tensor.values[model.tensor_index(tensor.dims, projected)]


class _Shapes:
    """Index arithmetic over the tensors of one model, each result made once.

    Results are keyed by dimension names and shared between callers, so
    none may be changed.
    """

    def __init__(self, model: Model):
        self._model = model
        self._plans: dict[tuple, tuple] = {}
        self._terms: dict[tuple, tuple] = {}

    def _project(self, dims: DimensionSet, source: DimensionSet) -> list:
        """Flat index into a `source` tensor for every cell of `dims`.

        A cell maps to its coordinates on the dimensions both sets share
        and to the first instance of every other source dimension.
        """
        counts = self._model.instance_counts
        strides = dict(zip(source.names, _strides(counts(source))))
        index = [0]
        for name, count in zip(dims.names, counts(dims)):
            steps = [k * strides.get(name, 0) for k in range(count)]
            index = [i + step for i in index for step in steps]
        return index

    def sum_terms(self, dims: DimensionSet, source: DimensionSet) -> tuple:
        """(bases, offsets): cell k of SUM(source) over `dims` adds
        source[bases[k] + offset] for each offset, in declaration order."""
        key = (dims.names, source.names)
        if key not in self._terms:
            gone = difference(source, dims)
            self._terms[key] = (self._project(dims, source),
                                self._project(gone, source))
        return self._terms[key]

    def broadcast(self, vals: list, source: DimensionSet,
                  dims: DimensionSet) -> list:
        """`vals` over `source`, repeated along the dimensions of `dims`
        that `source` lacks, as one row-major list over `dims`.

        The list is built out of blocks from the innermost dimension
        outward: a dimension `source` lacks repeats every block, a shared
        one joins runs of adjacent blocks. `source` must be a subset of
        `dims`; `vals` itself is returned when the two are equal.
        """
        if source.names == dims.names:
            return vals
        key = (source.names, dims.names)
        if key not in self._plans:
            self._plans[key] = self._plan(source, dims)
        size, steps = self._plans[key]
        blocks = [vals[i:i + size] for i in range(0, len(vals), size)]
        for join, count in steps:
            if join:
                blocks = [list(chain.from_iterable(blocks[i:i + count]))
                          for i in range(0, len(blocks), count)]
            else:
                blocks = [block * count for block in blocks]
        return blocks[0]

    def _plan(self, source: DimensionSet, dims: DimensionSet) -> tuple:
        """(block size, [(join, count), ...] from the inside out)."""
        names = list(zip(dims.names, self._model.instance_counts(dims)))
        # trailing dimensions that both sets share stay contiguous in `vals`
        size = 1
        while names and names[-1][0] in source.names:
            size *= names.pop()[1]
        return size, [(name in source.names, count)
                      for name, count in reversed(names)]


def _program(expr: Expr, dims: DimensionSet, size: int, model: Model,
             values: dict[str, list], shapes: _Shapes) -> list:
    """The formula as steps in post-order (left, right, node) over the
    `size` cells of `dims`.

    ("leaf", vals) holds a literal or an operand broadcast over `dims`;
    ("sum", vals, bases, offsets, name) adds vals[bases[cell] + offset]
    over the offsets in order; ("neg",) and the operator steps ("+",) ...
    ("^",) take their operands from the stack. Repeated leaves share one
    list.
    """
    refs: dict[str, list] = {}
    literals: dict[str, list] = {}  # by float.hex, which tells -0.0 from 0.0
    steps = []
    for node in iter_nodes(expr):
        if isinstance(node, Binary):
            steps.append((node.op,))
        elif isinstance(node, Ref):
            if node.name not in refs:
                refs[node.name] = shapes.broadcast(
                    values[node.name], model.variable(node.name).dims, dims)
            steps.append(("leaf", refs[node.name]))
        elif isinstance(node, Literal):
            value = float(node.value)
            key = value.hex()
            if key not in literals:
                literals[key] = [value] * size
            steps.append(("leaf", literals[key]))
        elif isinstance(node, Unary):
            steps.append(("neg",))
        elif isinstance(node, Aggregate):
            source = model.variable(node.source).dims
            steps.append(("sum", values[node.source],
                          *shapes.sum_terms(dims, source), node.source))
        else:
            raise TypeError(f"not an expression: {node!r}")
    return steps


def _sum(vals: list, bases: list, offsets: list) -> list:
    """For each base, 0.0 + vals[base + offsets[0]] + ..., left to right.

    The loop over the longer of the two lists is the inner one; either
    order adds the same terms in the same order for every base.
    """
    if len(offsets) >= len(bases):
        count = len(offsets)
        # offsets 0, 1, ... when the summed dimensions are the last ones
        contiguous = offsets[-1] == count - 1
        out = []
        for base in bases:
            terms = (vals[base:base + count] if contiguous
                     else [vals[base + off] for off in offsets])
            total = 0.0
            for term in terms:
                total += term
            out.append(total)
        return out
    out = [0.0] * len(bases)
    for off in offsets:
        out = [total + vals[base + off] for total, base in zip(out, bases)]
    return out


def _finite(vals: list) -> bool:
    # a float sum is finite only if every term is; when the sum itself
    # overflows, test the terms one by one
    return math.isfinite(sum(vals)) or all(map(math.isfinite, vals))


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "^": math.pow}
_OVERFLOWS = {"+": "addition overflows", "-": "subtraction overflows",
              "*": "multiplication overflows", "/": "division overflows"}


def _run(steps: list, lo: int, hi: int) -> list:
    """Each step once, as one list over the cells lo .. hi-1.

    Raises _CellError at the first step that fails or yields a value that
    is not finite, in any of the cells. Its detail names the operands of
    the first cell, so it is exact when the run covers one cell.
    """
    stack = []
    for step in steps:
        kind = step[0]
        if kind == "leaf":
            vals = step[1]
            stack.append(vals if hi - lo == len(vals) else vals[lo:hi])
        elif kind == "sum":
            result = _sum(step[1], step[2][lo:hi], step[3])
            if not _finite(result):
                raise _CellError("NON-FINITE", f"SUM({step[4]}) overflows")
            stack.append(result)
        elif kind == "neg":
            stack.append([-a for a in stack.pop()])
        else:
            right = stack.pop()
            left = stack.pop()
            try:
                result = list(map(_OPS[kind], left, right))
            except ZeroDivisionError:
                raise _CellError("DIV-BY-ZERO", f"{left[0]} / 0") from None
            except ValueError:
                raise _CellError(
                    "DOMAIN", f"{left[0]} ^ {right[0]} is undefined") from None
            except OverflowError:
                raise _CellError(
                    "NON-FINITE", f"{left[0]} ^ {right[0]} overflows") from None
            # math.pow of finite operands is finite or raises
            if kind != "^" and not _finite(result):
                raise _CellError("NON-FINITE", _OVERFLOWS[kind])
            stack.append(result)
    return stack.pop()


def _evaluate_formula(var, model: Model, values: dict[str, list],
                      shapes: _Shapes) -> list:
    """One formula variable's tensor; EvalError names the first bad cell.

    Each step runs once over the whole tensor. If one fails, the steps run
    again over ever smaller ranges of cells down to the first bad cell in
    canonical order, and the error is the first failing step at that cell.
    """
    lo, hi = 0, model.tensor_size(var.dims)
    steps = _program(var.payload, var.dims, hi, model, values, shapes)
    try:
        return _run(steps, lo, hi)
    except _CellError:
        pass
    # cells are computed independently, so a range fails exactly when one
    # of its cells does; halve the range that holds the first bad cell
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _run(steps, lo, mid)
        except _CellError:
            hi = mid
        else:
            lo = mid
    try:
        _run(steps, lo, hi)
    except _CellError as e:
        raise EvalError(e.kind, var.name, model.tensor_coords(var.dims, lo),
                        e.detail) from None
    raise AssertionError(f"{var.name} failed as a whole but in no one cell")


def _value_tensor(var, model: Model, patch: dict) -> list:
    """Dense values for an input or data variable, applying overrides."""
    table = var.payload.as_dict() if isinstance(var.payload, ValueTable) else {}
    table.update(patch)
    out = []
    for labels in model.instance_tuples(var.dims):
        if labels not in table:
            raise EvalError(
                "MISSING-INPUT", var.name, labels,
                "no declared value and no override for this cell")
        value = table[labels]
        if not math.isfinite(value):
            raise EvalError("NON-FINITE", var.name, labels,
                            f"value {value!r} is not finite")
        out.append(float(value))
    return out


def evaluate(checked: CheckedModel, overrides=()) -> EvaluationResult:
    """Compute every variable; raises EvalError at the first bad cell.

    Overrides may only name input variables (ValueError otherwise) and
    address one cell each. Results are bit-identical across runs.
    """
    start = time.perf_counter()
    model = checked.model
    patches: dict[str, dict] = {}
    for ov in overrides:
        var = (model.variable(ov.name) if model.has_variable(ov.name) else None)
        if var is None:
            raise ValueError(f"no variable named {ov.name}")
        if var.kind is not VariableKind.INPUT:
            raise ValueError(
                f"{ov.name} is {var.kind.value}, not input; only inputs can "
                f"be set")
        if ov.labels is None:
            if len(var.dims) != 0:
                raise ValueError(
                    f"{ov.name} is over {var.dims}; an override must name one "
                    f"cell, like {ov.name}[{','.join(n for n in var.dims)}]")
            key = ()
        else:
            model.tensor_index(var.dims, tuple(ov.labels))  # validates
            key = tuple(ov.labels)
        patches.setdefault(ov.name, {})[key] = float(ov.value)

    shapes = _Shapes(model)
    values: dict[str, list] = {}
    for name in checked.order:
        var = model.variable(name)
        if var.kind.carries_formula:
            values[name] = _evaluate_formula(var, model, values, shapes)
        else:
            values[name] = _value_tensor(var, model, patches.get(name, {}))

    tensors = {v.name: Tensor(v.dims, tuple(values[v.name]))
               for v in model.variables}
    return EvaluationResult(tensors, checked.order, time.perf_counter() - start)


def tensor_to_rows(tensor: Tensor, model: Model):
    """(instance tuple, value) rows in row-major canonical order."""
    return list(zip(model.instance_tuples(tensor.dims), tensor.values))
