"""Whole-model evaluation of a checked model.

Variables are computed in the checker's topological order, one dense
tensor per variable (row-major over the declared dimension set). A
reference to a smaller-dimensioned operand broadcasts: the target cell's
coordinates are projected onto the operand's dimensions. SUM adds the
source cells over the eliminated dimensions in declaration order, which
keeps results bit-identical across runs.

Numeric failures stop evaluation at the first bad cell and name it
exactly: kind, variable, and instance tuple.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

from .checker import CheckedModel
from .model import (
    Aggregate,
    Binary,
    Expr,
    Literal,
    Model,
    Ref,
    Tensor,
    Unary,
    ValueTable,
    VariableKind,
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


def _compile(expr: Expr, target_names: tuple[str, ...], model: Model,
             values: dict[str, list]):
    """Build fn(coords, flat) -> float for one formula node.

    `coords` are instance positions over the target's dimensions and
    `flat` is the matching row-major index; operand tensors are captured
    from `values`, so dependencies must already be evaluated.
    """
    if isinstance(expr, Literal):
        v = expr.value
        return lambda coords, flat: v
    if isinstance(expr, Ref):
        vals = values[expr.name]
        dims = model.variable(expr.name).dims
        if not dims.names:
            scalar = vals[0]
            return lambda coords, flat: scalar
        if dims.names == target_names:
            return lambda coords, flat: vals[flat]
        counts = model.instance_counts(dims)
        pairs = tuple(zip((target_names.index(n) for n in dims.names),
                          _strides(counts)))
        return lambda coords, flat: vals[sum(coords[p] * s for p, s in pairs)]
    if isinstance(expr, Unary):
        inner = _compile(expr.operand, target_names, model, values)
        return lambda coords, flat: -inner(coords, flat)
    if isinstance(expr, Binary):
        left = _compile(expr.left, target_names, model, values)
        right = _compile(expr.right, target_names, model, values)
        return _compile_op(expr.op, left, right)
    if isinstance(expr, Aggregate):
        return _compile_aggregate(expr, target_names, model, values)
    raise TypeError(f"not an expression: {expr!r}")


def _compile_op(op: str, left, right):
    if op == "+":
        def fn(coords, flat):
            r = left(coords, flat) + right(coords, flat)
            if not math.isfinite(r):
                raise _CellError("NON-FINITE", "addition overflows")
            return r
    elif op == "-":
        def fn(coords, flat):
            r = left(coords, flat) - right(coords, flat)
            if not math.isfinite(r):
                raise _CellError("NON-FINITE", "subtraction overflows")
            return r
    elif op == "*":
        def fn(coords, flat):
            r = left(coords, flat) * right(coords, flat)
            if not math.isfinite(r):
                raise _CellError("NON-FINITE", "multiplication overflows")
            return r
    elif op == "/":
        def fn(coords, flat):
            a = left(coords, flat)
            b = right(coords, flat)
            try:
                r = a / b
            except ZeroDivisionError:
                raise _CellError("DIV-BY-ZERO", f"{a} / 0") from None
            if not math.isfinite(r):
                raise _CellError("NON-FINITE", "division overflows")
            return r
    elif op == "^":
        def fn(coords, flat):
            a = left(coords, flat)
            b = right(coords, flat)
            try:
                return math.pow(a, b)
            except ValueError:
                raise _CellError(
                    "DOMAIN", f"{a} ^ {b} is undefined") from None
            except OverflowError:
                raise _CellError("NON-FINITE", f"{a} ^ {b} overflows") from None
    else:
        raise TypeError(f"unknown operator {op!r}")
    return fn


def _compile_aggregate(expr: Aggregate, target_names, model, values):
    source = model.variable(expr.source)
    vals = values[expr.source]
    strides = _strides(model.instance_counts(source.dims))
    kept = tuple((target_names.index(n), strides[i])
                 for i, n in enumerate(source.dims.names) if n in target_names)
    gone = [(i, n) for i, n in enumerate(source.dims.names)
            if n not in target_names]
    # one offset per combination of eliminated instances, in declaration
    # order; the accumulation below follows this order exactly
    offsets = [0]
    for i, name in gone:
        count = len(model.dimension(name).instances)
        offsets = [base + k * strides[i] for base in offsets for k in range(count)]
    offsets = tuple(offsets)

    def fn(coords, flat):
        base = sum(coords[p] * s for p, s in kept)
        total = 0.0
        for off in offsets:
            total += vals[base + off]
        if not math.isfinite(total):
            raise _CellError("NON-FINITE", f"SUM({expr.source}) overflows")
        return total
    return fn


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

    values: dict[str, list] = {}
    for name in checked.order:
        var = model.variable(name)
        if not var.kind.carries_formula:
            values[name] = _value_tensor(var, model, patches.get(name, {}))
            continue
        target_names = var.dims.names
        fn = _compile(var.payload, target_names, model, values)
        counts = model.instance_counts(var.dims)
        out = []
        for flat, coords in enumerate(itertools.product(*map(range, counts))):
            try:
                out.append(fn(coords, flat))
            except _CellError as e:
                raise EvalError(e.kind, name, model.tensor_coords(var.dims, flat),
                                e.detail) from None
        values[name] = out

    tensors = {v.name: Tensor(v.dims, tuple(values[v.name]))
               for v in model.variables}
    return EvaluationResult(tensors, checked.order, time.perf_counter() - start)


def tensor_to_rows(tensor: Tensor, model: Model):
    """(instance tuple, value) rows in row-major canonical order."""
    return list(zip(model.instance_tuples(tensor.dims), tensor.values))
