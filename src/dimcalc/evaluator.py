"""Whole-model evaluation of a checked model.

Variables are computed in the checker's topological order, one dense
tensor per variable (row-major over the declared dimension set), each an
`array('d')` of 8 bytes a cell, made once, when its variable is computed,
and held by no other tensor or table. A formula runs a block of cells at
a time, the whole target when it has at most `_BLOCK` cells: every node,
in post-order, is one list operation over the block's cells, reading only
their operands from the tensors, and the block's result is written into
the formula's array, so no working list spans more than a block. One
strided view of each operand drives both ways values move between
dimension sets: a reference to a smaller-dimensioned operand broadcasts,
its values repeated along the target dimensions it lacks (stride 0), and
SUM adds the source cells over the eliminated dimensions in declaration
order, as a left fold from 0.0, which keeps results bit-identical across
runs, blocks and Python versions.

Numeric failures stop evaluation at the first bad cell and name it
exactly: kind, variable, and instance tuple.
"""

from __future__ import annotations

import math
import operator
from array import array

from .checker import CheckedModel
from .model import (
    Binary,
    Diagnostic,
    DiagnosticFailure,
    DimensionSet,
    Literal,
    Model,
    Record,
    Ref,
    Tensor,
    Unary,
    VariableKind,
)
from .parser import format_cell


class InputOverride(Record):
    """A user-supplied value for one input cell.

    `labels` is None for a dimensionless input; a dimensioned input takes
    one full instance tuple per override.
    """

    __slots__ = _fields = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[str, ...] | None, value: float):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "value", value)


class EvalError(DiagnosticFailure):
    """A numeric failure at one cell; evaluation stops here. The fields are
    the arguments, which pickle and copy pass back."""

    exit_code = 2

    def __init__(self, kind: str, variable: str, labels: tuple[str, ...],
                 detail: str):
        Exception.__init__(self, kind, variable, labels, detail)
        self.kind, self.variable, self.labels, self.detail = self.args
        self.diagnostics = [Diagnostic(
            "error", kind, f"{format_cell(variable, labels)}: {detail}", None)]


class EvaluationResult(Record):
    """One Tensor per variable, in declaration order, and the order used;
    each tensor's values are its own array, an input's or data variable's
    a copy of its table."""

    __slots__ = _fields = ("tensors", "order")

    def __init__(self, tensors: dict, order: tuple[str, ...]):
        object.__setattr__(self, "tensors", tensors)
        object.__setattr__(self, "order", order)

    def __repr__(self) -> str:  # without the tensors, which may be large
        return f"EvaluationResult(order={self.order!r})"

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]


class _CellError(Exception):
    def __init__(self, kind: str, detail: str):
        self.kind = kind
        self.detail = detail


class _Shapes:
    """The views of one model's tensors, each made once and keyed by
    dimension names: shared between callers, so none may be changed.

    A view lists the cells of some dimensions, row-major, as flat indices
    of a tensor over `source`: one (count, cells a step, stride) an axis,
    outermost first, the innermost one cell a step; cell i is at the sum
    of (i // cells) % count * stride. A dimension `source` lacks has
    stride 0. 1-label dimensions are dropped; axes that step as one merge.
    """

    def __init__(self, model: Model):
        self._counts = {d.name: len(d.instances) for d in model.dimensions}
        self._views: dict[tuple, tuple] = {}
        self._sums: dict[tuple, tuple] = {}

    def view(self, names: tuple[str, ...], source: DimensionSet) -> tuple:
        """The view of the dimensions `names`, in that order, over `source`."""
        key = (names, source.names)
        if key not in self._views:
            count, strides, stride = self._counts, {}, 1
            for name in reversed(source.names):
                strides[name], stride = stride, stride * count[name]
            axes, cells = [], 1
            for name in reversed(names):
                stride = strides.get(name, 0)
                if axes and axes[-1][0] * axes[-1][2] == stride:
                    axes[-1] = (axes[-1][0] * count[name], *axes[-1][1:])
                elif count[name] > 1:
                    axes.append((count[name], cells, stride))
                cells *= count[name]
            self._views[key] = tuple(reversed(axes)) or ((1, 1, 1),)
        return self._views[key]

    def sum(self, dims: DimensionSet, source: DimensionSet) -> tuple:
        """The views of SUM(source) over `dims`: of its cells, and of the
        terms a cell adds from its own flat index on."""
        key = (dims.names, source.names)
        if key not in self._sums:
            self._sums[key] = (self.view(dims.names, source), self.view(
                tuple(n for n in source if n not in dims.members), source))
        return self._sums[key]

    def broadcast(self, vals, source: DimensionSet, dims: DimensionSet,
                  lo: int, hi: int):
        """Cells lo .. hi-1 of `vals` over `source`, repeated along the
        dimensions of `dims` that `source` lacks, row-major over `dims`.
        `source` must be a subset of `dims`; the whole of an equal one is
        `vals` itself."""
        if source.names == dims.names:
            return vals if hi - lo == len(vals) else vals[lo:hi]
        return _gather(vals, self.view(dims.names, source), 0, 0, lo, hi)


def _gather(vals, view, k: int, base: int, lo: int, hi: int):
    """Cells lo .. hi-1 of `view`'s axes from k on, from flat index `base`
    of `vals` on: a slice of `vals` for one axis, else a list no longer than
    the range. A stride-0 axis repeats its chunk, built once."""
    _, cells, stride = view[k]
    if cells == 1:
        if stride:
            return vals[base + lo * stride:base + hi * stride:stride]
        return [vals[base]] * (hi - lo)
    first, last = lo // cells, (hi - 1) // cells
    head, tail = lo - first * cells, hi - last * cells
    if first == last:
        return _gather(vals, view, k + 1, base + first * stride, head, tail)
    _, below, step = view[k + 1]
    # the whole steps, then the cut first and last steps around them
    start, stop = first + (head > 0), last + (tail == cells)
    if not stride:
        out = (vals[base:base + cells * step:step].tolist() if below == 1
               else _gather(vals, view, k + 1, base, 0, cells)
               ) * (stop - start) if stop > start else []
    elif below > 1:
        out = []
        for at in range(base + start * stride, base + stop * stride, stride):
            out += _gather(vals, view, k + 1, at, 0, cells)
    elif step:
        out = []
        for at in range(base + start * stride, base + stop * stride, stride):
            out += vals[at:at + cells * step:step]
    else:  # each value `cells` times: copy r to every rth place from r
        values = vals[base + start * stride:base + stop * stride:
                      stride].tolist()
        out = [0.0] * (len(values) * cells)
        for r in range(cells):
            out[r::cells] = values
    if head:
        out[:0] = _gather(vals, view, k + 1, base + first * stride, head, cells)
    if tail < cells:
        out += _gather(vals, view, k + 1, base + last * stride, 0, tail)
    return out


def _sum(vals, cells: tuple, terms: tuple, lo: int, hi: int) -> list:
    """Cells lo .. hi-1 of a SUM of `vals` over the views `cells` and
    `terms`: each cell 0.0 + its first term + ..., a left fold in declaration
    order in either loop: a cell adds one slice of `vals` per run of its
    terms (or a gather of at most `_BLOCK`), a run of cells one per term."""
    index = range(len(vals))
    run, _, step = cells[-1]
    count, _, stride = terms[-1]
    size = terms[0][0] * terms[0][1]
    out = []
    # a single cell's float adds cost less a term than a run's list
    # comprehension, which costs less a slice: the two loops tie where a run
    # of cells is about 4 times a run of terms (CPython 3.10-3.13, 20,000 to
    # 40,000 source cells, runs of 1-16 terms)
    if run >= 4 * count:
        while lo < hi:  # the cells of one run, from lo up to hi
            cut = run - lo % run if hi - lo > run - lo % run else hi - lo
            start = _gather(index, cells, 0, 0, lo, lo + 1)[0]
            totals = [0.0] * cut
            for at in range(0, size, _BLOCK):
                for term in _gather(index, terms, 0, start, at,
                                    min(at + _BLOCK, size)):
                    totals = [total + value for total, value in zip(
                        totals, vals[term:term + cut * step:step])]
            out += totals
            lo += cut
        return out
    # where each run of a cell's terms starts, or each block of _BLOCK
    starts, blocks = ((_gather(index, terms, 0, 0, 0, size)[::count], ())
                      if size <= _BLOCK else ((), range(0, size, _BLOCK)))
    for cell in _gather(index, cells, 0, 0, lo, hi):
        total = 0.0
        for first in starts:
            first += cell
            for term in vals[first:first + count * stride:stride]:
                total += term
        for at in blocks:
            for term in _gather(vals, terms, 0, cell, at,
                                min(at + _BLOCK, size)):
                total += term
        out.append(total)
    return out


def _finite(vals: list) -> bool:
    # a float sum is finite only if every term is; when the sum itself
    # overflows, test the terms one by one
    return math.isfinite(sum(vals)) or all(map(math.isfinite, vals))


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "^": math.pow}
_OVERFLOWS = {"+": "addition overflows", "-": "subtraction overflows",
              "*": "multiplication overflows", "/": "division overflows"}


def _run(var, lo: int, hi: int, tensors: dict[str, Tensor],
         shapes: _Shapes) -> list | array:
    """`var`'s formula over its cells lo .. hi-1, a block or the whole
    target: each node once, in post-order, as one list operation over
    those cells.

    Raises _CellError at the first node that fails or yields a value that
    is not finite, in any of the cells. Its detail names the operands of
    the first cell, so it is exact when the run covers one cell.
    """
    dims = var.dims
    count = hi - lo
    stack = []
    for node in var.nodes:
        # exact classes, commonest first: the node classes are closed
        cls = type(node)
        if cls is Binary:
            right = stack.pop()
            left = stack.pop()
            try:
                result = list(map(_OPS[node.op], left, right))
            except ZeroDivisionError:
                raise _CellError("DIV-BY-ZERO", f"{left[0]} / 0") from None
            except ValueError:
                raise _CellError(
                    "DOMAIN", f"{left[0]} ^ {right[0]} is undefined") from None
            except OverflowError:
                raise _CellError(
                    "NON-FINITE", f"{left[0]} ^ {right[0]} overflows") from None
            # math.pow of finite operands is finite or raises
            if node.op != "^" and not _finite(result):
                raise _CellError("NON-FINITE", _OVERFLOWS[node.op])
        elif cls is Literal:
            if not math.isfinite(node.value):
                raise _CellError("NON-FINITE",
                                 f"literal {node.value!r} is not finite")
            result = [node.value] * count
        elif cls is Ref:
            source = tensors[node.name]
            result = shapes.broadcast(source.values, source.dims, dims, lo, hi)
        elif cls is Unary:
            result = [-a for a in stack.pop()]
        else:  # an Aggregate
            source = tensors[node.source]
            result = _sum(source.values, *shapes.sum(dims, source.dims), lo, hi)
            if not _finite(result):
                raise _CellError("NON-FINITE", f"SUM({node.source}) overflows")
        stack.append(result)
    return stack.pop()


# the most cells a formula computes at once: its working lists, 32 bytes a
# cell each, stay small beside the 8 bytes a cell of the finished arrays
_BLOCK = 4096


def _evaluate_formula(var, model: Model, tensors: dict[str, Tensor],
                      shapes: _Shapes) -> array:
    """One formula variable's tensor; EvalError names the first bad cell.

    Each node runs once over the whole tensor when it has at most _BLOCK
    cells, and otherwise once over each of the fewest blocks of at most
    _BLOCK cells, their sizes at most one cell apart, in order, each
    reading only its own cells of every operand and written into the
    tensor's array. When a run fails, every earlier cell has succeeded:
    the formula runs again over ever smaller ranges of the failed run's
    cells down to the first bad cell in canonical order, and the error
    is the first failing node at that cell.
    """
    size = model.tensor_size(var.dims)
    if size <= _BLOCK:
        try:
            return array("d", _run(var, 0, size, tensors, shapes))
        except _CellError:
            _raise_first_bad_cell(var, 0, size, model, tensors, shapes)
    # a block's list packs into the array twice as fast as array() converts
    # one; struct is loaded only once a formula needs more than one block
    from struct import Struct

    out = array("d", [0.0]) * size
    blocks = -(-size // _BLOCK)
    for k in range(blocks):
        lo, hi = size * k // blocks, size * (k + 1) // blocks
        try:  # one statement, so no block's list outlives its packing
            Struct(f"{hi - lo}d").pack_into(
                out, lo * 8, *_run(var, lo, hi, tensors, shapes))
        except _CellError:
            _raise_first_bad_cell(var, lo, hi, model, tensors, shapes)
    return out


def _raise_first_bad_cell(var, lo: int, hi: int, model: Model, tensors,
                          shapes: _Shapes):
    """EvalError at the first bad cell of lo .. hi-1, whose run failed."""
    # cells are computed independently, so a range fails exactly when one
    # of its cells does; halve the range that holds the first bad cell
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _run(var, lo, mid, tensors, shapes)
        except _CellError:
            hi = mid
        else:
            lo = mid
    try:
        _run(var, lo, hi, tensors, shapes)
    except _CellError as e:
        raise EvalError(e.kind, var.name, model.tensor_coords(var.dims, lo),
                        e.detail) from None
    raise AssertionError(f"{var.name} failed over a range but in no one cell")


def _value_tensor(var, model: Model, patch: dict[int, float]) -> array:
    """Dense values for an input or data variable: a copy of its table,
    with the overrides in `patch` (by flat index) written in."""
    if var.payload is None:
        # the values up to the first cell no override sets, which is at
        # most len(patch), so a missing cell costs no list of every cell
        known = next(i for i in range(len(patch) + 1) if i not in patch)
        out = [patch[i] for i in range(known)]
    else:
        out = var.payload.values
        if patch:
            out = [patch.get(i, value) for i, value in enumerate(out)]
    if not _finite(out):
        index, value = next((i, v) for i, v in enumerate(out)
                            if not math.isfinite(v))
        raise EvalError(
            "NON-FINITE", var.name, model.tensor_coords(var.dims, index),
            f"value {value!r} is not finite")
    if len(out) < model.tensor_size(var.dims):
        raise EvalError(
            "MISSING-INPUT", var.name, model.tensor_coords(var.dims, len(out)),
            "no declared value and no override for this cell")
    return array("d", out)


def evaluate(checked: CheckedModel, overrides=()) -> EvaluationResult:
    """Compute every variable; raises EvalError at the first bad cell.

    Overrides may only name input variables (ValueError otherwise) and
    address one cell each. Results are bit-identical across runs.
    """
    model = checked.model
    patches: dict[str, dict[int, float]] = {}
    for ov in overrides:
        var = model.variable(ov.name)
        if var.kind is not VariableKind.INPUT:
            raise ValueError(
                f"{ov.name} is {var.kind.value}, not input; only inputs can "
                f"be set")
        if ov.labels is None and len(var.dims) != 0:
            raise ValueError(
                f"{ov.name} is over {var.dims}; an override must name one "
                f"cell, like {format_cell(ov.name, var.dims.names)}")
        index = model.tensor_index(var.dims, tuple(ov.labels or ()))
        patches.setdefault(ov.name, {})[index] = float(ov.value)

    shapes = _Shapes(model)
    tensors: dict[str, Tensor] = {}
    for name in checked.order:
        var = model.variable(name)
        if var.kind.carries_formula:
            values = _evaluate_formula(var, model, tensors, shapes)
        else:
            values = _value_tensor(var, model, patches.get(name, {}))
        tensors[name] = Tensor(var.dims, values)
    return EvaluationResult({v.name: tensors[v.name] for v in model.variables},
                            checked.order)
