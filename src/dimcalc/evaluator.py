"""Whole-model evaluation of a checked model.

Variables are computed in the checker's topological order, one dense
tensor per variable (row-major over the declared dimension set), each an
`array('d')` of 8 bytes a cell, made once, when its variable is computed,
and held by no other tensor or table. A formula runs a block of cells at
a time, the whole target when it has at most `_BLOCK` cells: every node,
in post-order, is one list operation over the block's cells, reading only
their operands from the tensors, and the block's result is written into
the formula's array, so no working list spans more than a block. A
reference to a smaller-dimensioned operand broadcasts: its values repeat
along the target dimensions it lacks. SUM adds the source cells over the
eliminated dimensions in declaration order, as a left fold from 0.0,
which keeps results bit-identical across runs, blocks and Python versions.

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
    difference,
)
from .parser import format_ident


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
        # written as --set reads a cell address back
        cell = format_ident(variable) + (
            f"[{','.join(map(format_ident, labels))}]" if labels else "")
        self.diagnostics = [Diagnostic("error", kind, f"{cell}: {detail}", None)]


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
    """Index arithmetic over the tensors of one model, each result made
    once: the strided runs a SUM reads, and the plan a broadcast follows.

    Results are keyed by dimension names and shared between callers, so
    none may be changed.
    """

    def __init__(self, model: Model):
        self._model = model
        self._plans: dict[tuple, tuple] = {}
        self._terms: dict[tuple, tuple] = {}

    def _runs(self, dims: DimensionSet, source: DimensionSet) -> tuple:
        """(starts, count, step): cell k * count + j of `dims` is flat index
        starts[k] + j * step of a tensor over `source`, a superset.

        A cell maps to its coordinates on `dims` and to the first instance
        of every other source dimension. The `count` cells of a run are
        the longest suffix of `dims` whose cells sit one step apart; a
        1-label dimension joins any run. `starts` lists one flat index a
        run, row-major over the dimensions before it.
        """
        counts = dict(zip(source.names, self._model.instance_counts(source)))
        strides, stride = {}, 1
        for name in reversed(source.names):
            strides[name] = stride
            stride *= counts[name]
        # a 1-label dimension only ever takes index 0, so it moves no index
        axes = [name for name in dims.names if counts[name] > 1]
        step = strides[axes[-1]] if axes else 1
        count = 1
        while axes and strides[axes[-1]] == step * count:
            count *= counts[axes.pop()]
        starts = [0]
        for name in axes:
            starts = [start + k * strides[name]
                      for start in starts for k in range(counts[name])]
        return starts, count, step

    def sum_terms(self, dims: DimensionSet, source: DimensionSet) -> tuple:
        """(cells, terms) over `source`: the `_runs` result of the cells of
        SUM(source) over `dims`, and (pieces, count, step), the terms
        each cell adds from its own flat index on, in declaration order,
        as runs [start, stop) of at most `count` terms, `_BLOCK` at most."""
        key = (dims.names, source.names)
        if key not in self._terms:
            starts, count, step = self._runs(difference(source, dims), source)
            span, cut = count * step, min(count, _BLOCK) * step
            self._terms[key] = (self._runs(dims, source), (
                [(start + k, start + min(k + cut, span))
                 for start in starts for k in range(0, span, cut)],
                cut // step, step))
        return self._terms[key]

    def broadcast(self, vals, source: DimensionSet, dims: DimensionSet,
                  lo: int, hi: int) -> list | array:
        """Cells lo .. hi-1 of `vals` over `source`, repeated along the
        dimensions of `dims` that `source` lacks, row-major over `dims`.

        The whole target takes each step of the plan over all the list
        built so far, and a block builds only its own cells (`_cells`).
        `source` must be a subset of `dims`; the whole of an equal one is
        `vals` itself.
        """
        if source.names == dims.names:
            return vals if hi - lo == len(vals) else vals[lo:hi]
        key = (source.names, dims.names)
        if key not in self._plans:
            self._plans[key] = self._plan(source, dims)
        steps, cells = self._plans[key]
        if hi - lo < cells:
            return _cells(vals, steps, len(steps), lo, hi)
        out = vals.tolist()
        for size, count in steps:
            out = _repeat(out, size, count)
        return out

    def _plan(self, source: DimensionSet, dims: DimensionSet) -> tuple:
        """([(block size, count), ...], cells of `dims`), the steps from the
        inside out: each block of the list over the dimensions inside one
        that `source` lacks repeats `count` times. Adjacent lacking
        dimensions are one step; a shared one makes the next block larger."""
        steps, size, lacking = [], 1, False
        for name, count in reversed(tuple(zip(
                dims.names, self._model.instance_counts(dims)))):
            if name in source.members:
                lacking = False
            elif lacking:
                steps[-1] = (steps[-1][0], steps[-1][1] * count)
            else:
                steps.append((size, count))
                lacking = True
            size *= count
        return steps, size


def _repeat(out: list, size: int, count: int) -> list:
    """`out` with each block of `size` values repeated `count` times."""
    if size == len(out):
        return out * count
    if size == 1:
        # copy k of every value goes to every count-th place from k
        spread = [0.0] * (len(out) * count)
        for k in range(count):
            spread[k::count] = out
        return spread
    # list slices: CPython keeps thousands of freed small tuples for reuse
    spread = []
    for i in range(0, len(out), size):
        spread += out[i:i + size] * count
    return spread


def _cells(vals, steps: list, k: int, lo: int, hi: int) -> list:
    """Cells lo .. hi-1 of the list that the first k steps of a broadcast
    plan make of `vals`, from only the cells below that they repeat, so no
    list it builds is longer than the range. Step k repeats each chunk of
    `size` cells below `count` times: whole chunks take the step, and a
    part of one chunk is a slice of one copy or two, or else the chunk,
    shorter than the range, cut and repeated."""
    if not k:
        return vals[lo:hi].tolist()
    size, count = steps[k - 1]
    period = size * count
    first, last = -(-lo // period), hi // period
    if first < last or lo < first * period < hi:  # whole chunks, or an edge
        out = _repeat(_cells(vals, steps, k - 1, first * size, last * size),
                      size, count) if first < last else []
        if lo < first * period:
            out = _cells(vals, steps, k, lo, first * period) + out
        if last * period < hi:
            out += _cells(vals, steps, k, last * period, hi)
        return out
    base, cut = lo // period * size, lo % size
    if cut + hi - lo <= size:
        return _cells(vals, steps, k - 1, base + cut, base + cut + hi - lo)
    copies, rest = divmod(cut + hi - lo, size)
    if copies == 1:
        return (_cells(vals, steps, k - 1, base + cut, base + size)
                + _cells(vals, steps, k - 1, base, base + rest))
    chunk = _cells(vals, steps, k - 1, base, base + size)
    return chunk[cut:] + chunk * (copies - 1) + chunk[:rest]


def _sum(vals, cells: tuple, terms: tuple, lo: int, hi: int) -> list:
    """Cells lo .. hi-1 of a SUM whose cells and terms are `sum_terms`'
    `cells` and `terms`: each cell is 0.0 + its first term + ..., a left
    fold in declaration order, each term read from the cell's own flat
    index on.

    Two loops, each adding every cell's terms in that order: a run of
    cells adds one strided slice of the source per term, and a single
    cell adds one strided slice per piece of its terms.
    """
    starts, run, step = cells
    pieces, count, stride = terms
    # a single cell's float adds cost less a term than a run's list
    # comprehension, which costs less a slice: the two loops tie where a run
    # of cells is about 4 times a run of terms (CPython 3.10-3.13, 20,000 to
    # 40,000 source cells, runs of 1-16 terms)
    cellwise = run < 4 * count
    out = []
    first = lo // run
    skip = lo - first * run  # the cells of the first run before lo
    for base in starts[first:-(-hi // run)]:
        # this run's cells from lo on, up to hi
        size = run - skip if hi - lo > run - skip else hi - lo
        base += skip * step
        if cellwise:
            for cell in range(base, base + size * step, step):
                total = 0.0
                for start, stop in pieces:
                    for term in vals[cell + start:cell + stop:stride]:
                        total += term
                out.append(total)
        else:
            totals = [0.0] * size
            for start, stop in pieces:
                for at in range(base + start, base + stop, stride):
                    totals = [total + term for total, term in zip(
                        totals, vals[at:at + size * step:step])]
            out += totals
        lo += size
        skip = 0
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
            # math.pow of finite operands is finite or raises; the test is
            # _finite's, inline for the many small tensors
            if node.op != "^" and not (math.isfinite(sum(result))
                                       or all(map(math.isfinite, result))):
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
            cells, terms = shapes.sum_terms(dims, source.dims)
            result = _sum(source.values, cells, terms, lo, hi)
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
                f"cell, like {ov.name}[{','.join(n for n in var.dims)}]")
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
