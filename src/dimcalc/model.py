"""Core domain types for multidimensional calculation models.

A model declares named dimensions (ordered partitions of instance labels)
and variables. Each variable lives on a dimension set: the subset of
declared dimensions over which it takes one value per instance tuple.
Everything in this module is immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterator, Union


class ModelError(ValueError):
    """An invariant of the domain types was violated at construction."""


_SPAN_FIELDS = ("file", "start_line", "start_col", "end_line", "end_col")


class SourceSpan:
    """Half-open region of DSL text, 1-based lines and columns.

    A span built by `at_offsets` holds only character offsets and the
    offsets where the text's lines start; it works out its file, lines and
    columns the first time one of them is read. Either kind is immutable,
    and spans of the same region are equal whichever way they were built.
    """

    __slots__ = (*_SPAN_FIELDS, "_source", "_start", "_end")

    def __init__(self, file: str, start_line: int, start_col: int,
                 end_line: int, end_col: int):
        if (end_line, end_col) < (start_line, start_col):
            raise ModelError("source span ends before it starts")
        for name, value in zip(_SPAN_FIELDS, (file, start_line, start_col,
                                              end_line, end_col)):
            object.__setattr__(self, name, value)

    @classmethod
    def at_offsets(cls, source: tuple[str, list[int]], start: int,
                   end: int) -> SourceSpan:
        """The span of offsets [start, end) into a text, where `source` is
        (file, the offsets at which the text's lines start, 0 first)."""
        span = cls.__new__(cls)
        _SET_SOURCE(span, source)
        _SET_START(span, start)
        _SET_END(span, end)
        return span

    def __getattr__(self, name: str):
        # only a span built by at_offsets lacks a field, until it is read
        if name not in _SPAN_FIELDS:
            raise AttributeError(
                f"'SourceSpan' object has no attribute {name!r}")
        file, starts = self._source
        line = bisect_right(starts, self._start)
        end_line = bisect_right(starts, self._end, line - 1)
        SourceSpan.__init__(self, file, line, self._start - starts[line - 1] + 1,
                            end_line, self._end - starts[end_line - 1] + 1)
        return getattr(self, name)

    def __setattr__(self, name: str, *value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return (self.file, self.start_line, self.start_col, self.end_line,
                self.end_col)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._fields() == other._fields() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return SourceSpan, self._fields()

    def __repr__(self) -> str:
        fields = (f"{key}={value!r}" for key, value in self.as_json().items())
        return f"SourceSpan({', '.join(fields)})"

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"

    def as_json(self) -> dict:
        return dict(zip(_SPAN_FIELDS, self._fields()))


# the slots' own setters, which the refusing __setattr__ leaves usable
_SET_SOURCE = SourceSpan._source.__set__
_SET_START = SourceSpan._start.__set__
_SET_END = SourceSpan._end.__set__


@dataclass(frozen=True)
class Dimension:
    """A named, ordered partition of instance labels.

    Labels must be pairwise distinct: an entity belongs to exactly one
    instance, and the instances jointly cover all possibilities.
    """

    name: str
    instances: tuple[str, ...]

    def __post_init__(self):
        if not self.instances:
            raise ModelError(f"dimension {self.name} has no instances")
        if len(set(self.instances)) != len(self.instances):
            raise ModelError(f"dimension {self.name} repeats an instance label")

    def index_of(self, label: str) -> int:
        try:
            return self.instances.index(label)
        except ValueError:
            raise ModelError(
                f"dimension {self.name} has no instance {label!r}") from None


@dataclass(frozen=True)
class DimensionSet:
    """A set of dimension names, listed in the owning model's declaration
    order.

    `Model` refuses a set whose names are undeclared or out of that order;
    `Model.dim_set` builds one from names in any order. The empty set is
    valid and marks a dimensionless (scalar) variable.
    """

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ModelError("dimension set repeats a name")

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self.names

    def __str__(self) -> str:
        return "(" + ", ".join(self.names) + ")"


EMPTY_DIMS = DimensionSet(())


def intersect(a: DimensionSet, b: DimensionSet) -> DimensionSet:
    """Names of `a` that are in `b`, in `a`'s order."""
    return DimensionSet(tuple(n for n in a.names if n in b.names))


def difference(a: DimensionSet, b: DimensionSet) -> DimensionSet:
    """Names of `a` that are not in `b`, in `a`'s order."""
    return DimensionSet(tuple(n for n in a.names if n not in b.names))


def is_subset(a: DimensionSet, b: DimensionSet) -> bool:
    """True iff every name of `a` is in `b` (improper subsets included)."""
    return set(a.names) <= set(b.names)


class VariableKind(Enum):
    INPUT = "input"
    DATA = "data"
    CALCULATED = "calc"
    OUTPUT = "output"

    @property
    def carries_formula(self) -> bool:
        return self in (VariableKind.CALCULATED, VariableKind.OUTPUT)


class Expr:
    """Base class for formula AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class Ref(Expr):
    """Reference to a variable by name."""

    name: str
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Unary(Expr):
    """Prefix negation."""

    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in ("+", "-", "*", "/", "^"):
            raise ModelError(f"unknown binary operator {self.op!r}")


@dataclass(frozen=True)
class Aggregate(Expr):
    """SUM over a bare variable reference.

    The dimensions summed away are not written in the formula; they are the
    source variable's dimensions that the defined variable does not have.
    """

    source: str
    span: SourceSpan | None = field(default=None, compare=False, repr=False,
                                    kw_only=True)


def iter_nodes(expr: Expr) -> list[Expr]:
    """`expr` and every descendant in post-order: the operands of a node
    come before it, left before right.

    The walk keeps its own stack, so formulas of any depth are safe.
    """
    nodes = []
    stack = [expr]
    # visiting node, right, left yields the post-order reversed
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, Binary):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Unary):
            stack.append(node.operand)
    nodes.reverse()
    return nodes


def iter_dependencies(expr: Expr) -> Iterator[tuple[str, Expr]]:
    """Yield (variable name, node) for every Ref and Aggregate, left to right.

    Duplicates are kept; an Aggregate node marks a use through SUM.
    """
    for node in iter_nodes(expr):
        if isinstance(node, Ref):
            yield node.name, node
        elif isinstance(node, Aggregate):
            yield node.source, node


@dataclass(frozen=True)
class ValueTable:
    """Literal values of a data or input variable, one per instance tuple.

    Values are floats, row-major over the variable's dimension set exactly
    like `Tensor.values`; a dimensionless table holds one value.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(float, self.values)))

    @property
    def scalar(self) -> float:
        if len(self.values) != 1:
            raise ModelError("value table is not a scalar")
        return self.values[0]


Payload = Union[ValueTable, Expr, None]


@dataclass(frozen=True)
class Variable:
    """One row of a model: a named value with a kind and a dimension set.

    Input and data variables carry a value table (inputs may carry none and
    be supplied at evaluation time); calculated and output variables carry
    a formula. Kind/payload agreement is the checker's job, not enforced
    here.
    """

    name: str
    kind: VariableKind
    dims: DimensionSet
    payload: Payload
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    @property
    def dependencies(self) -> tuple[str, ...]:
        """Distinct names the formula references, in first-use order."""
        if not isinstance(self.payload, Expr):
            return ()
        names = (name for name, _ in iter_dependencies(self.payload))
        return tuple(dict.fromkeys(names))


@dataclass(frozen=True)
class Model:
    """A complete calculation model: dimensions plus variables.

    Construction validates the cross-cutting invariants: unique names,
    disjoint dimension/variable namespaces, declared dimension references,
    one table value per cell, and reference closure of every formula.
    """

    dimensions: tuple[Dimension, ...]
    variables: tuple[Variable, ...]

    def __post_init__(self):
        dim_names = [d.name for d in self.dimensions]
        if len(set(dim_names)) != len(dim_names):
            raise ModelError("duplicate dimension name")
        var_names = {v.name for v in self.variables}
        if len(var_names) != len(self.variables):
            raise ModelError("duplicate variable name")
        overlap = set(dim_names) & var_names
        if overlap:
            raise ModelError(
                f"name used for both a dimension and a variable: {sorted(overlap)}")
        index = self._dim_index
        for v in self.variables:
            last = -1
            for n in v.dims.names:
                # undeclared (-1) or out of declaration order
                position = index.get(n, -1)
                if position <= last:
                    raise ModelError(
                        f"variable {v.name}: dimension set {v.dims} does not "
                        f"match the declared dimensions")
                last = position
            if isinstance(v.payload, ValueTable):
                size = self.tensor_size(v.dims)
                if len(v.payload.values) != size:
                    raise ModelError(
                        f"variable {v.name}: value table holds "
                        f"{len(v.payload.values)} values for {size} cells")
            elif isinstance(v.payload, Expr):
                for name, _ in iter_dependencies(v.payload):
                    if name not in var_names:
                        raise ModelError(
                            f"variable {v.name} references undeclared name {name}")

    @cached_property
    def _dim_by_name(self) -> dict[str, Dimension]:
        return {d.name: d for d in self.dimensions}

    @cached_property
    def _dim_index(self) -> dict[str, int]:
        return {d.name: i for i, d in enumerate(self.dimensions)}

    @cached_property
    def _var_by_name(self) -> dict[str, Variable]:
        return {v.name: v for v in self.variables}

    def dimension(self, name: str) -> Dimension:
        try:
            return self._dim_by_name[name]
        except KeyError:
            raise ModelError(f"no dimension named {name}") from None

    def variable(self, name: str) -> Variable:
        try:
            return self._var_by_name[name]
        except KeyError:
            raise ModelError(f"no variable named {name}") from None

    def has_variable(self, name: str) -> bool:
        return name in self._var_by_name

    def dim_set(self, names) -> DimensionSet:
        """The DimensionSet of any iterable of declared names, sorted into
        declaration order."""
        try:
            ordered = sorted(names, key=self._dim_index.__getitem__)
        except KeyError as e:
            raise ModelError(f"no dimension named {e.args[0]}") from None
        return DimensionSet(tuple(ordered))

    def instance_counts(self, dims: DimensionSet) -> tuple[int, ...]:
        return tuple(len(self.dimension(n).instances) for n in dims)

    def tensor_size(self, dims: DimensionSet) -> int:
        size = 1
        for c in self.instance_counts(dims):
            size *= c
        return size

    def instance_tuples(self, dims: DimensionSet) -> Iterator[tuple[str, ...]]:
        """All instance tuples of `dims`, row-major (first dimension outermost)."""
        axes = [self.dimension(n).instances for n in dims]
        return itertools.product(*axes)

    def tensor_index(self, dims: DimensionSet, labels: tuple[str, ...]) -> int:
        """Row-major flat index of one instance tuple."""
        if len(labels) != len(dims):
            raise ModelError(
                f"expected {len(dims)} instance labels for {dims}, got {len(labels)}")
        index = 0
        for name, label in zip(dims, labels):
            dim = self.dimension(name)
            index = index * len(dim.instances) + dim.index_of(label)
        return index

    def tensor_coords(self, dims: DimensionSet, index: int) -> tuple[str, ...]:
        """Inverse of tensor_index."""
        size = self.tensor_size(dims)
        if not 0 <= index < size:
            raise ModelError(f"index {index} out of range for {dims} (size {size})")
        labels = []
        for name in reversed(dims.names):
            instances = self.dimension(name).instances
            index, pos = divmod(index, len(instances))
            labels.append(instances[pos])
        return tuple(reversed(labels))


@dataclass(frozen=True)
class Tensor:
    """Evaluated values of one variable, row-major over its instance tuples.

    A dimensionless tensor holds exactly one value.
    """

    dims: DimensionSet
    values: tuple[float, ...]
