"""Core domain types for multidimensional calculation models.

A model declares named dimensions (ordered partitions of instance labels)
and variables. Each variable lives on a dimension set: the subset of
declared dimensions over which it takes one value per instance tuple.
Everything in this module is immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterator, Union


class ModelError(ValueError):
    """An invariant of the domain types was violated at construction."""


class UnknownInstanceError(ModelError):
    """An instance label does not belong to the dimension it was used with."""

    def __init__(self, dimension: str, label: str):
        super().__init__(f"dimension {dimension} has no instance {label!r}")
        self.dimension = dimension
        self.label = label


@dataclass(frozen=True)
class SourceSpan:
    """Half-open region of DSL text, 1-based lines and columns."""

    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __post_init__(self):
        if (self.end_line, self.end_col) < (self.start_line, self.start_col):
            raise ModelError("source span ends before it starts")

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"

    def as_json(self) -> dict:
        return {
            "file": self.file,
            "start_line": self.start_line,
            "start_col": self.start_col,
            "end_line": self.end_line,
            "end_col": self.end_col,
        }


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
            raise UnknownInstanceError(self.name, label) from None


@dataclass(frozen=True)
class DimensionSet:
    """A set of dimension names in canonical (model declaration) order.

    `order` holds each name's declaration index in the owning model; it is
    what lets two sets be merged without consulting the model again. The
    empty set is valid and marks a dimensionless (scalar) variable.
    """

    names: tuple[str, ...]
    order: tuple[int, ...] = field(repr=False)

    def __post_init__(self):
        if len(self.names) != len(self.order):
            raise ModelError("dimension set names and order differ in length")
        if any(b <= a for a, b in zip(self.order, self.order[1:])):
            raise ModelError("dimension set is not in canonical order")
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


EMPTY_DIMS = DimensionSet((), ())


def _from_pairs(pairs) -> DimensionSet:
    ordered = sorted(pairs)
    return DimensionSet(tuple(n for _, n in ordered), tuple(i for i, _ in ordered))


def union(a: DimensionSet, b: DimensionSet) -> DimensionSet:
    """All names in `a` or `b`, canonically ordered."""
    return _from_pairs(set(zip(a.order, a.names)) | set(zip(b.order, b.names)))


def intersect(a: DimensionSet, b: DimensionSet) -> DimensionSet:
    return _from_pairs(set(zip(a.order, a.names)) & set(zip(b.order, b.names)))


def difference(a: DimensionSet, b: DimensionSet) -> DimensionSet:
    """Names of `a` that are not in `b`."""
    return _from_pairs(set(zip(a.order, a.names)) - set(zip(b.order, b.names)))


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


@dataclass(frozen=True)
class Ref(Expr):
    """Reference to a variable by name."""

    name: str
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Unary(Expr):
    """Prefix negation; `op` is always '-'."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Aggregate(Expr):
    """SUM over a bare variable reference.

    The dimensions summed away are not written in the formula; they are the
    source variable's dimensions that the defined variable does not have.
    """

    func: str  # only "SUM"
    source: str
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


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

    Entries are stored row-major in the variable's canonical dimension
    order; a dimensionless table has the single key ().
    """

    entries: tuple[tuple[tuple[str, ...], float], ...]

    def __post_init__(self):
        keys = [k for k, _ in self.entries]
        if len(set(keys)) != len(keys):
            raise ModelError("value table repeats an instance tuple")

    @property
    def scalar(self) -> float:
        if len(self.entries) != 1 or self.entries[0][0] != ():
            raise ModelError("value table is not a scalar")
        return self.entries[0][1]

    def as_dict(self) -> dict[tuple[str, ...], float]:
        return dict(self.entries)


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
    complete value tables, and reference closure of every formula.
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
        index = {n: i for i, n in enumerate(dim_names)}
        for v in self.variables:
            expected = tuple(index[n] for n in v.dims.names if n in index)
            if len(expected) != len(v.dims.names) or expected != v.dims.order:
                raise ModelError(
                    f"variable {v.name}: dimension set {v.dims} does not match "
                    f"the declared dimensions")
            if isinstance(v.payload, ValueTable):
                self._check_table(v)
            elif isinstance(v.payload, Expr):
                for name, _ in iter_dependencies(v.payload):
                    if name not in var_names:
                        raise ModelError(
                            f"variable {v.name} references undeclared name {name}")

    def _check_table(self, v: Variable) -> None:
        want = set(self.instance_tuples(v.dims))
        got = set(v.payload.as_dict())
        if got != want:
            missing = sorted(want - got)
            extra = sorted(got - want)
            parts = []
            if missing:
                parts.append(f"missing {len(missing)} entries, first {missing[0]}")
            if extra:
                parts.append(f"unexpected entry {extra[0]}")
            raise ModelError(f"variable {v.name}: incomplete value table "
                             f"({'; '.join(parts)})")

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
        """Canonical DimensionSet for any iterable of declared names."""
        pairs = []
        for n in names:
            if n not in self._dim_index:
                raise ModelError(f"no dimension named {n}")
            pairs.append((self._dim_index[n], n))
        if len(set(pairs)) != len(pairs):
            raise ModelError("dimension set repeats a name")
        return _from_pairs(set(pairs))

    @property
    def full_set(self) -> DimensionSet:
        return self.dim_set(d.name for d in self.dimensions)

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


def enumerate_dimension_sets(model: Model) -> list[DimensionSet]:
    """All 2^n dimension sets of a model, by cardinality then canonical order."""
    names = [d.name for d in model.dimensions]
    out = []
    for k in range(len(names) + 1):
        for combo in itertools.combinations(range(len(names)), k):
            out.append(DimensionSet(tuple(names[i] for i in combo), combo))
    return out


@dataclass(frozen=True)
class Tensor:
    """Evaluated values of one variable, row-major over its instance tuples.

    A dimensionless tensor holds exactly one value.
    """

    dims: DimensionSet
    values: tuple[float, ...]
