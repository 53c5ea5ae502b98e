"""Core domain types for multidimensional calculation models.

A model declares named dimensions (ordered partitions of instance labels)
and variables. Each variable lives on a dimension set: the subset of
declared dimensions over which it takes one value per instance tuple.
Everything in this module is immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from collections.abc import Iterator
from enum import Enum


class ModelError(ValueError):
    """An invariant of the domain types was violated at construction."""


class Record:
    """Base of the immutable types. `_fields` name the values that decide
    `==` and `hash`, that `repr` shows and that pickling passes back to the
    constructor; assignment raises `dataclasses.FrozenInstanceError`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name: str, *value):
        # imported on this path alone: it costs a cold start milliseconds
        from dataclasses import FrozenInstanceError
        verb = "assign to" if value else "delete"
        raise FrozenInstanceError(f"cannot {verb} field {name!r}")

    __delattr__ = __setattr__


class SourceSpan(Record):
    """Half-open region of DSL text, 1-based lines and columns.

    A span made by `factory` holds only character offsets and the
    offsets where the text's lines start; it works out its file, lines and
    columns the first time one of them is read. Either kind is immutable,
    and spans of the same region are equal whichever way they were built.
    """

    _fields = ("file", "start_line", "start_col", "end_line", "end_col")
    __slots__ = (*_fields, "_source", "_start", "_end")

    def __init__(self, file: str, start_line: int, start_col: int,
                 end_line: int, end_col: int):
        if (end_line, end_col) < (start_line, start_col):
            raise ModelError("source span ends before it starts")
        object.__setattr__(self, "file", file)
        object.__setattr__(self, "start_line", start_line)
        object.__setattr__(self, "start_col", start_col)
        object.__setattr__(self, "end_line", end_line)
        object.__setattr__(self, "end_col", end_col)

    @staticmethod
    def factory(source: tuple[str, list[int]]):
        """The function from offsets [start, end) into a text to their span,
        where `source` is (file, the offsets at which the text's lines start,
        0 first). It sets the three slots alone, through their own setters."""
        # bound here, so that each span reads them from the closure, not
        # from the module's globals
        new, set_source, set_start, set_end = (
            object.__new__, _SET_SOURCE, _SET_START, _SET_END)

        def span(start: int, end: int) -> SourceSpan:
            made = new(SourceSpan)
            set_source(made, source)
            set_start(made, start)
            set_end(made, end)
            return made
        return span

    def __getattr__(self, name: str):
        # only a span made by `factory` lacks a field, until it is read
        if name not in SourceSpan._fields:
            raise AttributeError(
                f"'SourceSpan' object has no attribute {name!r}")
        file, starts = self._source
        line = bisect_right(starts, self._start)
        end_line = bisect_right(starts, self._end, line - 1)
        SourceSpan.__init__(self, file, line, self._start - starts[line - 1] + 1,
                            end_line, self._end - starts[end_line - 1] + 1)
        return getattr(self, name)

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"

    def as_json(self) -> dict:
        return dict(zip(self._fields, self._values()))


# the slots' own setters, which the refusing __setattr__ leaves usable
_SET_SOURCE = SourceSpan._source.__set__
_SET_START = SourceSpan._start.__set__
_SET_END = SourceSpan._end.__set__


class Diagnostic(Record):
    """A finding or failure of any stage; `severity` is "error" or "warning".
    Without a `span` it renders no location, without a `code` no `[code]`."""

    __slots__ = _fields = ("severity", "code", "message", "span")

    def __init__(self, severity: str, code: str | None, message: str,
                 span: SourceSpan | None):
        object.__setattr__(self, "severity", severity)
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "span", span)

    def render(self) -> str:
        where = f"{self.span}: " if self.span else ""
        code = "" if self.code is None else f"[{self.code}]"
        return f"{where}{self.severity}{code}: {self.message}"

    def as_json(self) -> dict:
        return {"severity": self.severity, "code": self.code,
                "message": self.message,
                "span": self.span.as_json() if self.span else None}


class DiagnosticFailure(Exception):
    """Diagnostics that stop a stage, sorted by where they start (those
    without a span first) and then by code: the one argument, which pickle
    and copy pass back. `str()` renders them; the CLI exits `exit_code`."""

    exit_code = 1

    def __init__(self, diagnostics):
        self.diagnostics = sorted(diagnostics, key=lambda d: (
            (d.span.start_line, d.span.start_col) if d.span else (0, 0),
            d.code or ""))
        super().__init__(self.diagnostics)

    def __str__(self) -> str:
        return "\n".join(d.render() for d in self.diagnostics)


class Dimension(Record):
    """A named, ordered partition of instance labels.

    Labels must be pairwise distinct: an entity belongs to exactly one
    instance, and the instances jointly cover all possibilities. Derived
    from them, each label's position takes no part in equality or repr.
    """

    _fields = ("name", "instances")
    __slots__ = (*_fields, "_positions")

    def __init__(self, name: str, instances: tuple[str, ...]):
        if not isinstance(name, str):
            raise ModelError(f"dimension name {name!r} is not a str")
        if not isinstance(instances, tuple):
            raise ModelError(f"dimension {name}: instances {instances!r} are "
                             f"not a tuple")
        for label in instances:
            if not isinstance(label, str):
                raise ModelError(f"dimension {name}: instance label {label!r} "
                                 f"is not a str")
        if not instances:
            raise ModelError(f"dimension {name} has no instances")
        positions = {label: i for i, label in enumerate(instances)}
        if len(positions) != len(instances):
            raise ModelError(f"dimension {name} repeats an instance label")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "instances", instances)
        object.__setattr__(self, "_positions", positions)

    def index_of(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise ModelError(
                f"dimension {self.name} has no instance {label!r}") from None


class DimensionSet(Record):
    """A set of dimension names, listed in the owning model's declaration
    order.

    `Model` refuses a set whose names are undeclared or out of that order;
    `Model.dim_set` builds one from names in any order. The empty set is
    valid and marks a dimensionless (scalar) variable. `members` holds the
    names as a frozenset, for subset tests; derived from them, it takes no
    part in equality or repr.
    """

    _fields = ("names",)
    __slots__ = (*_fields, "members")

    def __init__(self, names: tuple[str, ...]):
        if not (isinstance(names, tuple)
                and all(isinstance(name, str) for name in names)):
            raise ModelError(f"dimension set {names!r} is not a tuple of str")
        members = frozenset(names)
        if len(members) != len(names):
            raise ModelError("dimension set repeats a name")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "members", members)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self.members

    def __str__(self) -> str:
        return "(" + ", ".join(self.names) + ")"


EMPTY_DIMS = DimensionSet(())


def difference(a: DimensionSet, b: DimensionSet) -> DimensionSet:
    """Names of `a` that are not in `b`, in `a`'s order."""
    return DimensionSet(tuple(n for n in a.names if n not in b.members))


class VariableKind(Enum):
    INPUT = "input"
    DATA = "data"
    CALCULATED = "calc"
    OUTPUT = "output"

    def __init__(self, value: str):
        # a plain attribute of each member, read as fast as a tuple test
        self.carries_formula = value in ("calc", "output")


# the node classes the walkers know, filled in once they exist; the bare
# `Expr` base is none of them
_NODE_TYPES: frozenset[type] = frozenset()


class Expr(Record):
    """Base class for formula AST nodes, whose `_operands` hold nodes. `==`,
    hash, repr and pickling walk `iter_nodes`, so they work at any depth: with
    operand counts fixed by class, a post-order list decodes to one tree.

    The node classes are closed: the walkers dispatch on a node's exact
    class, so `Ref`, `Binary`, `Literal`, `Unary` and `Aggregate` refuse to
    be subclassed."""

    __slots__ = ()
    _operands: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for base in cls.__mro__:
            if base in _NODE_TYPES:
                raise TypeError(f"{base.__name__} cannot be subclassed: the "
                                f"formula walkers dispatch on exact class")

    def _values(self) -> tuple:
        return tuple([(n.__class__, Record._values(n)) for n in iter_nodes(self)])

    def __repr__(self) -> str:
        done: list[str] = []  # the reprs of the operands still to take
        for cls, values in self._values():
            fields = [f"{name}={value!r}" for name, value in zip(cls._fields, values)]
            start = len(done) - len(cls._operands)
            fields += map("=".join, zip(cls._operands, done[start:]))
            done[start:] = [f"{cls.__qualname__}({', '.join(fields)})"]
        return done[0]

    def __reduce__(self):
        spans = [getattr(node, "span", None) for node in iter_nodes(self)]
        return _build_expr, (self._values(), spans)


def _build_expr(nodes: tuple, spans: list) -> Expr:
    """The formula of an `Expr.__reduce__` result, built bottom up."""
    done: list[Expr] = []  # the nodes still to take as operands
    for (cls, values), span in zip(nodes, spans):
        start = len(done) - len(cls._operands)
        done[start:] = [cls(*values, *done[start:]) if span is None
                        else cls(*values, span=span)]
    return done[0]


class Literal(Expr):
    __slots__ = _fields = ("value",)

    def __init__(self, value: float):
        _SET_LITERAL_VALUE(self, float(value))


class Ref(Expr):
    """Reference to a variable by name."""

    __slots__ = ("name", "span")
    _fields = ("name",)  # the span takes no part in equality or repr

    def __init__(self, name: str, span: SourceSpan | None = None):
        _SET_REF_NAME(self, name)
        _SET_REF_SPAN(self, span)


class Unary(Expr):
    """Prefix negation."""

    __slots__ = _operands = ("operand",)

    def __init__(self, operand: Expr):
        if type(operand) not in _NODE_TYPES:
            raise ModelError(f"operand {operand!r} is not a formula node")
        _SET_UNARY_OPERAND(self, operand)


class Binary(Expr):
    __slots__ = ("op", "left", "right")
    _fields = ("op",)
    _operands = ("left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in ("+", "-", "*", "/", "^"):
            raise ModelError(f"unknown binary operator {op!r}")
        if type(left) not in _NODE_TYPES or type(right) not in _NODE_TYPES:
            bad = right if type(left) in _NODE_TYPES else left
            raise ModelError(f"operand {bad!r} is not a formula node")
        _SET_BINARY_OP(self, op)
        _SET_BINARY_LEFT(self, left)
        _SET_BINARY_RIGHT(self, right)


class Aggregate(Expr):
    """SUM over a bare variable reference.

    The dimensions summed away are not written in the formula; they are the
    source variable's dimensions that the defined variable does not have.
    """

    __slots__ = ("source", "span")
    _fields = ("source",)  # the span takes no part in equality or repr

    def __init__(self, source: str, *, span: SourceSpan | None = None):
        _SET_AGGREGATE_SOURCE(self, source)
        _SET_AGGREGATE_SPAN(self, span)


_NODE_TYPES = frozenset({Ref, Binary, Literal, Unary, Aggregate})

# the slots' setters, faster than object.__setattr__ for the many nodes
_SET_LITERAL_VALUE, _SET_UNARY_OPERAND = Literal.value.__set__, Unary.operand.__set__
_SET_REF_NAME, _SET_REF_SPAN = Ref.name.__set__, Ref.span.__set__
_SET_BINARY_OP = Binary.op.__set__
_SET_BINARY_LEFT, _SET_BINARY_RIGHT = Binary.left.__set__, Binary.right.__set__
_SET_AGGREGATE_SOURCE = Aggregate.source.__set__
_SET_AGGREGATE_SPAN = Aggregate.span.__set__


def _walk(expr: Expr) -> tuple[list[Expr], list[tuple[str, Expr]]]:
    """`iter_nodes(expr)` and `iter_dependencies(expr)`, from one walk."""
    nodes, uses = [], []
    stack = [expr]
    # visiting node, right, left yields the post-order reversed
    while stack:
        node = stack.pop()
        nodes.append(node)
        # exact classes, commonest first; a bare `Expr` matches none
        cls = type(node)
        if cls is Binary:
            stack.append(node.left)
            stack.append(node.right)
        elif cls is Literal:
            pass
        elif cls is Ref:
            uses.append((node.name, node))
        elif cls is Unary:
            stack.append(node.operand)
        elif cls is Aggregate:
            uses.append((node.source, node))
    nodes.reverse()
    uses.reverse()
    return nodes, uses


def iter_nodes(expr: Expr) -> list[Expr]:
    """`expr` and every descendant in post-order: the operands of a node
    come before it, left before right.

    The walk keeps its own stack, so formulas of any depth are safe.
    """
    return _walk(expr)[0]


def iter_dependencies(expr: Expr) -> list[tuple[str, Expr]]:
    """(variable name, node) for every Ref and Aggregate, left to right.

    Duplicates are kept; an Aggregate node marks a use through SUM.
    """
    return _walk(expr)[1]


class ValueTable(Record):
    """Literal values of a data or input variable, one per instance tuple.

    Values are floats, row-major over the variable's dimension set exactly
    like `Tensor.values`; a dimensionless table holds one value.
    """

    __slots__ = _fields = ("values",)

    def __init__(self, values: tuple[float, ...]):
        object.__setattr__(self, "values", tuple(map(float, values)))

    @property
    def scalar(self) -> float:
        if len(self.values) != 1:
            raise ModelError("value table is not a scalar")
        return self.values[0]


# what a variable may carry; anything else would fail only when evaluated
_PAYLOADS = (ValueTable, *_NODE_TYPES, type(None))


class Variable(Record):
    """One row of a model: a named value with a kind and a dimension set.

    Input and data variables carry a value table (inputs may carry none and
    be supplied at evaluation time); calculated and output variables carry
    a formula. A payload that is none of these raises `ModelError`;
    kind/payload agreement is the checker's job, not enforced here. `nodes`
    holds the formula's `iter_nodes` list and `uses` its `iter_dependencies`
    pairs, as tuples found in one walk here (empty without a formula);
    derived from the payload, they take no part in equality or repr.
    """

    __slots__ = ("name", "kind", "dims", "payload", "span", "uses", "nodes")
    _fields = __slots__[:4]  # the span takes no part in equality or repr

    def __init__(self, name: str, kind: VariableKind, dims: DimensionSet,
                 payload: ValueTable | Expr | None, span: SourceSpan | None = None):
        if not isinstance(payload, _PAYLOADS):
            raise ModelError(f"variable {name}: payload {payload!r} is not a "
                             f"value table, a formula node or None")
        _SET_VARIABLE_NAME(self, name)
        _SET_VARIABLE_KIND(self, kind)
        _SET_VARIABLE_DIMS(self, dims)
        _SET_VARIABLE_PAYLOAD(self, payload)
        _SET_VARIABLE_SPAN(self, span)
        nodes, uses = _walk(payload) if isinstance(payload, Expr) else ((), ())
        _SET_VARIABLE_NODES(self, tuple(nodes))
        _SET_VARIABLE_USES(self, tuple(uses))

    def __reduce__(self):
        return self.__class__, (*self._values(), self.span)

    @property
    def dependencies(self) -> tuple[str, ...]:
        """Distinct names the formula references, in first-use order."""
        return tuple(dict.fromkeys([name for name, _ in self.uses]))


_SET_VARIABLE_NAME, _SET_VARIABLE_KIND = Variable.name.__set__, Variable.kind.__set__
_SET_VARIABLE_DIMS = Variable.dims.__set__
_SET_VARIABLE_PAYLOAD = Variable.payload.__set__
_SET_VARIABLE_SPAN, _SET_VARIABLE_USES = Variable.span.__set__, Variable.uses.__set__
_SET_VARIABLE_NODES = Variable.nodes.__set__


class Model(Record):
    """A complete calculation model: dimensions plus variables.

    Construction refuses a part of the wrong type, naming it, and
    validates the cross-cutting invariants: unique names, disjoint
    dimension/variable namespaces, declared dimension references, one
    table value per cell, and reference closure of every formula.
    """

    _fields = ("dimensions", "variables")
    __slots__ = (*_fields, "_dim_by_name", "_dim_index", "_var_by_name")

    def __init__(self, dimensions: tuple[Dimension, ...],
                 variables: tuple[Variable, ...]):
        if not isinstance(dimensions, tuple):
            raise ModelError(f"model dimensions {dimensions!r} are not a tuple")
        if not isinstance(variables, tuple):
            raise ModelError(f"model variables {variables!r} are not a tuple")
        object.__setattr__(self, "dimensions", dimensions)
        object.__setattr__(self, "variables", variables)
        dim_by_name = {}
        for d in dimensions:
            if not isinstance(d, Dimension):
                raise ModelError(f"model dimension {d!r} is not a Dimension")
            dim_by_name[d.name] = d
        index = {name: i for i, name in enumerate(dim_by_name)}
        var_by_name = {}
        for v in variables:
            if not isinstance(v, Variable):
                raise ModelError(f"model variable {v!r} is not a Variable")
            if not isinstance(v.name, str):
                raise ModelError(f"variable name {v.name!r} is not a str")
            var_by_name[v.name] = v
        object.__setattr__(self, "_dim_by_name", dim_by_name)
        object.__setattr__(self, "_dim_index", index)
        object.__setattr__(self, "_var_by_name", var_by_name)
        if len(dim_by_name) != len(dimensions):
            raise ModelError("duplicate dimension name")
        if len(var_by_name) != len(variables):
            raise ModelError("duplicate variable name")
        overlap = dim_by_name.keys() & var_by_name.keys()
        if overlap:
            raise ModelError(
                f"name used for both a dimension and a variable: {sorted(overlap)}")
        for v in variables:
            if not isinstance(v.kind, VariableKind):
                raise ModelError(f"variable {v.name}: kind {v.kind!r} is not "
                                 f"a VariableKind")
            if not isinstance(v.dims, DimensionSet):
                raise ModelError(f"variable {v.name}: dimension set {v.dims!r} "
                                 f"is not a DimensionSet")
            if not (v.span is None or isinstance(v.span, SourceSpan)):
                raise ModelError(f"variable {v.name}: span {v.span!r} is not a "
                                 f"SourceSpan or None")
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
            try:
                for name, node in v.uses:
                    if name not in var_by_name:
                        raise ModelError(f"variable {v.name} references "
                                         f"undeclared name {name}")
                    if not (isinstance(node.span, SourceSpan) or node.span is None):
                        raise ModelError(f"variable {v.name}: reference span "
                                         f"{node.span!r} is not a SourceSpan "
                                         f"or None")
            except TypeError:  # an unhashable name
                raise ModelError(f"variable {v.name}: reference name "
                                 f"{name!r} is not a str") from None

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

    def tensor_size(self, dims: DimensionSet) -> int:
        """The cell count of a tensor over `dims`."""
        size, by_name = 1, self._dim_by_name
        try:
            for name in dims.names:
                size *= len(by_name[name].instances)
        except KeyError:
            raise ModelError(f"no dimension named {name}") from None
        return size

    def instance_tuples(self, dims: DimensionSet) -> Iterator[tuple[str, ...]]:
        """All instance tuples of `dims`, row-major (first dimension outermost)."""
        axes = [self.dimension(n).instances for n in dims]
        return itertools.product(*axes)

    def tensor_index(self, dims: DimensionSet, labels: tuple[str, ...]) -> int:
        """Row-major flat index of one instance tuple."""
        if len(labels) != len(dims):
            raise ModelError(
                f"expected {len(dims)} instance "
                f"label{'s' if len(dims) != 1 else ''} for {dims}, "
                f"got {len(labels)}")
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


class Tensor(Record):
    """Evaluated values of one variable, row-major over its instance tuples.

    A dimensionless tensor holds exactly one value.
    """

    __slots__ = _fields = ("dims", "values")
    __hash__ = None  # a hash would read every value

    def __init__(self, dims: DimensionSet, values: array):
        _SET_TENSOR_DIMS(self, dims)
        _SET_TENSOR_VALUES(self, values)


_SET_TENSOR_DIMS, _SET_TENSOR_VALUES = Tensor.dims.__set__, Tensor.values.__set__
