"""Static checks on a parsed Model.

Enforces the three dimension-set rules, kind/payload agreement, and
acyclicity, then fixes a deterministic evaluation order:

- Rule 1: a formula's dimension set (the union over its operands) must
  equal the declared set exactly (R1-MISMATCH).
- Rule 2: every non-aggregate operand's set must be a subset of the
  declared set (R2-NOT-SUBSET).
- Rule 3: a SUM source's set must be a superset of the declared set
  (R3-NOT-SUPERSET; equality is the R3-DEGENERATE warning).

Each variable reports at most one error: kind problems first, then, in one
function per formula, the operands in reading order and Rule 1. A formula
that is a single bare reference applies no operator, so a mismatch there
is the Rule 1 kind, not Rule 2. The order and the cycle walk run over
declaration positions.
"""

from __future__ import annotations

import heapq

from .model import (
    Aggregate,
    Diagnostic,
    DiagnosticFailure,
    DimensionSet,
    Expr,
    Model,
    Record,
    Ref,
    SourceSpan,
    ValueTable,
    Variable,
    difference,
)


class CheckDiagnostic(Diagnostic):
    """A checker finding and the variables and dimension sets it names; its
    code is R1-MISMATCH, R2-NOT-SUBSET, R3-NOT-SUPERSET, R3-DEGENERATE, K-KIND
    or C-CYCLE."""

    __slots__ = ("variables", "dimension_sets")
    _fields = (*Diagnostic._fields, *__slots__)

    def __init__(self, severity: str, code: str, message: str,
                 span: SourceSpan | None, variables: tuple[str, ...] = (),
                 dimension_sets: tuple[DimensionSet, ...] = ()):
        super().__init__(severity, code, message, span)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "dimension_sets", dimension_sets)

    def as_json(self) -> dict:
        return {**super().as_json(), "variables": list(self.variables),
                "dimension_sets": [list(d.names) for d in self.dimension_sets]}


class CheckFailure(DiagnosticFailure):
    """Raised by check_model when the model violates any rule."""


class CheckedModel(Record):
    """A model that passed every check, ready to evaluate.

    `order` lists variable names so that every variable comes after all
    variables it references; ties are broken by declaration order.
    """

    __slots__ = _fields = ("model", "order", "warnings")

    def __init__(self, model: Model, order: tuple[str, ...],
                 warnings: tuple[CheckDiagnostic, ...] = ()):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "warnings", warnings)


def _check_kind(var: Variable) -> CheckDiagnostic | None:
    if var.kind.carries_formula:
        if isinstance(var.payload, ValueTable):
            problem = ("carries literal values; write a formula, or declare "
                       "it as data")
        elif var.payload is None:
            problem = "has no formula"
        elif not var.uses:
            problem = "is a constant expression; declare it as data or input"
        else:
            return None
    elif isinstance(var.payload, Expr):
        problem = ("carries a formula; only calc and output variables are "
                   "calculated")
    elif var.payload is None and var.kind.value == "data":
        problem = "has no value"
    else:
        return None
    return CheckDiagnostic("error", "K-KIND",
                           f"{var.kind.value} {var.name} {problem}",
                           var.span, (var.name,))


def _check_formula(var: Variable, model: Model,
                   warnings: list[CheckDiagnostic]) -> CheckDiagnostic | None:
    """The first error of a formula variable, or None: Rule 3 for each SUM
    and Rule 2 for each plain operand, in reading order, then Rule 1 on the
    union they span. A degenerate SUM appends its warning to `warnings`."""
    target = var.dims
    # a bare reference applies no operator, so it has no operand to
    # hold against Rule 2; Rule 1 judges the whole formula instead
    bare = isinstance(var.payload, Ref)
    spanned = set()
    for name, node in var.uses:
        dims = model.variable(name).dims
        if type(node) is Aggregate:
            if not target.members <= dims.members:
                return CheckDiagnostic(
                    "error", "R3-NOT-SUPERSET",
                    f"SUM source {name} spans {dims}, which is not a "
                    f"superset of {var.name}'s declared set {target}",
                    node.span or var.span, (var.name, name), (dims, target))
            if dims.members == target.members:
                warnings.append(CheckDiagnostic(
                    "warning", "R3-DEGENERATE",
                    f"SUM({name}) eliminates nothing: source and target are "
                    f"both over {target}", node.span or var.span,
                    (var.name, name), (dims, target)))
            spanned |= target.members  # all it keeps of its source
        elif bare or dims.members <= target.members:
            spanned |= dims.members
        else:
            extra = difference(dims, target)
            return CheckDiagnostic(
                "error", "R2-NOT-SUBSET",
                f"operand {name} spans {dims}, which is not a subset of "
                f"{var.name}'s declared set {target}: {extra} "
                f"{'is' if len(extra) == 1 else 'are'} not available here",
                node.span or var.span, (var.name, name), (dims, target))
    if spanned == target.members:
        return None
    inferred = model.dim_set(spanned)
    missing = difference(target, inferred)
    extra = difference(inferred, target)
    if extra and not missing:
        detail = f"the formula over-spans the declaration (extra {extra})"
    elif missing and not extra:
        detail = f"the formula under-spans the declaration (missing {missing})"
    else:
        detail = f"missing {missing}, extra {extra}"
    return CheckDiagnostic(
        "error", "R1-MISMATCH", f"{var.name} is declared over {target} but "
        f"its formula spans {inferred}: {detail}", var.span, (var.name,),
        (target, inferred))


def check_model(model: Model) -> CheckedModel:
    """Run every static rule; raise CheckFailure on any error.

    On success the returned CheckedModel carries the evaluation order and
    any warnings (degenerate SUMs).
    """
    errors: list[CheckDiagnostic] = []
    warnings: list[CheckDiagnostic] = []
    for var in model.variables:
        error = _check_kind(var)
        if error is None and var.kind.carries_formula:
            error = _check_formula(var, model, warnings)
        if error:
            errors.append(error)
    order = _topological_order(model, errors)
    if errors:
        raise CheckFailure(errors + warnings)
    return CheckedModel(model, order, tuple(warnings))


def _topological_order(model: Model, errors: list) -> tuple[str, ...]:
    """Kahn's algorithm over declaration positions; ready variables are
    taken in declaration order.

    Adds to `errors` one C-CYCLE per cycle among the variables it cannot
    place. A walk from each follows its first unplaced reference, which
    every unplaced variable has, until a position repeats. It stops early
    at a variable an earlier walk passed: that walk found the cycle there.
    """
    variables = model.variables
    position = {v.name: i for i, v in enumerate(variables)}
    # each variable's distinct references, in first-use order
    deps = [[position[name] for name in v.dependencies] for v in variables]
    indegree = [len(needed) for needed in deps]
    dependents: list[list[int]] = [[] for _ in variables]
    for i, needed in enumerate(deps):
        for d in needed:
            dependents[d].append(i)
    # ascending, so already a heap
    ready = [i for i, k in enumerate(indegree) if not k]
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(variables[i].name)
        for j in dependents[i]:
            indegree[j] -= 1
            if not indegree[j]:
                heapq.heappush(ready, j)
    walk_of = [-1] * len(variables)  # the start of the walk through each
    for start, k in enumerate(indegree):
        if not k:  # placed
            continue
        path = []
        i = start
        while walk_of[i] < 0:
            walk_of[i] = start
            path.append(i)
            i = next(d for d in deps[i] if indegree[d])
        if walk_of[i] == start:
            cycle = tuple(variables[j].name for j in path[path.index(i):])
            errors.append(CheckDiagnostic(
                "error", "C-CYCLE", f"dependency cycle: {' -> '.join(cycle)} "
                f"-> {cycle[0]}", variables[i].span, cycle))
    return tuple(order)
