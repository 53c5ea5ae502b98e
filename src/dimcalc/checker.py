"""Static checks on a parsed Model.

Enforces the three dimension-set rules, kind/payload agreement, and
acyclicity, then fixes a deterministic evaluation order:

- Rule 1: a formula's dimension set (the union over its operands) must
  equal the declared set exactly (R1-MISMATCH).
- Rule 2: every non-aggregate operand's set must be a subset of the
  declared set (R2-NOT-SUBSET).
- Rule 3: a SUM source's set must be a superset of the declared set
  (R3-NOT-SUPERSET; equality is the R3-DEGENERATE warning).

Each variable reports at most one error: kind problems first, then the
operands in reading order, then the whole-formula Rule 1 comparison. A
formula that is a single bare reference has no operator applications, so
a mismatch there is the Rule 1 kind, not Rule 2.
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
    iter_dependencies,
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


def infer_dims(expr: Expr, target: Variable, model: Model) -> DimensionSet:
    """Dimension set of a formula: the union of its operands' sets.

    Literals are dimensionless; a reference has its variable's declared
    set; SUM keeps only the source dimensions the target also has (the
    rest are summed away).
    """
    return model.dim_set(_spanned(iter_dependencies(expr), target.dims, model))


def _spanned(uses, target: DimensionSet, model: Model) -> set[str]:
    """The names of infer_dims over the formula's (name, node) dependency
    pairs, unordered: the union of the operands' member sets, each SUM's
    cut to `target`."""
    names = set()
    for name, node in uses:
        members = model.variable(name).dims.members
        names |= (members & target.members if isinstance(node, Aggregate)
                  else members)
    return names


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


def _check_operand(node: Expr, var: Variable, model: Model):
    """Rule 2 or Rule 3 for one operand; (error, warning) pair."""
    if isinstance(node, Ref):
        dims = model.variable(node.name).dims
        if not dims.members <= var.dims.members:
            extra = difference(dims, var.dims)
            return CheckDiagnostic(
                "error", "R2-NOT-SUBSET",
                f"operand {node.name} spans {dims}, which is not a subset of "
                f"{var.name}'s declared set {var.dims}: {extra} "
                f"{'is' if len(extra) == 1 else 'are'} not available here",
                node.span or var.span, (var.name, node.name),
                (dims, var.dims)), None
        return None, None
    source = model.variable(node.source).dims
    if not var.dims.members <= source.members:
        return CheckDiagnostic(
            "error", "R3-NOT-SUPERSET",
            f"SUM source {node.source} spans {source}, which is not a "
            f"superset of {var.name}'s declared set {var.dims}",
            node.span or var.span, (var.name, node.source),
            (source, var.dims)), None
    if source.members == var.dims.members:
        return None, CheckDiagnostic(
            "warning", "R3-DEGENERATE",
            f"SUM({node.source}) eliminates nothing: source and target are "
            f"both over {var.dims}", node.span or var.span,
            (var.name, node.source), (source, var.dims))
    return None, None


def check_model(model: Model) -> CheckedModel:
    """Run every static rule; raise CheckFailure on any error.

    On success the returned CheckedModel carries the evaluation order and
    any warnings (degenerate SUMs).
    """
    errors: list[CheckDiagnostic] = []
    warnings: list[CheckDiagnostic] = []
    deps: dict[str, tuple[str, ...]] = {}

    for var in model.variables:
        deps[var.name] = var.dependencies
        kind_diag = _check_kind(var)
        if kind_diag:
            errors.append(kind_diag)
            continue
        if not var.kind.carries_formula:
            continue
        # a bare reference applies no operator, so it has no operand to
        # hold against Rule 2; Rule 1 judges the whole formula instead
        for _, node in () if isinstance(var.payload, Ref) else var.uses:
            error, warning = _check_operand(node, var, model)
            if warning:
                warnings.append(warning)
            if error:
                errors.append(error)
                break
        else:
            spanned = _spanned(var.uses, var.dims, model)
            if spanned != var.dims.members:
                inferred = model.dim_set(spanned)
                missing = difference(var.dims, inferred)
                extra = difference(inferred, var.dims)
                if extra and not missing:
                    detail = (f"the formula over-spans the declaration "
                              f"(extra {extra})")
                elif missing and not extra:
                    detail = (f"the formula under-spans the declaration "
                              f"(missing {missing})")
                else:
                    detail = f"missing {missing}, extra {extra}"
                errors.append(CheckDiagnostic(
                    "error", "R1-MISMATCH",
                    f"{var.name} is declared over {var.dims} but its formula "
                    f"spans {inferred}: {detail}", var.span, (var.name,),
                    (var.dims, inferred)))

    order, cycle_diags = _topological_order(model, deps)
    errors.extend(cycle_diags)

    if errors:
        raise CheckFailure(errors + warnings)
    return CheckedModel(model, tuple(order), tuple(warnings))


def _topological_order(model: Model, deps: dict[str, tuple[str, ...]]):
    """Kahn's algorithm; ready variables are taken in declaration order.

    `deps` holds each variable's distinct references in first-use order.
    """
    decl_index = {v.name: i for i, v in enumerate(model.variables)}
    dependents: dict[str, list[str]] = {v.name: [] for v in model.variables}
    indegree = {}
    for name, needed in deps.items():
        indegree[name] = len(needed)
        for d in needed:
            dependents[d].append(name)
    ready = [decl_index[n] for n, k in indegree.items() if k == 0]
    heapq.heapify(ready)
    names = [v.name for v in model.variables]
    order = []
    while ready:
        name = names[heapq.heappop(ready)]
        order.append(name)
        for dep in dependents[name]:
            indegree[dep] -= 1
            if indegree[dep] == 0:
                heapq.heappush(ready, decl_index[dep])
    if len(order) == len(names):
        return order, []
    remaining = [n for n in names if indegree[n] > 0]
    return order, _cycle_diagnostics(model, deps, set(remaining))


def _cycle_diagnostics(model: Model, deps, remaining: set) -> list[CheckDiagnostic]:
    """One C-CYCLE diagnostic per cycle among the unordered variables.

    A walk from each follows its first unordered dependency, which every
    unordered variable has, until a name repeats. It stops early at a
    variable an earlier walk passed: that walk found the cycle there.
    """
    diags = []
    passed: set[str] = set()
    for var in model.variables:
        if var.name not in remaining:
            continue
        path: dict[str, int] = {}  # each name of this walk: its position
        name = var.name
        while name not in path and name not in passed:
            path[name] = len(path)
            name = next(d for d in deps[name] if d in remaining)
        passed.update(path)
        if name in path:
            cycle = list(path)[path[name]:]
            diags.append(CheckDiagnostic(
                "error", "C-CYCLE", f"dependency cycle: {' -> '.join(cycle)} "
                f"-> {name}", model.variable(name).span, tuple(cycle)))
    return diags
