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
from dataclasses import dataclass

from .model import (
    Aggregate,
    DimensionSet,
    Expr,
    Model,
    Ref,
    SourceSpan,
    ValueTable,
    Variable,
    _from_pairs,
    difference,
    intersect,
    is_subset,
    iter_dependencies,
)


@dataclass(frozen=True)
class CheckDiagnostic:
    severity: str  # "error" or "warning"
    code: str  # R1-MISMATCH, R2-NOT-SUBSET, R3-NOT-SUPERSET, R3-DEGENERATE,
    #            K-KIND, C-CYCLE
    message: str
    span: SourceSpan | None
    variables: tuple[str, ...] = ()
    dimension_sets: tuple[DimensionSet, ...] = ()

    def render(self) -> str:
        where = f"{self.span}: " if self.span else ""
        return f"{where}{self.severity}[{self.code}]: {self.message}"

    def as_json(self) -> dict:
        return {
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
            "span": self.span.as_json() if self.span else None,
            "variables": list(self.variables),
            "dimension_sets": [list(d.names) for d in self.dimension_sets],
        }


class CheckFailure(Exception):
    """Raised by check_model when the model violates any rule."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(d.render() for d in self.diagnostics))


@dataclass(frozen=True)
class CheckedModel:
    """A model that passed every check, ready to evaluate.

    `order` lists variable names so that every variable comes after all
    variables it references; ties are broken by declaration order.
    """

    model: Model
    order: tuple[str, ...]
    warnings: tuple[CheckDiagnostic, ...] = ()


def infer_dims(expr: Expr, target: Variable, model: Model) -> DimensionSet:
    """Dimension set of a formula: the union of its operands' sets.

    Literals are dimensionless; a reference has its variable's declared
    set; SUM keeps only the source dimensions the target also has (the
    rest are summed away).
    """
    return _union_dims(iter_dependencies(expr), target, model)


def _union_dims(uses, target: Variable, model: Model) -> DimensionSet:
    """infer_dims over the formula's (name, node) dependency pairs."""
    pairs = set()
    for name, node in uses:
        dims = model.variable(name).dims
        if isinstance(node, Aggregate):
            dims = intersect(dims, target.dims)
        pairs.update(zip(dims.order, dims.names))
    return _from_pairs(pairs)


def _check_kind(var: Variable, uses: list) -> CheckDiagnostic | None:
    kind = var.kind
    if kind.carries_formula:
        if isinstance(var.payload, ValueTable):
            return CheckDiagnostic(
                "error", "K-KIND",
                f"{kind.value} {var.name} carries literal values; write a "
                f"formula, or declare it as data", var.span, (var.name,))
        if var.payload is None:
            return CheckDiagnostic(
                "error", "K-KIND",
                f"{kind.value} {var.name} has no formula", var.span, (var.name,))
        if not uses:
            return CheckDiagnostic(
                "error", "K-KIND",
                f"{kind.value} {var.name} is a constant expression; declare "
                f"it as data or input", var.span, (var.name,))
    else:
        if isinstance(var.payload, Expr):
            return CheckDiagnostic(
                "error", "K-KIND",
                f"{kind.value} {var.name} carries a formula; only calc and "
                f"output variables are calculated", var.span, (var.name,))
        if var.payload is None and kind.value == "data":
            return CheckDiagnostic(
                "error", "K-KIND", f"data {var.name} has no value",
                var.span, (var.name,))
    return None


def _check_operand(node: Expr, var: Variable, model: Model):
    """Rule 2 or Rule 3 for one operand; (error, warning) pair."""
    if isinstance(node, Ref):
        dims = model.variable(node.name).dims
        if not is_subset(dims, var.dims):
            extra = difference(dims, var.dims)
            return CheckDiagnostic(
                "error", "R2-NOT-SUBSET",
                f"operand {node.name} spans {dims}, which is not a subset of "
                f"{var.name}'s declared set {var.dims}: {extra} "
                f"{'is' if len(extra) == 1 else 'are'} not available here",
                node.span or var.span, (var.name, node.name),
                (dims, var.dims)), None
        return None, None
    source = model.variable(node.source)
    if not is_subset(var.dims, source.dims):
        return CheckDiagnostic(
            "error", "R3-NOT-SUPERSET",
            f"SUM source {node.source} spans {source.dims}, which is not a "
            f"superset of {var.name}'s declared set {var.dims}",
            node.span or var.span, (var.name, node.source),
            (source.dims, var.dims)), None
    if source.dims == var.dims:
        return None, CheckDiagnostic(
            "warning", "R3-DEGENERATE",
            f"SUM({node.source}) eliminates nothing: source and target are "
            f"both over {var.dims}", node.span or var.span,
            (var.name, node.source), (source.dims, var.dims))
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
        expr = var.payload
        # the formula's one walk: (name, node) for each Ref and Aggregate
        uses = list(iter_dependencies(expr)) if isinstance(expr, Expr) else []
        deps[var.name] = tuple(dict.fromkeys(name for name, _ in uses))
        kind_diag = _check_kind(var, uses)
        if kind_diag:
            errors.append(kind_diag)
            continue
        if not var.kind.carries_formula:
            continue
        # a bare reference applies no operator, so it has no operand to
        # hold against Rule 2; Rule 1 judges the whole formula instead
        for _, node in () if isinstance(expr, Ref) else uses:
            error, warning = _check_operand(node, var, model)
            if warning:
                warnings.append(warning)
            if error:
                errors.append(error)
                break
        else:
            inferred = _union_dims(uses, var, model)
            if inferred != var.dims:
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
        raise CheckFailure(sorted(
            errors + warnings,
            key=lambda d: (d.span.start_line if d.span else 0,
                           d.span.start_col if d.span else 0, d.code)))
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
    """One C-CYCLE diagnostic per cycle found among the unordered variables."""
    diags = []
    seen: set[str] = set()
    for var in model.variables:
        if var.name not in remaining or var.name in seen:
            continue
        cycle = _walk_cycle(var.name, deps, remaining)
        if not cycle or any(n in seen for n in cycle):
            seen.add(var.name)
            continue
        seen.update(cycle)
        path = " -> ".join(cycle + [cycle[0]])
        first = model.variable(cycle[0])
        diags.append(CheckDiagnostic(
            "error", "C-CYCLE", f"dependency cycle: {path}", first.span,
            tuple(cycle)))
    return diags


def _walk_cycle(start: str, deps, remaining: set) -> list[str] | None:
    """Follow in-cycle dependencies from start until a node repeats."""
    path = [start]
    positions = {start: 0}
    current = start
    while True:
        next_name = next((d for d in deps[current] if d in remaining), None)
        if next_name is None:
            return None
        if next_name in positions:
            return path[positions[next_name]:]
        positions[next_name] = len(path)
        path.append(next_name)
        current = next_name
