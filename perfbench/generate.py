"""Seeded model generators for the benchmark's synthetic workloads.

A generated model is a `Spec`: dimensions plus variables, each formula a
small tuple tree. `to_dml` renders it as `.dml` source, the only thing
dimcalc sees; `reference.evaluate` computes it without dimcalc.

Formula trees:
    ("ref", name)            a variable, broadcast over the target
    ("sum", name)            SUM(name) over the dimensions the target lacks
    ("lit", value)
    ("neg", tree)
    (op, left, right)        op in + - * / ^

Values stay bounded by construction: every data value of `many_vars`
lies in [1, 2] and every formula template maps operands in [1, 2] back
into [1, 2], however deep the chain. No seed is filtered out.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field


@dataclass
class Var:
    name: str
    kind: str  # input, data, calc or output
    dims: tuple[str, ...]  # in dimension declaration order
    table: dict | None = None  # labels -> value, for input and data
    formula: tuple | None = None
    positional: bool = False  # render a 1-D table as [v, ...]


@dataclass
class Spec:
    dimensions: list[tuple[str, tuple[str, ...]]]
    # dependency order: a formula names only variables listed before it
    variables: list[Var]
    # order of declarations in the .dml text, a permutation of variables
    declared: list[Var] = field(default_factory=list)

    def labels(self, dim: str) -> tuple[str, ...]:
        return dict(self.dimensions)[dim]

    def cells(self, dims) -> int:
        n = 1
        for d in dims:
            n *= len(self.labels(d))
        return n

    def tuples(self, dims):
        return itertools.product(*(self.labels(d) for d in dims))


def _num(value: float) -> str:
    return repr(float(value))


def _expr(tree) -> str:
    tag = tree[0]
    if tag == "ref":
        return tree[1]
    if tag == "sum":
        return f"SUM({tree[1]})"
    if tag == "lit":
        return _num(tree[1])
    if tag == "neg":
        return f"-{_operand(tree[1])}"
    return f"{_operand(tree[1])} {tag} {_operand(tree[2])}"


def _operand(tree) -> str:
    text = _expr(tree)
    return f"({text})" if tree[0] not in ("ref", "sum", "lit") else text


def _table(var: Var) -> str:
    if not var.dims:
        return _num(var.table[()])
    if var.positional:
        return "[" + ", ".join(_num(v) for v in var.table.values()) + "]"
    rows = [f"    {','.join(k)}: {_num(v)}," for k, v in var.table.items()]
    return "{\n" + "\n".join(rows) + "\n}"


def to_dml(spec: Spec, title: str) -> str:
    lines = [f"# {title}", ""]
    for name, labels in spec.dimensions:
        lines.append(f"dimension {name} = [{', '.join(labels)}]")
    lines.append("")
    for var in spec.declared:
        over = f" over ({', '.join(var.dims)})" if var.dims else ""
        body = _table(var) if var.formula is None else _expr(var.formula)
        lines.append(f"{var.kind} {var.name}{over} = {body}")
    return "\n".join(lines) + "\n"


def _table_values(spec: Spec, dims, rng: random.Random, lo: float, hi: float) -> dict:
    return {labels: round(rng.uniform(lo, hi), 4) for labels in spec.tuples(dims)}


# dense_4d: Acme's four dimensions, scaled so one 4-D tensor has 48,000
# cells. Sizes are fixed; the seed draws every data value and the
# Growth override.
DENSE_COUNTS = (("Month", "M", 12), ("Sector", "S", 10),
                ("Product", "P", 20), ("Region", "R", 20))


def dense_4d(seed: int, scale: float = 1.0) -> tuple[Spec, float]:
    """The dense_4d model and the value passed as --set Growth=...

    `scale` shrinks every dimension (the self-test uses a small one).
    """
    rng = random.Random(f"dense_4d:{seed}")
    dims = [(name, tuple(f"{prefix}{i:02d}" for i in range(1, max(2, round(n * scale)) + 1)))
            for name, prefix, n in DENSE_COUNTS]
    spec = Spec(dims, [])
    add = spec.variables.append
    M, S, P, R = "Month", "Sector", "Product", "Region"
    add(Var("Growth", "input", (), {(): round(rng.uniform(0.8, 1.2), 4)}))
    add(Var("Season", "data", (M,), _table_values(spec, (M,), rng, 0.5, 1.5), positional=True))
    add(Var("Price", "data", (P,), _table_values(spec, (P,), rng, 80, 150), positional=True))
    add(Var("Unit_Cost", "data", (P,), _table_values(spec, (P,), rng, 20, 40)))
    add(Var("Delivery", "data", (R,), _table_values(spec, (R,), rng, 5, 15)))
    add(Var("Share", "data", (S, P), _table_values(spec, (S, P), rng, 0.5, 1.5)))
    add(Var("Route", "data", (S, R), _table_values(spec, (S, R), rng, 0.5, 1.5)))
    add(Var("Margin", "calc", (P, R), formula=(
        "-", ("-", ("ref", "Price"), ("ref", "Unit_Cost")), ("ref", "Delivery"))))
    add(Var("Demand", "calc", (M, S, P), formula=(
        "*", ("ref", "Season"), ("^", ("ref", "Share"), ("ref", "Growth")))))
    add(Var("Units", "output", (M, S, P, R), formula=(
        "*", ("ref", "Demand"), ("ref", "Route"))))
    add(Var("Profit", "calc", (M, S, P, R), formula=(
        "*", ("ref", "Units"), ("ref", "Margin"))))
    add(Var("Profit_MPR", "output", (M, P, R), formula=("sum", "Profit")))
    add(Var("Profit_MS", "output", (M, S), formula=("sum", "Profit")))
    add(Var("Total_Profit", "output", (), formula=("sum", "Profit")))
    spec.declared = list(spec.variables)
    growth = round(rng.uniform(0.8, 1.2), 4)
    return spec, growth


# many_vars: about 1,000 small formula variables over at most three
# dimensions of 2, 3 and 4 instances. Operands in [1, 2] stay in [1, 2] under
# every template below.
def _mean(a, b):
    return ("/", ("+", a, b), ("lit", 2.0))


def _blend(a, b):
    return ("+", ("lit", 1.0), ("*", ("-", a, ("lit", 1.0)), ("-", b, ("lit", 1.0))))


def _weighted(a, b):
    return ("/", ("+", ("*", a, ("lit", 2.0)), b), ("lit", 3.0))


def _root(a, b):
    return _mean(("^", a, ("lit", 0.5)), b)


def _recip(a, b):
    return _mean(("/", ("lit", 2.0), a), b)


def _flip(a, b):
    return _mean(("+", ("neg", a), ("lit", 3.0)), b)


_TEMPLATES = (_mean, _blend, _weighted, _root, _recip, _flip)


def many_vars(seed: int, formulas: int = 1000) -> Spec:
    rng = random.Random(f"many_vars:{seed}")
    # sizes are fixed so that every seed does the same amount of work
    dims = [(name, tuple(f"{name.lower()}{i}" for i in range(count)))
            for name, count in (("X", 2), ("Y", 3), ("Z", 4))]
    spec = Spec(dims, [])
    names = [d for d, _ in dims]
    dim_sets = [tuple(c) for k in range(4) for c in itertools.combinations(names, k)]
    by_set = {ds: [] for ds in dim_sets}  # dims -> variables over exactly them
    dims_of: dict[str, tuple[str, ...]] = {}
    unused: set[str] = set()

    def add(var: Var) -> None:
        spec.variables.append(var)
        dims_of[var.name] = var.dims
        by_set[var.dims].append(var.name)
        if var.formula is not None:
            unused.add(var.name)

    for ds in dim_sets:
        for k in range(3):
            positional = len(ds) == 1 and k % 2 == 0
            add(Var(f"Data_{''.join(ds) or 'S'}_{k}", "data", ds,
                    _table_values(spec, ds, rng, 1, 2), positional=positional))

    def pick(candidates: list[str]) -> str:
        fresh = [c for c in candidates if c in unused]
        choice = rng.choice(fresh or candidates)
        unused.discard(choice)
        return choice

    def within(target) -> list[str]:
        return [n for ds in dim_sets if set(ds) <= set(target) for n in by_set[ds]]

    count = 0
    while count < formulas - 1:
        target = rng.choice(dim_sets)
        same = by_set[target]
        # mostly extend the latest chain over this set, which makes chains deep
        a = ("ref", same[-1] if rng.random() < 0.7 else pick(same))
        unused.discard(a[1])
        supersets = [n for ds in dim_sets if set(ds) > set(target) for n in by_set[ds]]
        if supersets and rng.random() < 0.25:
            source = pick(supersets)
            n = spec.cells(d for d in dims_of[source] if d not in target)
            b = ("/", ("sum", source), ("lit", float(n)))
        else:
            b = ("ref", pick(within(target)))
        count += 1
        add(Var(f"Var_{count:04d}", "calc", target, formula=rng.choice(_TEMPLATES)(a, b)))

    # fold every variable nothing uses yet into one scalar output, so a
    # wrong value anywhere reaches the exported result
    pending = sorted(unused)
    while len(pending) > 1:
        a, b = pending.pop(0), pending.pop(0)
        target = tuple(d for d in names if d in dims_of[a] or d in dims_of[b])
        count += 1
        name = f"Var_{count:04d}"
        add(Var(name, "calc", target, formula=_mean(("ref", a), ("ref", b))))
        pending.append(name)
    last = pending[0]
    if dims_of[last]:
        result = ("/", ("sum", last), ("lit", float(spec.cells(dims_of[last]))))
    else:
        result = _mean(("ref", last), ("ref", "Data_S_0"))
    add(Var("Result", "output", (), formula=result))

    spec.declared = list(spec.variables)
    rng.shuffle(spec.declared)
    return spec
