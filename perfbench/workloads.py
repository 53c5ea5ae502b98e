"""The three benchmark workloads and the checks on their outputs.

Each op is a fixed list of `dimcalc.cli.main(argv)` calls. A workload
says which argv lists make op `i` and what a correct outcome is; the
expected values never come from dimcalc:

- acme_session: `tests/oracles.py::oracle_acme` and the DOT grammar in
  `tests/dot_grammar.py`, both written without engine code.
- dense_4d, many_vars: `reference.evaluate` on the generator's own spec.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import generate
import reference

REL_TOL = 1e-9


@dataclass
class Outcome:
    """What one op left behind: exit codes, captured streams, files."""

    codes: list  # one per call
    stdout: list  # one string per call
    stderr: str
    out_dir: Path
    error: str | None = None  # an exception that escaped main()

    def failure(self) -> str | None:
        if self.error or any(self.codes) or self.stderr:
            return (f"exit codes {self.codes}, error {self.error!r}, "
                    f"stderr {self.stderr[:200]!r}")
        return None

    def digest(self) -> str:
        h = hashlib.sha256()
        for part in (repr(self.codes), *self.stdout, self.stderr, repr(self.error)):
            h.update(part.encode() + b"\0")
        for path in sorted(self.out_dir.iterdir()):
            h.update(path.name.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(hashlib.file_digest(f, "sha256").digest())
        return h.hexdigest()


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _matches(text: str, value: float) -> bool:
    try:
        return math.isclose(float(text), value, rel_tol=REL_TOL, abs_tol=0.0)
    except ValueError:
        return False


def check_exports(out_dir: Path, stdout: str, expected: dict, csv_names,
                  scalar_names) -> list[str]:
    """Problems with one eval's exports, [] if none.

    `expected` maps (variable, labels) -> value, each variable's cells in
    row-major order, which is the order its CSV rows must follow.
    """
    problems = []
    cells: dict[str, list] = {}
    for (name, labels), value in expected.items():
        cells.setdefault(name, []).append((labels, value))
    present = sorted(p.name for p in out_dir.iterdir())
    if present != sorted(f"{n}.csv" for n in csv_names):
        problems.append(f"CSV files {present}, expected {sorted(csv_names)}")
    for name in csv_names:
        path = out_dir / f"{name}.csv"
        if not path.exists():
            continue
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        want = cells[name]
        if len(rows) != len(want) + 1 or rows[0][-1] != "value":
            problems.append(f"{name}.csv: {len(rows)} lines, header {rows[:1]}")
            continue
        for row, (labels, value) in zip(rows[1:], want):
            if not row or tuple(row[:-1]) != labels or not _matches(row[-1], value):
                problems.append(f"{name}.csv: row {row}, expected {labels} {value!r}")
                break
    printed = stdout.splitlines()
    want_lines = [f"{n} = " for n in scalar_names]
    if len(printed) != len(want_lines):
        problems.append(f"stdout has {len(printed)} lines, expected {len(want_lines)}")
    for line, prefix, name in zip(printed, want_lines, scalar_names):
        if not line.startswith(prefix) or not _matches(
                line[len(prefix):], expected[(name, ())]):
            problems.append(f"stdout {line!r}, expected {name} = "
                            f"{expected[(name, ())]!r}")
    return problems


class Workload:
    """Inputs and checks for one workload at one seed.

    `same_every_op` workloads run identical argv on every op, so an op is
    correct when its output digest equals that of a reference-checked op;
    the reference runs once, after the timed loop.
    """

    name = ""
    same_every_op = False

    def calls(self, i: int, out_dir: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, i: int, outcome: Outcome) -> list[str]:
        raise NotImplementedError


ACME_CHECK = """\
dimension Month: 12 instances
dimension Sector: 4 instances
dimension Product: 2 instances
dimension Region: 5 instances
31 variables, 4 dimensions, OK
"""
ACME_EXPLAIN = (
    "Calculated over (Month) = Monthly_Sales_Amount - Monthly_Costs; uses: "
    "Monthly_Sales_Amount, Monthly_Costs; used by: Total_Profit\n")
ACME_CSV = ("Monthly_Unit_Sales", "MPR_Unit_Sales", "MP_Unit_Sales", "MP_Sales_Amount")
ACME_SCALARS = ("Total_Profit",)


class AcmeSession(Workload):
    """The README quick-start on fixtures/acme.dml: check, eval, diagram, explain."""

    name = "acme_session"

    def __init__(self, root: Path, work: Path, seed: int):
        self.seed = seed
        self.model = root / "fixtures" / "acme.dml"
        self.oracles = _load(root / "tests" / "oracles.py", "perfbench_oracles")
        self.dot = _load(root / "tests" / "dot_grammar.py", "perfbench_dot_grammar")
        self.problems: list[str] = []

    def base_price(self, i: int) -> float:
        return round(random.Random(f"acme_session:{self.seed}:{i}").uniform(50, 150), 2)

    def calls(self, i, out_dir):
        model = str(self.model)
        return [["check", model],
                ["eval", model, "--set", f"Base_Price={self.base_price(i)!r}",
                 "--out-dir", str(out_dir)],
                ["diagram", model],
                ["explain", model, "Monthly_Profit"]]

    def check(self, i, outcome):
        failure = outcome.failure()
        if failure:
            return [failure]
        oracle = self.oracles.oracle_acme(self.base_price(i))
        checked, evaluated, dot_text, explained = outcome.stdout
        problems = []
        if checked != ACME_CHECK:
            problems.append(f"check printed {checked!r}")
        if explained != ACME_EXPLAIN:
            problems.append(f"explain printed {explained!r}")
        try:
            graph = self.dot.parse_dot(dot_text)
        except self.dot.DotSyntaxError as e:
            problems.append(f"diagram is not valid DOT: {e}")
        else:
            names = {name for name, _ in oracle}
            if graph.nodes != names or not graph.edges or not all(
                    a in names and b in names for a, b in graph.edges):
                problems.append(f"diagram nodes {sorted(graph.nodes ^ names)} "
                                f"differ from the model's variables")
        exported = {k: v for k, v in oracle.items() if k[0] in ACME_CSV + ACME_SCALARS}
        return problems + check_exports(outcome.out_dir, evaluated, exported,
                                        ACME_CSV, ACME_SCALARS)


class Generated(Workload):
    """A generated model evaluated once per op with the same argv."""

    same_every_op = True

    def __init__(self, root: Path, work: Path, seed: int):
        spec, self.overrides = self.build(seed)
        text = generate.to_dml(spec, f"{self.name}, seed {seed}")
        again, _ = self.build(seed)
        self.problems = []
        if generate.to_dml(again, f"{self.name}, seed {seed}") != text:
            self.problems.append("the same seed generated different model text")
        self.spec = spec
        self.model = work / f"{self.name}.dml"
        self.model.write_text(text, encoding="utf-8")

    def build(self, seed: int) -> tuple[generate.Spec, dict]:
        raise NotImplementedError

    def calls(self, i, out_dir):
        sets = [a for name, value in self.overrides.items()
                for a in ("--set", f"{name}={value!r}")]
        return [["eval", str(self.model), *sets, "--out-dir", str(out_dir)]]

    def check(self, i, outcome):
        failure = outcome.failure()
        if failure:
            return [failure]
        values = reference.evaluate(self.spec, self.overrides)
        outputs = [v for v in self.spec.declared if v.kind == "output"]
        expected = {(v.name, labels): value for v in outputs
                    for labels, value in values[v.name].items()}
        return check_exports(outcome.out_dir, outcome.stdout[0], expected,
                             [v.name for v in outputs if v.dims],
                             [v.name for v in outputs if not v.dims])


class Dense4D(Generated):
    name = "dense_4d"

    def build(self, seed):
        spec, growth = generate.dense_4d(seed)
        return spec, {"Growth": growth}


class ManyVars(Generated):
    name = "many_vars"

    def build(self, seed):
        return generate.many_vars(seed), {}


WORKLOADS = {w.name: w for w in (AcmeSession, Dense4D, ManyVars)}
