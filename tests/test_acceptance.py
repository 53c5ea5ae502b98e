"""Acceptance gate: nine criteria, one test (and one PASS/FAIL line) each.

Run with -s (or read the -v test lines) to see the per-criterion verdicts.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

from conftest import FIXTURES, load_checked, load_model
from dimcalc.checker import CheckFailure, check_model
from dimcalc.cli import main
from dimcalc.diagram import emit_dot
from dimcalc.evaluator import InputOverride, evaluate
from dimcalc.parser import parse_model, pretty_print
from dot_grammar import parse_dot
from helpers import broadcast_lookup
from oracles import oracle_acme, oracle_pricing


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


def rel_close(got, want, tol=1e-9):
    return math.isclose(got, want, rel_tol=tol, abs_tol=0.0)


def test_criterion_1_acme_integrity():
    with criterion(1, "Acme fixture integrity"):
        start = time.perf_counter()
        checked = load_checked("acme.dml")
        elapsed = time.perf_counter() - start
        model = checked.model
        counts = {d.name: len(d.instances) for d in model.dimensions}
        assert counts == {"Month": 12, "Sector": 4, "Product": 2, "Region": 5}
        assert len(model.variables) == 31
        assert main(["check", str(FIXTURES / "acme.dml")]) == 0
        assert elapsed < 1.0, f"check took {elapsed:.3f}s"


def test_criterion_2_rule_enforcement():
    expected = {
        "bad_rule1_overspan.dml": "R1-MISMATCH",
        "bad_rule1_underspan.dml": "R1-MISMATCH",
        "bad_rule2.dml": "R2-NOT-SUBSET",
        "bad_rule3.dml": "R3-NOT-SUPERSET",
        "bad_kind.dml": "K-KIND",
        "bad_cycle.dml": "C-CYCLE",
    }
    with criterion(2, "rule enforcement on negative fixtures"):
        for fixture, code in expected.items():
            try:
                check_model(load_model(fixture))
            except CheckFailure as err:
                codes = [d.code for d in err.diagnostics]
                assert codes == [code], f"{fixture}: {codes}"
            else:
                raise AssertionError(f"{fixture} unexpectedly checked clean")


def test_criterion_3_table_conservation(acme_checked):
    with criterion(3, "distribution tables sum to 1"):
        result = evaluate(acme_checked)
        model = acme_checked.model
        sectors = model.dimension("Sector").instances
        months = model.dimension("Month").instances
        regions = model.dimension("Region").instances
        products = model.dimension("Product").instances

        def cell(name, labels):
            tensor = result[name]
            return tensor.values[model.tensor_index(tensor.dims, labels)]

        for sector in sectors:
            monthly = sum(
                cell("Monthly_Sales_Distribution_per_Sector", (m, sector))
                for m in months)
            regional = sum(
                cell("Region_Sales_Distribution_per_Sector", (sector, r))
                for r in regions)
            product = sum(
                cell("Product_Distribution_per_Sector", (sector, p))
                for p in products)
            assert abs(monthly - 1.0) <= 1e-12, (sector, monthly)
            assert abs(regional - 1.0) <= 1e-12, (sector, regional)
            assert abs(product - 1.0) <= 1e-12, (sector, product)


ORACLE_VARIABLES = (
    "Sector_Price_Factor", "Sector_Base_Price", "Sector_Annual_Demand_Units",
    "Monthly_Unit_Sales", "MP_Sales_Amount", "Monthly_Profit", "Total_Profit",
)


def test_criterion_4_oracle_equivalence(acme_checked):
    with criterion(4, "oracle equivalence at Base_Price 50/100/150"):
        model = acme_checked.model
        for price in (50.0, 100.0, 150.0):
            result = evaluate(acme_checked,
                              [InputOverride("Base_Price", None, price)])
            expected = oracle_acme(price)
            for name in ORACLE_VARIABLES:
                tensor = result[name]
                for labels in model.instance_tuples(tensor.dims):
                    got = tensor.values[model.tensor_index(tensor.dims,
                                                           labels)]
                    want = expected[(name, labels)]
                    assert rel_close(got, want), (price, name, labels,
                                                  got, want)


def _sum_model_text(rng):
    months = [f"M{i:02d}" for i in range(1, 13)]
    products = ["Standard", "Deluxe"]
    regions = ["N", "SE", "SW", "E", "W"]
    entries = ", ".join(
        f"{m},{p},{r}: {rng.uniform(0.1, 10.0)!r}"
        for m, p, r in itertools.product(months, products, regions))
    return (
        f"dimension Month = [{', '.join(months)}]\n"
        f"dimension Product = [{', '.join(products)}]\n"
        f"dimension Region = [{', '.join(regions)}]\n"
        f"data T over (Month, Product, Region) = {{{entries}}}\n"
        "calc Direct over (Region) = SUM(T)\n"
        "calc Staged over (Month, Region) = SUM(T)\n"
        "calc Restaged over (Region) = SUM(Staged)\n")


def test_criterion_5_aggregation_path_equivalence(acme_checked):
    rng = random.Random(20260815)
    with criterion(5, "direct vs staged aggregation"):
        for _ in range(100):
            checked = check_model(parse_model(_sum_model_text(rng)))
            result = evaluate(checked)
            direct = result["Direct"].values
            restaged = result["Restaged"].values
            assert all(rel_close(d, s) for d, s in zip(direct, restaged))

        # three paths through Acme's own tree must conserve total units
        result = evaluate(acme_checked)
        total_mspr = sum(result["MSPR_Unit_Sales"].values)
        total_monthly = sum(result["Monthly_Unit_Sales"].values)
        total_annual = sum(result["Annual_Sector_Product_Unit_Sales"].values)
        assert rel_close(total_mspr, total_monthly)
        assert rel_close(total_monthly, total_annual)


def _broadcast_pair_text(rng, op):
    dims = {"P": ["P1", "P2", "P3"], "Q": ["Q1", "Q2"],
            "R": ["R1", "R2", "R3"], "S": ["S1", "S2"]}
    names = list(dims)
    size = rng.randint(1, 4)
    a_names = sorted(rng.sample(names, size), key=names.index)
    b_names = sorted(rng.sample(a_names, rng.randint(0, size - 1)),
                     key=names.index)

    def table(selected):
        if not selected:
            return repr(rng.uniform(0.5, 8.0))
        keys = itertools.product(*(dims[n] for n in selected))
        return "{" + ", ".join(
            f"{','.join(k)}: {rng.uniform(0.5, 8.0)!r}" for k in keys) + "}"

    decls = [f"dimension {n} = [{', '.join(v)}]" for n, v in dims.items()]
    a_over = f" over ({', '.join(a_names)})"
    b_over = f" over ({', '.join(b_names)})" if b_names else ""
    text = "\n".join(decls) + (
        f"\ndata A{a_over} = {table(a_names)}"
        f"\ndata B{b_over} = {table(b_names)}"
        f"\ncalc X{a_over} = A {op} B\n")
    return text, a_names, b_names


def test_criterion_6_broadcast_expansion_equivalence():
    rng = random.Random(42)
    ops = ["+", "-", "*", "/", "^"]
    with criterion(6, "broadcasting equals materialized expansion"):
        for index in range(100):
            op = ops[index % len(ops)]
            text, a_names, b_names = _broadcast_pair_text(rng, op)
            model = parse_model(text)
            narrow = evaluate(check_model(model))

            # materialize B as a full-dims table, then recompute
            a_dims = model.dim_set(a_names)
            b_tensor = narrow["B"]
            rows = ", ".join(
                f"{','.join(labels)}: "
                f"{broadcast_lookup(b_tensor, a_dims, labels, model)!r}"
                for labels in model.instance_tuples(a_dims))
            wide_text = "\n".join(
                line for line in text.splitlines()
                if not line.startswith("data B")) + "\n"
            wide_text = wide_text.replace(
                "calc X", f"data B over ({', '.join(a_names)}) = "
                          f"{{{rows}}}\ncalc X", 1)
            wide = evaluate(check_model(parse_model(wide_text)))
            assert wide["X"].values == narrow["X"].values, (op, text)


def test_criterion_7_pricing_fixture(pricing_checked):
    with criterion(7, "pricing fixture oracle"):
        model = pricing_checked.model
        assert len(model.variables) == 16
        result = evaluate(pricing_checked,
                          [InputOverride("Price", None, 200.0)])
        want = 376000 * math.pow(1.009, -200)
        assert rel_close(result["Total_Demand"].values[0], want)
        expected = oracle_pricing(200.0)
        assert rel_close(result["Total_Profit"].values[0],
                         expected[("Total_Profit", ())])


def test_criterion_8_round_trip_and_determinism(tmp_path):
    with criterion(8, "round-trip and byte determinism"):
        for fixture in ("acme.dml", "pricing.dml"):
            text = (FIXTURES / fixture).read_text(encoding="utf-8")
            model = parse_model(text, fixture)
            printed = pretty_print(model)
            reparsed = parse_model(printed, fixture)
            assert reparsed == model
            assert pretty_print(reparsed) == printed

        trees = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["eval", str(FIXTURES / "acme.dml"),
                         "--out-dir", str(out)]) == 0
            trees.append({p.name: p.read_bytes()
                          for p in sorted(out.iterdir())})
        assert trees[0] == trees[1]
        assert len(trees[0]) == 4

        for fixture, count in (("acme.dml", 31), ("pricing.dml", 16)):
            first = emit_dot(load_model(fixture))
            second = emit_dot(load_model(fixture))
            assert first == second
            graph = parse_dot(first)
            assert len(graph.nodes) == count


def test_criterion_9_performance(tmp_path):
    with criterion(9, "Acme check + eval + CSV under 100 ms"):
        start = time.perf_counter()
        checked = load_checked("acme.dml")
        result = evaluate(checked)
        model = checked.model
        from dimcalc.cli import _write_csv
        for var in model.variables:
            if var.kind.value == "output" and var.dims.names:
                _write_csv(tmp_path, var.name, result[var.name], model)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.100, f"pipeline took {elapsed * 1000:.1f} ms"
