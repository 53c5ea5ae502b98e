import csv
import gc
import math
import random
import tracemalloc
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import load_checked
from dimcalc import evaluator
from dimcalc.checker import check_model
from dimcalc.evaluator import EvalError, InputOverride, evaluate
from dimcalc.model import (Aggregate, Binary, Dimension, DimensionSet,
                           Literal, Model, Ref, Tensor, Unary, ValueTable,
                           Variable, VariableKind)
from dimcalc.parser import parse_model
from helpers import broadcast_lookup, enumerate_dimension_sets, full_set
from synth import dense_model

GOLDEN = Path(__file__).resolve().parent / "golden" / "golden_values.csv"


def traced(call):
    """call()'s result, and the bytes tracemalloc counts as held once it
    returns and at its peak; the free lists are emptied first, so the
    reading is the same from run to run."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


def golden_cases():
    groups = {}
    with GOLDEN.open(newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            key = (row["fixture"], row["overrides"])
            groups.setdefault(key, []).append(row)
    return groups


def parse_override(text):
    name, _, value = text.partition("=")
    return InputOverride(name, None, float(value))


@pytest.mark.parametrize("key", sorted(golden_cases()))
def test_golden_values(key):
    fixture, overrides = key
    rows = golden_cases()[key]
    checked = load_checked(fixture)
    result = evaluate(checked, [parse_override(overrides)])
    for row in rows:
        labels = tuple(row["tuple"].split("|")) if row["tuple"] else ()
        tensor = result[row["variable"]]
        model = checked.model
        got = tensor.values[model.tensor_index(tensor.dims, labels)]
        want = float(row["value"])
        tolerance = float(row["tolerance"])
        assert got == pytest.approx(want, rel=tolerance), (
            f"{row['variable']}[{row['tuple']}]")


class TestBroadcastLookup:
    def test_projects_onto_subset(self, acme_checked):
        result = evaluate(acme_checked)
        model = acme_checked.model
        rebate = result["Rebate_Percentage"]
        target = model.dim_set(("Sector", "Product"))
        assert broadcast_lookup(rebate, target, ("Education", "Deluxe"),
                                model) == 0.70
        assert broadcast_lookup(rebate, target, ("Military", "Standard"),
                                model) == 0.20

    def test_scalar_broadcasts_everywhere(self, acme_checked):
        result = evaluate(acme_checked)
        model = acme_checked.model
        base = result["Base_Price"]
        target = full_set(model)
        for labels in list(model.instance_tuples(target))[:8]:
            assert broadcast_lookup(base, target, labels, model) == 100.0

    def test_identity_projection(self, acme_checked):
        result = evaluate(acme_checked)
        model = acme_checked.model
        tensor = result["Sector_Base_Price"]
        dims = model.dim_set(("Sector",))
        assert broadcast_lookup(tensor, dims, ("Government",), model) == 60.0


class TestErrors:
    def test_div_by_zero(self, acme_checked):
        with pytest.raises(EvalError) as info:
            evaluate(acme_checked, [InputOverride("Base_Price", None, 0.0)])
        err = info.value
        assert err.kind == "DIV-BY-ZERO"
        assert err.variable == "Sector_Annual_Demand_Units"
        assert err.labels == ("Government",)
        assert str(err).startswith("error[DIV-BY-ZERO]: "
                                   "Sector_Annual_Demand_Units[Government]")

    def test_domain_error(self):
        model = parse_model("input X = -2\ncalc Y = X ^ 0.5\n")
        with pytest.raises(EvalError) as info:
            evaluate(check_model(model))
        assert info.value.kind == "DOMAIN"
        assert info.value.variable == "Y"

    def test_non_finite_overflow(self):
        model = parse_model("input X = 1e300\ncalc Y = X * X\n")
        with pytest.raises(EvalError) as info:
            evaluate(check_model(model))
        assert info.value.kind == "NON-FINITE"

    def test_non_finite_power_overflow(self):
        model = parse_model("input X = 1e300\ncalc Y = X ^ 3\n")
        with pytest.raises(EvalError) as info:
            evaluate(check_model(model))
        assert info.value.kind == "NON-FINITE"

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("op", ["^", "+"])
    def test_non_finite_literal(self, op, value):
        # only a library model holds one: P-NUMBER refuses it in source
        dims = DimensionSet(("D",))
        model = Model((Dimension("D", ("a", "b")),), (
            Variable("X", VariableKind.DATA, dims, ValueTable((2, 3))),
            Variable("Y", VariableKind.OUTPUT, dims,
                     Binary(op, Ref("X"), Literal(value)))))
        with pytest.raises(EvalError) as info:
            evaluate(check_model(model))
        assert str(info.value) == (f"error[NON-FINITE]: Y[a]: literal "
                                   f"{value!r} is not finite")

    def test_missing_input(self, pricing_checked):
        with pytest.raises(EvalError) as info:
            evaluate(pricing_checked)
        err = info.value
        assert err.kind == "MISSING-INPUT"
        assert err.variable == "Price"
        assert err.labels == ()

    def test_missing_input_names_first_uncovered_cell(self):
        model = parse_model("dimension M = [Jan, Feb, Mar]\n"
                            "input X over (M)\n"
                            "calc Y over (M) = X * 2\n")
        checked = check_model(model)
        with pytest.raises(EvalError) as info:
            evaluate(checked, [InputOverride("X", ("Feb",), 1.0)])
        assert info.value.labels == ("Jan",)

    def test_missing_input_allocates_no_tensor(self):
        # a defaultless input over 1,000 x 1,000 cells; a list of every
        # cell alone would take 8 MB
        labels = tuple(f"i{k}" for k in range(1000))
        model = Model((Dimension("A", labels), Dimension("B", labels)), (
            Variable("X", VariableKind.INPUT, DimensionSet(("A", "B")), None),))
        checked = check_model(model)
        overrides = [InputOverride("X", ("i0", "i1"), 2.0)]
        info, _, peak = traced(
            lambda: pytest.raises(EvalError, evaluate, checked, overrides))
        assert (info.value.kind, info.value.labels) == (
            "MISSING-INPUT", ("i0", "i0"))
        assert peak < 1_000_000

    @pytest.mark.parametrize("first,second,kind,labels", [
        ("inf", None, "NON-FINITE", ("a",)),
        (None, "nan", "MISSING-INPUT", ("a",)),
        ("1", "nan", "NON-FINITE", ("b",)),
        ("1", "2", "MISSING-INPUT", ("c",)),
    ])
    def test_first_missing_or_non_finite_cell_wins(self, first, second, kind,
                                                   labels):
        model = parse_model("dimension D = [a, b, c]\ninput X over (D)\n")
        overrides = [InputOverride("X", (label,), float(value))
                     for label, value in (("a", first), ("b", second))
                     if value is not None]
        with pytest.raises(EvalError) as info:
            evaluate(check_model(model), overrides)
        assert (info.value.kind, info.value.labels) == (kind, labels)

    @pytest.mark.parametrize("source,address,labels", [
        ('dimension D = ["a,b"]\ninput "x y" over (D)\n', '"x y"["a,b"]',
         ("a,b",)),
        ('dimension D = ["q\\"r", "SUM"]\ninput Y over (D)\n', 'Y["q\\"r"]',
         ('q"r',)),
        ('input "x y"\n', '"x y"', ()),
    ])
    def test_address_quotes_names_and_keeps_labels_raw(self, source, address,
                                                       labels):
        with pytest.raises(EvalError) as info:
            evaluate(check_model(parse_model(source)))
        assert str(info.value) == (f"error[MISSING-INPUT]: {address}: no "
                                   f"declared value and no override for "
                                   f"this cell")
        assert info.value.labels == labels

    def test_error_reports_first_cell_in_canonical_order(self):
        model = parse_model(
            "dimension M = [Jan, Feb]\n"
            "data D over (M) = {Jan: 1, Feb: 0}\n"
            "calc Y over (M) = 1 / D\n")
        with pytest.raises(EvalError) as info:
            evaluate(check_model(model))
        assert info.value.labels == ("Feb",)


class TestErrorOrder:
    """Which cell and which node an EvalError names, and SUM's exact fold."""

    TABLES = ("dimension M = [a, b, c]\n"
              "data D over (M) = {a: 1, b: 0, c: 1}\n"
              "data E over (M) = {a: -1, b: 1, c: 1}\n"
              "data X over (M) = {a: 1, b: 1e10, c: 1}\n")

    def error_text(self, formula):
        model = parse_model(self.TABLES + f"calc Y over (M) = {formula}\n")
        with pytest.raises(EvalError) as info:
            evaluate(check_model(model))
        return str(info.value)

    def test_first_cell_wins_over_node_order(self):
        # the division fails at b, the later power already at a
        assert (self.error_text("1 / D + E ^ 0.5")
                == "error[DOMAIN]: Y[a]: -1.0 ^ 0.5 is undefined")

    def test_left_node_wins_at_the_same_cell(self):
        assert (self.error_text("1 / D + (D - 1) ^ 0.5")
                == "error[DIV-BY-ZERO]: Y[b]: 1.0 / 0")

    def test_hidden_intermediate_overflow_fails(self):
        # 1 / inf would be a finite 0.0; the product must fail first
        assert (self.error_text("1 / (X * 1e300)")
                == "error[NON-FINITE]: Y[b]: multiplication overflows")

    def test_sum_overflow_names_the_source(self):
        model = parse_model("dimension M = [a, b]\n"
                            "data X over (M) = {a: 1e308, b: 1e308}\n"
                            "output Y = SUM(X) * 0\n")
        with pytest.raises(EvalError) as info:
            evaluate(check_model(model))
        assert str(info.value) == "error[NON-FINITE]: Y: SUM(X) overflows"

    def test_sum_is_a_sequential_left_fold(self):
        # compensated summation, as in sum() from Python 3.12, gives 1.0
        model = parse_model("dimension M = [a, b, c]\n"
                            "data X over (M) = {a: 1e16, b: 1, c: -1e16}\n"
                            "output Y = SUM(X) * 1\n")
        assert evaluate(check_model(model))["Y"].values == array("d", [0.0])


class TestOverrides:
    def test_unknown_name(self, acme_checked):
        with pytest.raises(ValueError):
            evaluate(acme_checked, [InputOverride("Nope", None, 1.0)])

    def test_non_input_rejected(self, acme_checked):
        with pytest.raises(ValueError):
            evaluate(acme_checked,
                     [InputOverride("Monthly_Fixed_Cost", None, 1.0)])

    def test_calc_rejected(self, acme_checked):
        with pytest.raises(ValueError):
            evaluate(acme_checked,
                     [InputOverride("Sector_Base_Price", None, 1.0)])

    def test_dimensionless_override_needs_no_labels(self, acme_checked):
        result = evaluate(acme_checked,
                          [InputOverride("Base_Price", None, 120.0)])
        assert result["Base_Price"].values == array("d", [120.0])

    def test_missing_labels_for_dimensioned_input(self):
        model = parse_model("dimension M = [Jan]\ninput X over (M)\n"
                            "calc Y over (M) = X + 1\n")
        checked = check_model(model)
        with pytest.raises(ValueError):
            evaluate(checked, [InputOverride("X", None, 1.0)])

    def test_bad_labels_rejected(self):
        model = parse_model("dimension M = [Jan]\ninput X over (M)\n"
                            "calc Y over (M) = X + 1\n")
        checked = check_model(model)
        with pytest.raises(Exception):
            evaluate(checked, [InputOverride("X", ("Nope",), 1.0)])

    def test_per_cell_override(self):
        model = parse_model("dimension M = [Jan, Feb]\n"
                            "input X over (M) = {Jan: 1, Feb: 2}\n"
                            "calc Y over (M) = X * 10\n")
        checked = check_model(model)
        result = evaluate(checked, [InputOverride("X", ("Feb",), 5.0)])
        assert result["Y"].values == array("d", [10.0, 50.0])

    def test_no_values_are_shared_and_overrides_copied(self):
        checked = check_model(parse_model(
            "dimension M = [Jan, Feb]\n"
            "input X over (M) = {Jan: 1, Feb: 2}\n"
            "data D over (M) = [3, 4]\n"
            "calc Y over (M) = X * D\n"
            "output Z over (M) = Y\n"))
        tables = {name: checked.model.variable(name).payload.values
                  for name in ("X", "D")}
        results = [evaluate(checked),
                   evaluate(checked, [InputOverride("X", ("Feb",), 5.0)])]
        assert results[1]["X"].values == array("d", [1.0, 5.0])
        # an override never writes the model's table
        assert tables == {"X": (1.0, 2.0), "D": (3.0, 4.0)}
        arrays = [t.values for r in results for t in r.tensors.values()]
        assert len({id(v) for v in [*arrays, *tables.values()]}) == 10
        assert all(type(v) is array for v in arrays)
        # writing into one array changes no other, nor any table
        for written in arrays:
            others = [list(v) for v in arrays if v is not written]
            written[0] += 1.0
            assert [list(v) for v in arrays if v is not written] == others
            assert tables == {"X": (1.0, 2.0), "D": (3.0, 4.0)}
        assert evaluate(checked)["X"].values == array("d", [1.0, 2.0])

    def test_default_equals_explicit_default(self, acme_checked):
        plain = evaluate(acme_checked)
        explicit = evaluate(acme_checked,
                            [InputOverride("Base_Price", None, 100.0)])
        for name in plain.order:
            assert plain[name].values == explicit[name].values


class TestDeterminism:
    def test_bit_identical_across_runs(self, acme_checked):
        first = evaluate(acme_checked)
        second = evaluate(acme_checked)
        for name in first.order:
            assert first[name].values == second[name].values

    def test_bit_identical_across_fresh_models(self):
        values = []
        for _ in range(2):
            checked = load_checked("acme.dml")
            result = evaluate(checked)
            values.append({name: result[name].values
                           for name in result.order})
        assert values[0] == values[1]


def test_demand_decreases_as_price_increases(acme_checked):
    model = acme_checked.model
    sectors = model.dimension("Sector").instances
    previous = None
    for price in (50.0, 80.0, 100.0, 130.0, 160.0):
        result = evaluate(acme_checked,
                          [InputOverride("Base_Price", None, price)])
        demand = result["Sector_Annual_Demand_Units"].values
        if previous is not None:
            assert all(d < p for d, p in zip(demand, previous)), sectors
        previous = demand


def test_block_broadcast_is_the_whole_broadcast_sliced():
    # every source within every target over four dimensions, one of 1
    # label, and every range of the target's cells: a block's broadcast
    # builds only its cells, and they are the whole broadcast's
    model = Model(tuple(
        Dimension(n, tuple(f"{n.lower()}{i}" for i in range(c)))
        for n, c in zip("ABCD", (3, 2, 1, 4))), ())
    shapes = evaluator._Shapes(model)
    sets = enumerate_dimension_sets(model)
    cases = 0
    for target in sets:
        size = model.tensor_size(target)
        for source in (s for s in sets if set(s.names) <= set(target.names)):
            vals = array("d", range(model.tensor_size(source)))
            whole = list(shapes.broadcast(vals, source, target, 0, size))
            assert whole == [
                broadcast_lookup(Tensor(source, vals), target, labels, model)
                for labels in model.instance_tuples(target)]
            for lo in range(size):
                for hi in range(lo + 1, size + 1):
                    assert list(shapes.broadcast(
                        vals, source, target, lo, hi)) == whole[lo:hi], (
                        source, target, lo, hi)
                    cases += 1
    assert cases == 8_937


def test_evaluate_holds_each_tensor_once():
    # every finished tensor is one array of 8 bytes a cell, its own copy
    # even of a data table; here the peak read 21.74 bytes a cell on Python
    # 3.11-3.13 and 22.24 on 3.10. With each reference broadcast over the
    # whole target first it read 28.76 (29.16), with each 4,800-cell
    # formula computed whole 33.46 (33.83), and with a tuple of floats a
    # tensor 48.08-48.51. The retained bytes of so small a model are mostly
    # interpreter residue, so the next test bounds them on a larger one
    checked = check_model(parse_model(dense_model(1, (8, 6, 10, 10))))
    result, _, peak = traced(lambda: evaluate(checked))
    cells = sum(len(tensor.values) for tensor in result.tensors.values())
    assert cells == 16_828
    assert peak / cells < 29.5


def test_evaluate_peak_stays_near_retained():
    # each 48,000-cell formula runs in blocks of at most 4,096 cells, and a
    # block broadcasts and sums only its own cells, so no list of computed
    # floats, 32 bytes a cell, and no list slot a cell spans its target:
    # the peak read 1.27 times the retained bytes on Python 3.10-3.13,
    # 2.16 with each reference broadcast over the whole target first, and
    # 4.26-4.29 with each formula computed whole. The arrays themselves
    # hold 8 bytes a cell, and all retained bytes read 8.12-8.13 a cell
    checked = check_model(parse_model(dense_model(1, (12, 10, 20, 20))))
    result, retained, peak = traced(lambda: evaluate(checked))
    cells = sum(len(tensor.values) for tensor in result.tensors.values())
    assert len(result["Profit"].values) == 48_000
    assert cells == 156_914
    assert retained / cells < 8.2
    assert peak < 1.5 * retained


@pytest.mark.parametrize("counts,size", [
    ((12, 10, 20, 20), 156_914), ((24, 10, 20, 20), 308_966)],
    ids=["156914_cells", "308966_cells"])
def test_evaluate_working_memory_does_not_grow(counts, size):
    # a formula's working lists span one block, whatever its target's
    # size, so the peak beyond the finished arrays stays put as the model
    # doubles: 0.35 and 0.34 MB on Python 3.10-3.13, where one list over
    # the whole target for each reference broadcast read 1.47 and 2.48 MB
    checked = check_model(parse_model(dense_model(1, counts)))
    result, retained, peak = traced(lambda: evaluate(checked))
    assert sum(len(t.values) for t in result.tensors.values()) == size
    assert peak - retained < 600_000


@pytest.mark.parametrize("n", [25_000, 100_000])
@pytest.mark.parametrize("target", [("A", "C"), ("B",)],
                         ids=["summed_between", "kept_between"])
def test_sum_working_memory_does_not_grow(target, n):
    # X over (A, B, C) of n x 2 x 2 cells: SUM(X) over (A, C) reads runs of
    # 2 cells, and over (B) runs of 2 terms, one run for every label of A.
    # A block computes its own starts, so the peak beyond the finished
    # arrays stays put as n grows: 0.27-0.28 and 0.12 MiB on Python 3.11.
    # One start kept for every run of cells read 1.12 and 3.97 MiB over
    # (A, C), and one for every run of terms 3.93 and 15.91 MiB over (B),
    # at n = 25,000 and 100,000
    dims = tuple(Dimension(d, tuple(f"{d.lower()}{i}" for i in range(c)))
                 for d, c in (("A", n), ("B", 2), ("C", 2)))
    rng = random.Random(n)
    table = ValueTable(tuple(rng.uniform(-1e3, 1e3) for _ in range(4 * n)))
    checked = check_model(Model(dims, (
        Variable("X", VariableKind.DATA, DimensionSet(("A", "B", "C")), table),
        Variable("Y", VariableKind.OUTPUT, DimensionSet(target),
                 Aggregate("X")))))
    result, retained, peak = traced(lambda: evaluate(checked))
    # reference_evaluate's fold, source cell by source cell: it scans the
    # whole source for every cell, too long at this size
    kept = target == ("A", "C")
    want = [0.0] * (2 * n if kept else 2)
    for i, value in enumerate(table.values):
        want[i // 4 * 2 + i % 2 if kept else i // 2 % 2] += value
    assert [v.hex() for v in result["Y"].values] == [v.hex() for v in want]
    assert peak - retained < 500_000


def test_block_sums_match_reference_evaluate():
    # every SUM of a source over dimensions of 3, 2, 1 and 4 labels to
    # each smaller set, at every block size from 1 to the target's cells:
    # a block sums only its own cells, and a cell reads its terms at most
    # a block at a time. The values mix 1e16 with small ones, so a term
    # added out of order or a block edge shifted by one changes the bits
    model = Model(tuple(
        Dimension(n, tuple(f"{n.lower()}{i}" for i in range(c)))
        for n, c in zip("ABCD", (3, 2, 1, 4))), ())
    rng = random.Random(7)
    sets = enumerate_dimension_sets(model)
    cases = 0
    for source in sets:
        table = ValueTable(tuple(
            rng.choice((1e16, -1e16, 1.0, 0.5, -3.0, 0.1))
            for _ in range(model.tensor_size(source))))
        for target in (t for t in sets
                       if set(t.names) < set(source.names)):
            checked = check_model(Model(model.dimensions, (
                Variable("X", VariableKind.DATA, source, table),
                Variable("Y", VariableKind.OUTPUT, target, Aggregate("X")))))
            want = [v.hex() for v in reference_evaluate(checked)["Y"]]
            for block in range(1, model.tensor_size(target) + 1):
                with mock.patch.object(evaluator, "_BLOCK", block):
                    assert [v.hex() for v in evaluate(checked)["Y"].values
                            ] == want, (source, target, block)
                cases += 1
    assert cases == 240


@pytest.mark.parametrize("counts,target", [
    ({"M": 12, "S": 10, "P": 20, "R": 20}, ()),
    ({"A": 24_000, "D": 2}, ("D",)),
], ids=["trailing", "leading"])
def test_sum_keeps_no_index_list(counts, target):
    # a SUM reads runs of source cells one stride apart, so it needs no
    # list of one index per source cell, whichever dimensions it sums, and
    # a cell reads its terms in pieces of at most 4,096. The peak is X's
    # 0.38 MB array and one piece: it read 0.42 MB on Python 3.10-3.13 for
    # the sum of all 48,000 cells of X and for 24,000 x 2 cells summed to
    # the trailing (D). A cell's whole run of terms in one slice read 0.77
    # and 0.58 MB, and a list of one index per summed cell of the leading
    # A 2.97-3.26 MB
    dims = tuple(Dimension(n, tuple(f"{n.lower()}{i}" for i in range(c)))
                 for n, c in counts.items())
    rng = random.Random(1)
    table = ValueTable(tuple(rng.uniform(-1e3, 1e3)
                             for _ in range(math.prod(counts.values()))))
    checked = check_model(Model(dims, (
        Variable("X", VariableKind.DATA, DimensionSet(tuple(counts)), table),
        Variable("Total", VariableKind.OUTPUT, DimensionSet(target),
                 Aggregate("X")))))
    result, _, peak = traced(lambda: evaluate(checked))
    assert [v.hex() for v in result["Total"].values] == [
        v.hex() for v in reference_evaluate(checked)["Total"]]
    assert peak < 500_000


numbers = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@st.composite
def scalar_exprs(draw, depth=3):
    """(text, value, has_ref) triples; a constant expression has no refs."""
    if depth == 0:
        return draw(st.one_of(
            numbers.map(lambda v: (str(v), v, False)),
            st.sampled_from([("a", 2.5, True), ("b", -1.25, True),
                             ("c", 4.0, True)])))
    left_text, left_value, left_ref = draw(scalar_exprs(depth=depth - 1))
    right_text, right_value, right_ref = draw(scalar_exprs(depth=depth - 1))
    op = draw(st.sampled_from("+-*"))
    value = {"+": left_value + right_value,
             "-": left_value - right_value,
             "*": left_value * right_value}[op]
    return f"({left_text} {op} {right_text})", value, left_ref or right_ref


@given(scalar_exprs())
@settings(max_examples=150)
def test_scalar_expressions_match_direct_arithmetic(case):
    text, expected, has_ref = case
    # a calc with no references is a constant, which the checker rejects
    expr = f"({text} * a) / a" if not has_ref else text
    expected = (expected * 2.5) / 2.5 if not has_ref else expected
    model = parse_model(
        f"input a = 2.5\ninput b = -1.25\ninput c = 4\ncalc X = {expr}\n")
    result = evaluate(check_model(model))
    assert result["X"].values[0] == expected


# A per-cell reference evaluator: every cell walks the formula on its own,
# left operand first, and stops at the first failing node. It defines the
# values and the EvalError (kind, cell, detail) that `evaluate` must give.
class CellFailure(Exception):
    """args: (kind, detail)"""


def reference_value(node, model, values, cell):
    """`cell` maps dimension name -> label; returns a float or raises."""
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Ref):
        var = model.variable(node.name)
        labels = tuple(cell[d] for d in var.dims)
        return values[node.name][model.tensor_index(var.dims, labels)]
    if isinstance(node, Unary):
        return -reference_value(node.operand, model, values, cell)
    if isinstance(node, Aggregate):
        var = model.variable(node.source)
        total = 0.0
        for labels in model.instance_tuples(var.dims):
            if all(cell.get(d, l) == l for d, l in zip(var.dims, labels)):
                total += values[node.source][model.tensor_index(var.dims,
                                                                labels)]
        if not math.isfinite(total):
            raise CellFailure("NON-FINITE", f"SUM({node.source}) overflows")
        return total
    a = reference_value(node.left, model, values, cell)
    b = reference_value(node.right, model, values, cell)
    if node.op == "^":
        try:
            return math.pow(a, b)
        except ValueError:
            raise CellFailure("DOMAIN", f"{a} ^ {b} is undefined") from None
        except OverflowError:
            raise CellFailure("NON-FINITE", f"{a} ^ {b} overflows") from None
    if node.op == "+":
        r, name = a + b, "addition"
    elif node.op == "-":
        r, name = a - b, "subtraction"
    elif node.op == "*":
        r, name = a * b, "multiplication"
    elif b == 0:
        raise CellFailure("DIV-BY-ZERO", f"{a} / 0")
    else:
        r, name = a / b, "division"
    if not math.isfinite(r):
        raise CellFailure("NON-FINITE", f"{name} overflows")
    return r


def reference_evaluate(checked):
    """{name: values}, or (kind, name, labels, detail) of the first error."""
    model = checked.model
    values = {}
    for name in checked.order:
        var = model.variable(name)
        if not var.kind.carries_formula:
            values[name] = var.payload.values
            continue
        out = []
        for labels in model.instance_tuples(var.dims):
            try:
                out.append(reference_value(var.payload, model, values,
                                           dict(zip(var.dims, labels))))
            except CellFailure as e:
                return (e.args[0], name, labels, e.args[1])
        values[name] = out
    return values


def assert_matches_reference(checked):
    """evaluate gives reference_evaluate's bits, or its first bad cell."""
    want = reference_evaluate(checked)
    try:
        result = evaluate(checked)
    except EvalError as e:
        assert (e.kind, e.variable, e.labels, e.detail) == want
        return
    assert isinstance(want, dict), want
    for name, vals in want.items():
        assert [v.hex() for v in result[name].values] == [
            float(v).hex() for v in vals]


RISKY = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0, 1e-300,
                         1e300, -1e300, 1e16, 7.25])
# the operands a formula over each target may use (Rule 2), and one that
# spans the target (Rule 1)
OPERANDS = {
    (): (["Z", "SUM(X)", "SUM(W)", "SUM(Y)"], "SUM(Y)"),
    ("A",): (["Z", "X", "SUM(Y)"], "X"),
    ("B",): (["Z", "W", "SUM(Y)"], "W"),
    ("A", "B"): (["Z", "X", "W", "Y"], "Y"),
}


@st.composite
def risky_models(draw):
    def table(dims):
        cells = [()]
        for d in dims:
            cells = [c + (l,) for c in cells
                     for l in {"A": ("a0", "a1", "a2"), "B": ("b0", "b1")}[d]]
        return "{" + ", ".join(f"{','.join(c)}: {draw(RISKY)!r}"
                               for c in cells) + "}"

    target = draw(st.sampled_from(sorted(OPERANDS)))
    leaves, anchor = OPERANDS[target]
    leaf = st.one_of(st.sampled_from(leaves),
                     RISKY.map(lambda v: f"({v!r})"))
    expr = st.recursive(
        leaf, lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/^"), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"),
            inner.map(lambda e: f"-{e}")),
        max_leaves=6)
    formula = draw(st.tuples(expr, st.sampled_from("+-*/^"), st.booleans()))
    body, op, anchor_first = formula
    text = f"{anchor} {op} {body}" if anchor_first else f"{body} {op} {anchor}"
    over = f" over ({', '.join(target)})" if target else ""
    return ("dimension A = [a0, a1, a2]\ndimension B = [b0, b1]\n"
            f"data Z = {draw(RISKY)!r}\n"
            f"data X over (A) = {table(('A',))}\n"
            f"data W over (B) = {table(('B',))}\n"
            f"data Y over (A, B) = {table(('A', 'B'))}\n"
            f"calc V{over} = {text}\n")


@given(risky_models())
# 300 examples, or the profile's count when more (5,000 under deep)
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_matches_per_cell_reference(source):
    assert_matches_reference(check_model(parse_model(source)))


@st.composite
def layered_models(draw):
    """0-3 dimensions of 1-3 labels, a data table over every subset of
    them, and a chain of 2-4 formulas that checks clean: each broadcasts
    tables and earlier formulas over any dimensions it lacks, sums over
    any it has (an earlier SUM too), and mixes in RISKY literals."""
    labels = {d: [f"{d.lower()}{i}" for i in range(draw(st.integers(1, 3)))]
              for d in "ABC"[:draw(st.integers(0, 3))]}
    lines = [f"dimension {d} = [{', '.join(ls)}]" for d, ls in labels.items()]
    spans = {}  # variable -> its dimensions, in declaration order

    def declare(kind, name, dims, body):
        over = f" over ({', '.join(dims)})" if dims else ""
        lines.append(f"{kind} {name}{over} = {body}")
        spans[name] = dims

    def expr(leaves, depth=2):
        shape = draw(st.integers(0, 2 if depth else 0))
        if shape == 0:  # a variable, three times in four, or a literal
            return (draw(st.sampled_from(leaves)) if draw(st.integers(0, 3))
                    else f"({draw(RISKY)!r})")
        if shape == 1:
            return f"-{expr(leaves, depth - 1)}"
        return (f"({expr(leaves, depth - 1)} {draw(st.sampled_from('+-*/^'))}"
                f" {expr(leaves, depth - 1)})")

    for k in range(2 ** len(labels)):
        dims = "".join(d for i, d in enumerate(labels) if k >> i & 1)
        cells = [()]
        for d in dims:
            cells = [c + (label,) for c in cells for label in labels[d]]
        values = [repr(draw(RISKY)) for _ in cells]
        table = ", ".join(f"{','.join(c)}: {v}"
                          for c, v in zip(cells, values))
        declare("data", f"X{dims}", dims,
                f"{{{table}}}" if dims else values[0])
    for k in range(draw(st.integers(2, 4))):
        target = "".join(d for d in labels if draw(st.integers(0, 3)))
        # a SUM spans the target; a reference spans its own dimensions
        sums = [f"SUM({n})" for n, s in spans.items() if set(target) <= set(s)]
        text = draw(st.sampled_from(
            sums + [n for n, s in spans.items() if s == target]))
        if draw(st.integers(0, 3)):
            rest = expr(sums + [n for n, s in spans.items()
                                if set(s) <= set(target)])
            op = draw(st.sampled_from("+-*/^"))
            text = (f"{text} {op} {rest}" if draw(st.booleans())
                    else f"{rest} {op} {text}")
        declare("calc", f"F{k}", target, text)
    return "\n".join(lines) + "\n"


@given(layered_models())
# more target cells than terms, so SUM adds one term to every cell at a
# time; each cell must still fold in order (1 + 1e16 - 1e16 is 0.0)
@example("dimension A = [a0, a1, a2, a3]\ndimension B = [b0, b1, b2]\n"
         "data X over (A, B) = {a0,b0: 1, a0,b1: 1e16, a0,b2: -1e16, a1,b0: 0,"
         " a1,b1: 0, a1,b2: 0, a2,b0: 0, a2,b1: 0, a2,b2: 0, a3,b0: 0,"
         " a3,b1: 0, a3,b2: 0}\ncalc F0 over (A) = SUM(X)\n")
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_random_layouts_match_per_cell_reference(source):
    assert_matches_reference(check_model(parse_model(source)))


@st.composite
def four_dimension_models(draw):
    """Dimensions A, B, C and D of 1-4 labels and RISKY tables. F lacks D
    in one operand, C and D in another, B between shared dimensions in a
    third, and A and C in a fourth. G sums F's middle dimension B in runs
    over C and D, which a zero of XCD can fail inside; H sums G's leading
    A and keeps C and D, and Y sums F's leading A and keeps B, C and D.
    K and L sum F to (A, C) and to (B, D), so kept and summed dimensions
    interleave."""
    labels = {d: [f"{d.lower()}{i}" for i in range(draw(st.integers(1, 4)))]
              for d in "ABCD"}
    lines = [f"dimension {d} = [{', '.join(ls)}]" for d, ls in labels.items()]
    lines.append(f"data Z = {draw(RISKY)!r}")
    for dims in ("ABC", "AB", "ACD", "BD", "CD"):
        cells = [()]
        for d in dims:
            cells = [c + (label,) for c in cells for label in labels[d]]
        table = ", ".join(f"{','.join(c)}: {draw(RISKY)!r}" for c in cells)
        lines.append(f"data X{dims} over ({', '.join(dims)}) = {{{table}}}")
    ops = iter(draw(st.lists(st.sampled_from("+-*/^"), min_size=8,
                             max_size=8)))
    lines += [
        f"calc F over (A, B, C, D) = (XABC {next(ops)} XAB) {next(ops)} "
        f"(XACD {next(ops)} XBD)",
        f"calc G over (A, C, D) = SUM(F) {next(ops)} XCD",
        f"calc H over (C, D) = XCD {next(ops)} SUM(G)",
        f"output Y over (B, C, D) = SUM(F) {next(ops)} Z",
        f"calc K over (A, C) = SUM(F) {next(ops)} Z",
        f"output L over (B, D) = XBD {next(ops)} SUM(F)",
    ]
    return "\n".join(lines) + "\n"


@given(four_dimension_models())
# every SUM adds runs of -0.0 terms, and folds them from 0.0 to 0.0
@example("dimension A = [a0]\ndimension B = [b0, b1]\ndimension C = [c0]\n"
         "dimension D = [d0, d1]\ndata Z = 1.0\n"
         "data XABC over (A, B, C) = {a0,b0,c0: -0.0, a0,b1,c0: -0.0}\n"
         "data XAB over (A, B) = {a0,b0: 1.0, a0,b1: 1.0}\n"
         "data XACD over (A, C, D) = {a0,c0,d0: -0.0, a0,c0,d1: -0.0}\n"
         "data XBD over (B, D) = {b0,d0: 1.0, b0,d1: 1.0, b1,d0: 1.0,"
         " b1,d1: 1.0}\n"
         "data XCD over (C, D) = {c0,d0: 1.0, c0,d1: 1.0}\n"
         "calc F over (A, B, C, D) = (XABC * XAB) + (XACD * XBD)\n"
         "calc G over (A, C, D) = SUM(F) * XCD\n"
         "calc H over (C, D) = XCD * SUM(G)\n"
         "output Y over (B, C, D) = SUM(F) * Z\n")
# the first bad cell, G at a0,c1,d0, is inside G's first run of four
# cells, so the reruns that find it split that run
@example("dimension A = [a0, a1]\ndimension B = [b0, b1]\n"
         "dimension C = [c0, c1]\ndimension D = [d0, d1]\ndata Z = 1.0\n"
         "data XABC over (A, B, C) = {a0,b0,c0: 1.0, a0,b0,c1: 2.0,"
         " a0,b1,c0: 3.0, a0,b1,c1: 4.0, a1,b0,c0: 5.0, a1,b0,c1: 6.0,"
         " a1,b1,c0: 7.0, a1,b1,c1: 8.0}\n"
         "data XAB over (A, B) = {a0,b0: 1.0, a0,b1: 1.0, a1,b0: 1.0,"
         " a1,b1: 1.0}\n"
         "data XACD over (A, C, D) = {a0,c0,d0: 1.0, a0,c0,d1: 1.0,"
         " a0,c1,d0: 1.0, a0,c1,d1: 1.0, a1,c0,d0: 1.0, a1,c0,d1: 1.0,"
         " a1,c1,d0: 1.0, a1,c1,d1: 1.0}\n"
         "data XBD over (B, D) = {b0,d0: 1.0, b0,d1: 2.0, b1,d0: 3.0,"
         " b1,d1: 4.0}\n"
         "data XCD over (C, D) = {c0,d0: 1.0, c0,d1: 2.0, c1,d0: 0.0,"
         " c1,d1: 4.0}\n"
         "calc F over (A, B, C, D) = (XABC * XAB) + (XACD * XBD)\n"
         "calc G over (A, C, D) = SUM(F) / XCD\n"
         "calc H over (C, D) = XCD - SUM(G)\n"
         "output Y over (B, C, D) = SUM(F) + Z\n")
# the 1-label B sits between the kept A and C of K, and between the summed
# A and C of L, so each joins one run; 1e16 terms make the fold order show
@example("dimension A = [a0, a1]\ndimension B = [b0]\n"
         "dimension C = [c0, c1, c2]\ndimension D = [d0, d1]\ndata Z = 1.0\n"
         "data XABC over (A, B, C) = {a0,b0,c0: 1e16, a0,b0,c1: 1.0,"
         " a0,b0,c2: 1.0, a1,b0,c0: -1e16, a1,b0,c1: 1.0, a1,b0,c2: 1.0}\n"
         "data XAB over (A, B) = {a0,b0: 1.0, a1,b0: 1.0}\n"
         "data XACD over (A, C, D) = {a0,c0,d0: 0.5, a0,c0,d1: 0.5,"
         " a0,c1,d0: 0.5, a0,c1,d1: -1e16, a0,c2,d0: 0.5, a0,c2,d1: 0.5,"
         " a1,c0,d0: 0.5, a1,c0,d1: 0.5, a1,c1,d0: 0.5, a1,c1,d1: 0.5,"
         " a1,c2,d0: 1e16, a1,c2,d1: 0.5}\n"
         "data XBD over (B, D) = {b0,d0: 1.0, b0,d1: 1.0}\n"
         "data XCD over (C, D) = {c0,d0: 2.0, c0,d1: 2.0, c1,d0: 2.0,"
         " c1,d1: 2.0, c2,d0: 2.0, c2,d1: 2.0}\n"
         "calc F over (A, B, C, D) = (XABC * XAB) + (XACD * XBD)\n"
         "calc G over (A, C, D) = SUM(F) * XCD\n"
         "calc H over (C, D) = XCD * SUM(G)\n"
         "output Y over (B, C, D) = SUM(F) * Z\n"
         "calc K over (A, C) = SUM(F) + Z\n"
         "output L over (B, D) = XBD * SUM(F)\n")
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_four_dimensions_match_reference_evaluate(source):
    assert_matches_reference(check_model(parse_model(source)))


# the first bad cell, Y at a0,b2 (cell 2 of 6), is the last cell of the
# first of two blocks of 3 cells at a block size of 3, and the first cell of
# the second of three blocks of 2 at a block size of 2
BLOCK_EDGES = ("dimension A = [a0, a1]\ndimension B = [b0, b1, b2]\n"
               "data D over (A, B) = {a0,b0: 1, a0,b1: 2, a0,b2: 0, a1,b0: 4,"
               " a1,b1: 0, a1,b2: 6}\ndata E over (B) = [1, 4, 9]\n"
               "calc Y over (A, B) = E ^ 0.5 / D\n")
# X over (A, B, C), 3 x 2 x 3 cells. V and Y sum B in runs of 3 cells over
# C, 9 cells that blocks of at most 5 cut at cell 4, inside the second run;
# Z sums the trailing C over more cells than terms, and W the leading A and B
SUMS = ("dimension A = [a0, a1, a2]\ndimension B = [b0, b1]\n"
        "dimension C = [c0, c1, c2]\n"
        "data X over (A, B, C) = {a0,b0,c0: -1.57, a0,b0,c1: 0.27,"
        " a0,b0,c2: -0.78, a0,b1,c0: 0.62, a0,b1,c1: 0.75, a0,b1,c2: -2.61,"
        " a1,b0,c0: -2.92, a1,b0,c1: 2.02, a1,b0,c2: -1.44, a1,b1,c0: -1.59,"
        " a1,b1,c1: 2.97, a1,b1,c2: -0.18, a2,b0,c0: 2.02, a2,b0,c1: -0.14,"
        " a2,b0,c2: 0.83, a2,b1,c0: -2.1, a2,b1,c1: 0.81, a2,b1,c2: 2.21}\n"
        "calc V over (A, C) = SUM(X)\ncalc Z over (A, B) = SUM(X) * 3\n"
        "calc W over (C) = SUM(X) - 1\n")

# X over (A, B, C), 2 x 8 x 2 cells, in which Y sums A and C: runs of 2
# terms from two summed starts, added to runs of 8 cells 2 apart. The
# terms of every cell are 1e16, 1, 1 and -1e16, which fold to 0.0 in
# declaration order and to 1.0 with the starts reversed
FOLD = {(0, 0): "1e16", (0, 1): "1", (1, 0): "1", (1, 1): "-1e16"}
SPREAD = ("dimension A = [a0, a1]\ndimension B = ["
          + ", ".join(f"b{k}" for k in range(8))
          + "]\ndimension C = [c0, c1]\ndata X over (A, B, C) = {"
          + ", ".join(f"a{a},b{b},c{c}: {FOLD[a, c]}"
                      for a in range(2) for b in range(8) for c in range(2))
          + "}\ncalc Y over (B) = SUM(X)\n")


def sums_over(zeros):
    """SUMS, and Y = SUM(X) / D with D 0 at the given cells of (A, C)."""
    cells = [f"a{a},c{c}" for a in range(3) for c in range(3)]
    table = ", ".join(f"{cell}: {0 if k in zeros else k + 1}"
                      for k, cell in enumerate(cells))
    return (SUMS + f"data D over (A, C) = {{{table}}}\n"
            "calc Y over (A, C) = SUM(X) / D\n")


@given(st.one_of(layered_models(), four_dimension_models()),
       st.integers(1, 9))
# Y's 9 cells in blocks of 4 and 5 cells: SUM runs straddle the block
# edge, and the first bad cell is a later block's first cell, a block's
# last cell, or the last block's last cell; SPREAD's runs of cells
# whole and cut into blocks of 2 and 3
@example(sums_over(()), 5)
@example(sums_over({4}), 5)
@example(sums_over({3, 8}), 5)
@example(sums_over({8}), 5)
@example(BLOCK_EDGES, 2)
@example(BLOCK_EDGES, 3)
@example(SPREAD, 3)
@example(SPREAD, 9)
# F0 references the variable it sums, cell by cell, and overflows at b1,c0
@example("dimension A = [a0]\ndimension B = [b0, b1]\ndimension C = [c0, c1]\n"
         "data XBC over (B, C) = {b0,c0: 1e16, b0,c1: 0.5, b1,c0: 1e308,"
         " b1,c1: -2.0}\ncalc F0 over (B, C) = SUM(XBC) + XBC\n", 1)
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_block_edges_match_reference_evaluate(source, block):
    checked = check_model(parse_model(source))
    with mock.patch.object(evaluator, "_BLOCK", block):
        assert_matches_reference(checked)


@pytest.mark.parametrize("bad", [
    {}, {1: 0.0}, {4096: 0.0}, {8191: 0.0}, {8191: 1e-320, 8192: 0.0},
    {8199: -1.0, 12287: 0.0}])
def test_first_bad_cell_at_block_edges(bad):
    # 3 x 4,096 cells, three blocks: a first bad cell in the first block,
    # on the second block's first and last cell, and in the third block
    assert evaluator._BLOCK == 4096
    labels = tuple(f"b{k}" for k in range(4096))
    values = [1.0 + k % 7 for k in range(3 * 4096)]
    for index, value in bad.items():
        values[index] = value
    model = Model((Dimension("A", ("a0", "a1", "a2")), Dimension("B", labels)), (
        Variable("D", VariableKind.DATA, DimensionSet(("A", "B")),
                 ValueTable(tuple(values))),
        Variable("E", VariableKind.DATA, DimensionSet(("B",)),
                 ValueTable(tuple(0.5 + k % 5 for k in range(4096)))),
        # D ^ 0.5 + E / D, E broadcast over A
        Variable("Y", VariableKind.OUTPUT, DimensionSet(("A", "B")), Binary(
            "+", Binary("^", Ref("D"), Literal(0.5)),
            Binary("/", Ref("E"), Ref("D"))))))
    assert_matches_reference(check_model(model))
