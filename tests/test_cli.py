import argparse
import codecs
import csv
import gc
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import assume, example, given, strategies as st

import dimcalc
from conftest import FIXTURES
from dimcalc.checker import check_model
from dimcalc.cli import _json_text, _write_csv, main
from dimcalc.evaluator import EvalError, InputOverride, evaluate
from dimcalc.model import (Dimension, DimensionSet, Model, Tensor, Variable,
                           VariableKind)
from dimcalc.parser import format_number, parse_cell
from synth import dense_model

ACME = str(FIXTURES / "acme.dml")
PRICING = str(FIXTURES / "pricing.dml")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def as_text(err: str) -> str:
    """The text stderr a --json stderr stands for. The stderr is one JSON
    array, indented as the stdlib indents it; each object renders as a
    diagnostic does, read from its own keys."""
    array = json.loads(err)
    assert isinstance(array, list) and array
    assert err == json.dumps(array, indent=2) + "\n"
    lines = []
    for d in array:
        span = d["span"]
        where = (f"{span['file']}:{span['start_line']}:{span['start_col']}: "
                 if span else "")
        code = "" if d["code"] is None else f"[{d['code']}]"
        lines.append(f"{where}{d['severity']}{code}: {d['message']}\n")
    return "".join(lines)


class TestCheck:
    def test_acme_summary(self, capsys):
        code, out, err = run(capsys, "check", ACME)
        assert code == 0
        assert err == ""
        assert out.splitlines() == [
            "dimension Month: 12 instances",
            "dimension Sector: 4 instances",
            "dimension Product: 2 instances",
            "dimension Region: 5 instances",
            "31 variables, 4 dimensions, OK",
        ]

    def test_pricing_summary(self, capsys):
        code, out, err = run(capsys, "check", PRICING)
        assert code == 0
        assert out.splitlines()[-1] == "16 variables, 1 dimensions, OK"

    @pytest.mark.parametrize("fixture,code_name", [
        ("bad_rule1_overspan.dml", "R1-MISMATCH"),
        ("bad_rule1_underspan.dml", "R1-MISMATCH"),
        ("bad_rule2.dml", "R2-NOT-SUBSET"),
        ("bad_rule3.dml", "R3-NOT-SUPERSET"),
        ("bad_kind.dml", "K-KIND"),
        ("bad_cycle.dml", "C-CYCLE"),
    ])
    def test_bad_fixture_exits_1(self, capsys, fixture, code_name):
        code, out, err = run(capsys, "check", str(FIXTURES / fixture))
        assert code == 1
        assert out == ""
        lines = [l for l in err.splitlines() if l]
        assert len(lines) == 1
        assert f"error[{code_name}]" in lines[0]
        assert fixture in lines[0]  # span carries the file name

    def test_json_diagnostics(self, capsys):
        code, out, err = run(capsys, "check", str(FIXTURES / "bad_rule2.dml"),
                             "--json")
        assert code == 1
        payload = json.loads(err)
        assert [d["code"] for d in payload] == ["R2-NOT-SUBSET"]
        assert payload[0]["severity"] == "error"
        assert payload[0]["span"]["start_line"] == 18

    @pytest.mark.parametrize("fixture,code_name,message,span,variables,sets", [
        ("bad_cycle.dml", "C-CYCLE", "dependency cycle: A -> B -> A",
         (4, 1, 4, 15), ["A", "B"], []),
        ("bad_kind.dml", "K-KIND", "data Discounted carries a formula; only "
         "calc and output variables are calculated",
         (7, 1, 7, 43), ["Discounted"], []),
        ("bad_rule1_overspan.dml", "R1-MISMATCH", "Capacity is declared over "
         "(Month) but its formula spans (Month, Sector): the formula "
         "over-spans the declaration (extra (Sector))",
         (11, 1, 11, 42), ["Capacity"], [["Month"], ["Month", "Sector"]]),
        ("bad_rule1_underspan.dml", "R1-MISMATCH", "Sector_Demand is declared "
         "over (Month, Sector) but its formula spans (Month): the formula "
         "under-spans the declaration (missing (Sector))",
         (8, 1, 8, 61), ["Sector_Demand"], [["Month", "Sector"], ["Month"]]),
        ("bad_rule2.dml", "R2-NOT-SUBSET", "operand Load spans (Month, "
         "Region), which is not a subset of MSP_Unit_Sales's declared set "
         "(Month, Sector, Product): (Region) is not available here",
         (18, 64, 18, 68), ["MSP_Unit_Sales", "Load"],
         [["Month", "Region"], ["Month", "Sector", "Product"]]),
        ("bad_rule3.dml", "R3-NOT-SUPERSET", "SUM source Product_Sales spans "
         "(Product), which is not a superset of Regional_Unit_Sales's "
         "declared set (Region)",
         (9, 42, 9, 60), ["Regional_Unit_Sales", "Product_Sales"],
         [["Product"], ["Region"]]),
    ])
    def test_bad_fixture_json_is_exact(self, capsys, fixture, code_name,
                                       message, span, variables, sets):
        path = str(FIXTURES / fixture)
        code, out, err = run(capsys, "check", path, "--json")
        assert code == 1
        assert out == ""
        start_line, start_col, end_line, end_col = span
        assert json.loads(err) == [{
            "severity": "error", "code": code_name, "message": message,
            "span": {"file": path, "start_line": start_line,
                     "start_col": start_col, "end_line": end_line,
                     "end_col": end_col},
            "variables": variables, "dimension_sets": sets}]

    def test_missing_file_exits_3(self, capsys):
        code, out, err = run(capsys, "check", str(FIXTURES / "ghost.dml"))
        assert code == 3
        assert err.startswith("error: cannot read")

    def test_non_utf8_file_exits_3(self, capsys, tmp_path):
        source = tmp_path / "latin1.dml"
        source.write_bytes("input Pr\xe9is = 1\n".encode("latin-1"))
        code, out, err = run(capsys, "check", str(source))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot read {source}: ")

    def test_syntax_error_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.dml"
        bad.write_text("input X = 40%\n")
        code, out, err = run(capsys, "check", str(bad))
        assert code == 1
        assert "error[P-NUMBER]" in err

    @pytest.mark.parametrize("argv", [["check"], ["eval", "--out-dir", "out"]])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_warning_goes_to_stderr(self, capsys, tmp_path, monkeypatch, argv,
                                    as_json):
        monkeypatch.chdir(tmp_path)
        head = "dimension M = [a, b]\ninput X over (M) = [1, 2]\n"
        Path("plain.dml").write_text(head + "output Y over (M) = X\n")
        Path("warned.dml").write_text(head + "output Y over (M) = SUM(X)\n")
        flags = ["--json"] if as_json else []
        plain = run(capsys, argv[0], "plain.dml", *argv[1:], *flags)
        assert plain[0] == 0 and plain[2] == ""
        code, out, err = run(capsys, argv[0], "warned.dml", *argv[1:], *flags)
        assert (code, out) == (0, plain[1])
        message = ("SUM(X) eliminates nothing: source and target are both "
                   "over (M)")
        if as_json:
            assert json.loads(err) == [{
                "severity": "warning", "code": "R3-DEGENERATE",
                "message": message,
                "span": {"file": "warned.dml", "start_line": 3,
                         "start_col": 21, "end_line": 3, "end_col": 27},
                "variables": ["Y", "X"], "dimension_sets": [["M"], ["M"]]}]
        else:
            assert err == f"warned.dml:3:21: warning[R3-DEGENERATE]: {message}\n"


class TestEval:
    def test_default_outputs(self, capsys, tmp_path):
        code, out, err = run(capsys, "eval", ACME, "--out-dir", str(tmp_path))
        assert code == 0
        assert err == ""
        assert out == "Total_Profit = -27686.567818786803\n"
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["MPR_Unit_Sales.csv", "MP_Sales_Amount.csv",
                           "MP_Unit_Sales.csv", "Monthly_Unit_Sales.csv"]

    def test_exports_from_only_the_tensors_it_writes(self, capsys, tmp_path,
                                                     monkeypatch):
        # the 4-D calc MSPR_Variable_Cost is neither written nor printed, so
        # eval keeps no reference to it once evaluate returns, and it is
        # freed before the first file is written
        evaluate, write_csv, freed, written = (
            dimcalc.cli.evaluate, dimcalc.cli._write_csv, [], [])

        def evaluate_noting(*args):
            result = evaluate(*args)
            freed.append(weakref.ref(result["MSPR_Variable_Cost"].values))
            return result

        def write_csv_after(directory, name, *args):
            assert freed[0]() is None
            written.append(name)
            write_csv(directory, name, *args)

        monkeypatch.setattr(dimcalc.cli, "evaluate", evaluate_noting)
        monkeypatch.setattr(dimcalc.cli, "_write_csv", write_csv_after)
        code, out, err = run(capsys, "eval", ACME, "--out-dir", str(tmp_path))
        assert (code, out, err) == (
            0, "Total_Profit = -27686.567818786803\n", "")
        assert written == ["Monthly_Unit_Sales", "MPR_Unit_Sales",
                           "MP_Unit_Sales", "MP_Sales_Amount"]

    def test_csv_schema_and_order(self, capsys, tmp_path):
        run(capsys, "eval", ACME, "--out-dir", str(tmp_path))
        lines = (tmp_path / "MP_Unit_Sales.csv").read_text().splitlines()
        assert lines[0] == "Month,Product,value"
        assert len(lines) == 1 + 24
        assert lines[1].startswith("Jan,Standard,")
        assert lines[2].startswith("Jan,Deluxe,")
        assert lines[3].startswith("Feb,Standard,")

    def test_csv_uses_lf_and_is_stable(self, capsys, tmp_path):
        run(capsys, "eval", ACME, "--out-dir", str(tmp_path / "a"))
        run(capsys, "eval", ACME, "--out-dir", str(tmp_path / "b"))
        first = (tmp_path / "a" / "Monthly_Unit_Sales.csv").read_bytes()
        second = (tmp_path / "b" / "Monthly_Unit_Sales.csv").read_bytes()
        assert first == second
        assert b"\r" not in first

    def test_set_overrides_default(self, capsys, tmp_path):
        code, out, _ = run(capsys, "eval", ACME, "--set", "Base_Price=150",
                           "--out-dir", str(tmp_path))
        assert code == 0
        assert out == "Total_Profit = 284150.5818806181\n"

    def test_default_equals_explicit_set(self, capsys, tmp_path):
        run(capsys, "eval", ACME, "--out-dir", str(tmp_path / "a"))
        run(capsys, "eval", ACME, "--set", "Base_Price=100",
            "--out-dir", str(tmp_path / "b"))
        for name in ("MP_Unit_Sales.csv", "Monthly_Unit_Sales.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_eval_error_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "eval", ACME, "--set", "Base_Price=0",
                             "--out-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("error[DIV-BY-ZERO]: "
                              "Sector_Annual_Demand_Units[Government]")
        assert list(tmp_path.iterdir()) == []

    def test_missing_input_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "eval", PRICING,
                             "--out-dir", str(tmp_path))
        assert code == 2
        assert "error[MISSING-INPUT]: Price" in err

    def test_pricing_with_price(self, capsys, tmp_path):
        code, out, _ = run(capsys, "eval", PRICING, "--set", "Price=200",
                           "--out-dir", str(tmp_path))
        assert code == 0
        assert out == "Total_Profit = -1234372.3128122892\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["Profit.csv"]

    def test_var_selects_and_prints_dimensionless(self, capsys, tmp_path):
        code, out, _ = run(capsys, "eval", PRICING, "--set", "Price=200",
                           "--var", "Total_Demand", "--var", "Profit",
                           "--out-dir", str(tmp_path))
        assert code == 0
        assert out == "Total_Demand = 62654.83599939163\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "Profit.csv", "Total_Demand.csv"]
        lines = (tmp_path / "Total_Demand.csv").read_text().splitlines()
        assert lines == ["value", "62654.83599939163"]

    def test_repeated_var_is_shown_once(self, capsys, tmp_path):
        code, out, _ = run(capsys, "eval", PRICING, "--set", "Price=200",
                           "--var", "Total_Profit", "--var", "Profit",
                           "--var", "Total_Profit", "--out-dir", str(tmp_path))
        assert (code, out) == (0, "Total_Profit = -1234372.3128122892\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "Profit.csv", "Total_Profit.csv"]

    def test_out_dir_that_is_a_file_exits_3(self, capsys, tmp_path):
        target = tmp_path / "taken"
        target.write_text("")
        code, out, err = run(capsys, "eval", PRICING, "--set", "Price=200",
                             "--out-dir", str(target))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot write {target}: ")

    def test_empty_out_dir_is_the_current_directory(self, capsys, tmp_path,
                                                    monkeypatch):
        # Path("") is "."; os.makedirs("") would raise instead
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "eval", PRICING, "--set", "Price=200",
                             "--out-dir", "")
        assert (code, err) == (0, "")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["Profit.csv"]

    def test_csv_that_cannot_be_opened_exits_3(self, capsys, tmp_path):
        target = tmp_path / "Profit.csv"
        target.mkdir()
        code, out, err = run(capsys, "eval", PRICING, "--set", "Price=200",
                             "--out-dir", str(tmp_path))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot write {target}: ")

    def test_unknown_var_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", ACME, "--var", "Nope",
                           "--out-dir", str(tmp_path))
        assert code == 3
        assert "no variable named Nope" in err

    def test_unknown_set_name_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", ACME, "--set", "Nope=3",
                           "--out-dir", str(tmp_path))
        assert code == 3

    def test_set_non_input_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", ACME,
                           "--set", "Monthly_Fixed_Cost=5",
                           "--out-dir", str(tmp_path))
        assert code == 3
        assert "only inputs can be set" in err

    def test_malformed_set_exits_3(self, capsys, tmp_path):
        for bad in ("Base_Price", "Base_Price=abc"):
            code, _, err = run(capsys, "eval", ACME, "--set", bad,
                               "--out-dir", str(tmp_path))
            assert code == 3

    @pytest.mark.parametrize("address", ["X[a b]", 'X["a]', "X[a,]", "X[]",
                                         "X[a;b]", "X[1%]"])
    def test_malformed_cell_address_exits_3(self, capsys, tmp_path, address):
        code, _, err = run(capsys, "eval", ACME, "--set", f"{address}=1",
                           "--out-dir", str(tmp_path))
        assert code == 3
        assert f"malformed cell address {address!r}" in err

    # a cell address writes its labels as the model source does, so a
    # label holding ',', '=' or ']' is quoted, and a plain one need not be
    @pytest.mark.parametrize("label,cell", [("a,b", '"a,b"'), ("a=b", "a=b"),
                                            ("a]b", "a]b"), (" c ", " c ")])
    def test_set_quoted_labels(self, capsys, tmp_path, label, cell):
        model = tmp_path / "labels.dml"
        model.write_text(f'dimension D = ["{label}", d]\n'
                         "dimension R = [North, South]\n"
                         "input X over (D, R)\n"
                         "output Y over (D, R) = X * 10\n")
        sets = [f'X["{label}", North]=1', f'X["{label}",South]=2',
                "X[d, North]=3", 'X["d", "South"]=4']
        code, _, err = run(capsys, "eval", str(model),
                           *(a for s in sets for a in ("--set", s)),
                           "--out-dir", str(tmp_path))
        assert (code, err) == (0, "")
        assert (tmp_path / "Y.csv").read_text(encoding="utf-8") == (
            f"D,R,value\n{cell},North,10\n{cell},South,20\n"
            f"d,North,30\nd,South,40\n")

    # the variable name is written as in the model source too, so a name
    # that is not a plain name (one holding a blank, '[' or ']') is quoted
    @pytest.mark.parametrize("name", ["a b", "x[1]", "c]", 'q"t'])
    def test_set_quoted_name(self, capsys, tmp_path, name):
        quoted = '"' + name.replace('"', '\\"') + '"'
        model = tmp_path / "names.dml"
        model.write_text(f"input {quoted} = 1\noutput Y = {quoted} * 2\n",
                         encoding="utf-8")
        assert run(capsys, "eval", str(model), "--set", f"{quoted}=5",
                   "--out-dir", str(tmp_path)) == (0, "Y = 10\n", "")

    @pytest.mark.parametrize("name", ["a b", "x[1]"])
    def test_set_quoted_name_with_cell_address(self, capsys, tmp_path, name):
        model = tmp_path / "names.dml"
        model.write_text("dimension D = [p, \"q r\"]\n"
                         f'input "{name}" over (D) = [1, 2]\n'
                         f'output Y over (D) = "{name}" * 10\n')
        code, _, err = run(capsys, "eval", str(model),
                           "--set", f'"{name}"[p]=3', "--set", f'"{name}"["q r"]=4',
                           "--out-dir", str(tmp_path))
        assert (code, err) == (0, "")
        assert (tmp_path / "Y.csv").read_text(encoding="utf-8") == (
            "D,value\np,30\nq r,40\n")

    # a dimensioned input set without a cell is refused with an address
    # --set reads back, and a cell of the wrong arity with the label count
    def test_set_of_no_cell_hints_a_quoted_address(self, capsys, tmp_path):
        model = tmp_path / "names.dml"
        model.write_text('dimension D = [a, b]\ninput "x y" over (D) = [1, 2]\n')
        assert run(capsys, "eval", str(model), "--set", '"x y"=1',
                   "--out-dir", str(tmp_path)) == (
            3, "", "error: x y is over (D); an override must name one cell, "
                   'like "x y"[D]\n')
        assert run(capsys, "eval", str(model), "--set", '"x y"[a,b]=1',
                   "--out-dir", str(tmp_path)) == (
            3, "", "error: expected 1 instance label for (D), got 2\n")

    @pytest.mark.parametrize("head", ['"a b', "a b", "X[a]]", "[a]", "X[a]b"])
    def test_malformed_set_target_exits_3(self, capsys, tmp_path, head):
        code, _, err = run(capsys, "eval", ACME, "--set", f"{head}=1",
                           "--out-dir", str(tmp_path))
        assert code == 3
        assert f"malformed cell address {head!r}" in err

    def test_per_cell_set(self, capsys, tmp_path):
        model = tmp_path / "cells.dml"
        model.write_text(
            "dimension M = [Jan, Feb]\n"
            "input X over (M) = {Jan: 1, Feb: 2}\n"
            "output Y over (M) = X * 10\n")
        code, _, _ = run(capsys, "eval", str(model), "--set", "X[Feb]=5",
                         "--out-dir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "Y.csv").read_text().splitlines()
        assert lines == ["M,value", "Jan,10", "Feb,50"]

    # input cells are checked in row-major order, whatever supplies
    # their values: the declaration, --set, or neither
    @pytest.mark.parametrize("cell,err", [
        ("Jan", "error[NON-FINITE]: X[Jan]: value inf is not finite\n"),
        ("Feb", "error[MISSING-INPUT]: X[Jan]: no declared value and no "
                "override for this cell\n"),
    ])
    def test_first_bad_input_cell_wins(self, capsys, tmp_path, cell, err):
        model = tmp_path / "inputs.dml"
        model.write_text("dimension M = [Jan, Feb]\n"
                         "input X over (M)\n"
                         "output Y over (M) = X * 10\n")
        assert run(capsys, "eval", str(model), "--set", f"X[{cell}]=inf",
                   "--out-dir", str(tmp_path)) == (2, "", err)
        assert [p.name for p in tmp_path.iterdir()] == ["inputs.dml"]

    # --set reads its value with float(): Python's number forms pass, though
    # the DSL refuses 1_000, and nan reaches evaluation as inf does
    @pytest.mark.parametrize("value,code,out,err", [
        ("nan", 2, "", "error[NON-FINITE]: X: value nan is not finite\n"),
        ("1_000", 0, "Y = 10000\n", ""),
        ("0x10", 3, "", "error: --set X: '0x10' is not a number\n"),
    ])
    def test_set_value_is_read_by_float(self, capsys, tmp_path, value, code,
                                        out, err):
        model = tmp_path / "scalar.dml"
        model.write_text("input X\noutput Y = X * 10\n")
        assert run(capsys, "eval", str(model), "--set", f"X={value}",
                   "--out-dir", str(tmp_path)) == (code, out, err)

    def test_error_address_reads_back_as_set(self, capsys, tmp_path):
        # the address is written as --set takes it: a name or label that is
        # not a plain name is quoted, so a comma inside a label is no split
        model = tmp_path / "quoted.dml"
        model.write_text('dimension D = ["a,b", c]\n'
                         'dimension E = [e]\n'
                         'input "x y" over (D, E)\n'
                         'output Y over (D, E) = 1 / "x y"\n')
        argv = ["eval", str(model), "--out-dir", str(tmp_path)]
        missing = run(capsys, *argv)
        assert missing == (2, "", 'error[MISSING-INPUT]: "x y"["a,b",e]: no '
                                  'declared value and no override for this '
                                  'cell\n')
        address = missing[2].split(": ")[1]
        argv += ["--set", f"{address}=0", "--set", '"x y"[c, e]=1']
        assert run(capsys, *argv) == (
            2, "", 'error[DIV-BY-ZERO]: Y["a,b",e]: 1.0 / 0\n')

    def test_set_fills_input_without_default(self, capsys, tmp_path):
        model = tmp_path / "inputs.dml"
        model.write_text("dimension M = [Jan, Feb]\n"
                         "input X over (M)\n"
                         "output Y over (M) = X * 10\n")
        code, _, err = run(capsys, "eval", str(model), "--set", "X[Feb]=2",
                           "--set", "X[Jan]=1", "--out-dir", str(tmp_path))
        assert (code, err) == (0, "")
        lines = (tmp_path / "Y.csv").read_text().splitlines()
        assert lines == ["M,value", "Jan,10", "Feb,20"]

    def test_negative_zero_keeps_its_sign(self, capsys, tmp_path):
        model = tmp_path / "zero.dml"
        model.write_text("dimension D = [p, q]\n"
                         "data X over (D) = [0, 1]\n"
                         "output Y over (D) = X * -1\n")
        code, _, _ = run(capsys, "eval", str(model), "--out-dir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "Y.csv").read_text().splitlines()
        assert lines == ["D,value", "p,-0", "q,-1"]

    @pytest.mark.parametrize("name", ["../escaped", "sub/escaped", "..", ".",
                                      "a\0b"])
    @pytest.mark.parametrize("selected", [False, True])
    def test_export_name_cannot_leave_out_dir(self, capsys, tmp_path, name,
                                              selected):
        model = tmp_path / "escape.dml"
        model.write_text("dimension D = [p, q]\n"
                         "input X over (D) = [1, 2]\n"
                         f'output "{name}" over (D) = X * 2\n')
        argv = ["eval", str(model), "--out-dir", str(tmp_path / "a" / "out")]
        code, out, err = run(capsys, *argv, *(["--var", name] if selected else []))
        assert code == 3
        assert out == ""
        assert f"cannot export {name}:" in err
        assert [p.name for p in tmp_path.rglob("*")] == ["escape.dml"]

    # the sum and the negations nest deeper than the interpreter's
    # recursion limit lets a recursive evaluator go
    @pytest.mark.parametrize("formula,value", [
        (" + ".join(["X"] * 1200), "2400"),
        ("(1 + " * 400 + "X" + ")" * 400, "402"),
        ("- " * 1200 + "X", "2"),
    ], ids=["sum", "parentheses", "negations"])
    def test_deep_formula_evaluates(self, capsys, tmp_path, formula, value):
        model = tmp_path / "deep.dml"
        model.write_text(f"input X = 2\noutput Y = {formula}\n")
        code, out, err = run(capsys, "eval", str(model),
                             "--out-dir", str(tmp_path))
        assert (code, out, err) == (0, f"Y = {value}\n", "")

    def test_bad_cell_label_exits_3(self, capsys, tmp_path):
        model = tmp_path / "cells.dml"
        model.write_text(
            "dimension M = [Jan, Feb]\n"
            "input X over (M) = {Jan: 1, Feb: 2}\n"
            "output Y over (M) = X * 10\n")
        code, _, err = run(capsys, "eval", str(model), "--set", "X[Nope]=5",
                           "--out-dir", str(tmp_path))
        assert code == 3


class TestLineEnds:
    """Only LF ends a line; a CR is a blank outside quotes, as parse_model
    reads it."""

    def test_cr_inside_quoted_label(self, capsys, tmp_path):
        model = tmp_path / "cr.dml"
        model.write_bytes(b'dimension D = ["a\rb", c]\n'
                          b"input X over (D) = [1, 2]\n"
                          b"output Y over (D) = X * 2\n")
        assert run(capsys, "check", str(model)) == (
            0, "dimension D: 2 instances\n2 variables, 1 dimensions, OK\n", "")
        assert run(capsys, "eval", str(model), "--out-dir",
                   str(tmp_path)) == (0, "", "")
        # the csv module quotes a lone CR from Python 3.13 on
        label = b'"a\rb"' if sys.version_info >= (3, 13) else b"a\rb"
        assert (tmp_path / "Y.csv").read_bytes() == (
            b"D,value\n" + label + b",2\nc,4\n")

    @staticmethod
    def read_copies(capsys, tmp_path, monkeypatch, fixture, copies):
        """`check --json` and `eval` results, and the CSV bytes, of each
        copy of a fixture, the copy made by one function of its bytes."""
        source = (FIXTURES / fixture).read_bytes()
        seen = []
        for number, copy in enumerate(copies):
            side = tmp_path / str(number)
            side.mkdir()
            (side / fixture).write_bytes(copy(source))
            monkeypatch.chdir(side)
            checked = run(capsys, "check", fixture, "--json")
            evaluated = run(capsys, "eval", fixture, "--out-dir", "out")
            csvs = {p.name: p.read_bytes() for p in side.glob("out/*.csv")}
            seen.append((checked, evaluated, csvs))
        if fixture == "acme.dml":
            assert len(seen[0][2]) == 4
        return seen

    @pytest.mark.parametrize("fixture", sorted(
        p.name for p in FIXTURES.glob("*.dml")))
    def test_crlf_copy_reads_like_lf(self, capsys, tmp_path, monkeypatch,
                                     fixture):
        lf, crlf = self.read_copies(
            capsys, tmp_path, monkeypatch, fixture,
            [bytes, lambda source: source.replace(b"\n", b"\r\n")])
        assert lf == crlf

    @pytest.mark.parametrize("fixture", sorted(
        p.name for p in FIXTURES.glob("*.dml")))
    def test_bom_copy_reads_like_plain(self, capsys, tmp_path, monkeypatch,
                                       fixture):
        plain, bom = self.read_copies(
            capsys, tmp_path, monkeypatch, fixture,
            [bytes, lambda source: codecs.BOM_UTF8 + source])
        assert plain == bom

    @pytest.mark.parametrize("text,where", [
        ("input X = 1\n\ufeffinput Y = 2\n", "2:1"),
        ("input X = 1 \ufeff\n", "1:13"),
        # the first is the byte-order mark, the second a character
        ("\ufeff\ufeffinput X = 1\n", "1:1"),
    ])
    def test_bom_elsewhere_is_a_token_error(self, capsys, tmp_path, text,
                                            where):
        model = tmp_path / "bom.dml"
        model.write_bytes(text.encode("utf-8"))
        assert run(capsys, "check", str(model)) == (
            1, "", f"{model}:{where}: error[P-TOKEN]: unexpected character "
                   f"'\\ufeff'\n")

def _reference_csv(path: Path, tensor, model) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow([*tensor.dims.names, "value"])
        for labels, value in zip(model.instance_tuples(tensor.dims),
                                 tensor.values):
            writer.writerow([*labels, format_number(value)])


# pieces of labels and dimension names that csv.writer quotes, or that
# look as if it might; the empty list gives the empty label
_awkward = st.lists(st.sampled_from(
    [",", '"', "\r", "\n", "\r\n", " ", "a", "b", "\u00e9", "\u65e5"]),
    max_size=4).map("".join)


def _case(dims, values):
    model = Model(dims, ())
    return Tensor(model.dim_set(d.name for d in dims),
                  tuple(map(float, values))), model


@st.composite
def _tensors(draw):
    names = draw(st.lists(_awkward, max_size=3, unique=True))
    dims = tuple(Dimension(name, tuple(draw(st.lists(
        _awkward, min_size=1, max_size=3, unique=True)))) for name in names)
    size = math.prod(len(d.instances) for d in dims)
    return _case(dims, draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=size, max_size=size)))


def _axis(name, size, label="{}"):
    return Dimension(name, tuple(label.format(i) for i in range(size)))


def _seam_values(size):
    # integral values, -0.0 and 1e16 within four rows of every block's end
    return [(7.0, -0.0, 1e16, i / 7)[i % 4] for i in range(size)]


@given(_tensors())
@example(_case((), [-0.0]))
@example(_case((), [1e16]))
@example(_case((_axis("D", 4095),), _seam_values(4095)))
@example(_case((_axis("D", 4096),), _seam_values(4096)))
@example(_case((_axis("D", 4097, "x.0\n{}"),), _seam_values(4097)))
@example(_case((_axis("A", 3, "{}.0\n"), _axis("B", 2000, "{}.0\n")),
               _seam_values(6000)))
@example(_case((Dimension("a,b", (",", '"', "", " x ")),
                Dimension('"q"', ("\r", "\n", "\r\n\u00e9"))), range(12)))
def test_csv_matches_csv_writer(case):
    tensor, model = case
    with tempfile.TemporaryDirectory() as tmp:
        _write_csv(Path(tmp), "T", tensor, model)
        _reference_csv(Path(tmp) / "ref.csv", tensor, model)
        assert ((Path(tmp) / "T.csv").read_bytes()
                == (Path(tmp) / "ref.csv").read_bytes())


def test_csv_export_holds_rows_in_blocks(tmp_path):
    # 48,000 rows, 1.1-1.3 MB of text: a string of the whole file would alone
    # outgrow the bound, and the list of rows it is joined from more so; so
    # would the quoted labels of one axis longer than a block, last or leading
    for shape in ((("A", 40), ("B", 40), ("C", 30)), (("A", 48_000),),
                  (("A", 2), ("B", 24_000)), (("A", 24_000), ("B", 2)),
                  (("A", 2), ("B", 12_000), ("C", 2))):
        dims = tuple(_axis(n, k, n.lower() + "{}") for n, k in shape)
        tensor, model = _case(dims, [i / 7 for i in range(48_000)])
        tracemalloc.start()
        try:
            _write_csv(tmp_path, "T", tensor, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "T.csv").stat().st_size > 1_100_000, shape
        assert peak < 1_000_000, shape
        # the rows on either side of each block's end are the writer's too
        _reference_csv(tmp_path / "ref.csv", tensor, model)
        assert ((tmp_path / "T.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes()), shape


class TestDiagram:
    def test_stdout_default(self, capsys):
        code, out, err = run(capsys, "diagram", PRICING)
        assert code == 0
        assert out.startswith("digraph model {")
        assert out.endswith("}\n")

    def test_write_to_file(self, capsys, tmp_path):
        target = tmp_path / "acme.dot"
        code, out, _ = run(capsys, "diagram", ACME, "-o", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("digraph model {")

    def test_write_to_missing_directory_exits_3(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.dot"
        code, out, err = run(capsys, "diagram", PRICING, "-o", str(target))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot write {target}: ")

    def test_empty_output_path_is_the_current_directory(self, capsys,
                                                        tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "diagram", PRICING, "-o", "") == (
            3, "", "error: cannot write .: Is a directory\n")
        assert list(tmp_path.iterdir()) == []

    def test_no_group(self, capsys):
        code, out, _ = run(capsys, "diagram", ACME, "--no-group")
        assert code == 0
        assert "subgraph" not in out

    def test_data_values(self, capsys):
        code, out, _ = run(capsys, "diagram", PRICING, "--data-values")
        assert code == 0
        assert 'label="DemParA\\n376000"' in out

    def test_bad_model_exits_1(self, capsys):
        code, out, err = run(capsys, "diagram",
                             str(FIXTURES / "bad_cycle.dml"))
        assert code == 1
        assert out == ""


class TestExplain:
    def test_input_line(self, capsys):
        code, out, _ = run(capsys, "explain", ACME, "Base_Price")
        assert code == 0
        assert out == ("Input, dimensionless, value 100; "
                       "used by: Sector_Base_Price\n")

    def test_calc_line(self, capsys):
        code, out, _ = run(capsys, "explain", ACME, "Monthly_Profit")
        assert code == 0
        assert out.startswith("Calculated over (Month) = "
                              "Monthly_Sales_Amount - Monthly_Costs")
        assert "uses: Monthly_Sales_Amount, Monthly_Costs" in out
        assert "used by: Total_Profit" in out

    def test_output_line(self, capsys):
        code, out, _ = run(capsys, "explain", ACME, "Total_Profit")
        assert code == 0
        assert out == ("Output, dimensionless = SUM(Monthly_Profit); "
                       "uses: Monthly_Profit\n")

    def test_data_line(self, capsys):
        code, out, _ = run(capsys, "explain", ACME, "Rebate_Percentage")
        assert code == 0
        assert out.startswith("Data over (Sector), 4 values")

    def test_input_without_default(self, capsys):
        code, out, _ = run(capsys, "explain", PRICING, "Price")
        assert code == 0
        assert out.startswith("Input, dimensionless, no default value")

    def test_unknown_variable_exits_3(self, capsys):
        code, _, err = run(capsys, "explain", ACME, "Nope")
        assert code == 3
        assert "no variable named Nope" in err


class TestManyCallsInOneProcess:
    """main() parses with a grammar built once at import, and no call
    leaves state behind for the next one."""

    def test_calls_build_no_argument_parser(self, capsys, tmp_path,
                                            monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        codes = [main(argv) for argv in (
            ["check", ACME], ["explain", ACME, "Base_Price"],
            ["diagram", ACME, "-o", str(tmp_path / "acme.dot")],
            ["eval", PRICING, "--set", "Price=200", "-o", str(tmp_path)],
            ["check"])]
        capsys.readouterr()
        assert (codes, built) == ([0, 0, 0, 0, 3], [])

    def test_set_does_not_carry_over(self, capsys, tmp_path):
        code, out, _ = run(capsys, "eval", ACME, "--set", "Base_Price=150",
                           "--out-dir", str(tmp_path / "a"))
        assert (code, out) == (0, "Total_Profit = 284150.5818806181\n")
        code, out, _ = run(capsys, "eval", ACME,
                           "--out-dir", str(tmp_path / "b"))
        assert (code, out) == (0, "Total_Profit = -27686.567818786803\n")

    def test_var_does_not_carry_over(self, capsys, tmp_path):
        code, out, _ = run(capsys, "eval", ACME, "--var", "Monthly_Profit",
                           "--out-dir", str(tmp_path / "a"))
        assert (code, out) == (0, "")
        assert [p.name for p in (tmp_path / "a").iterdir()] == [
            "Monthly_Profit.csv"]
        code, out, _ = run(capsys, "eval", ACME,
                           "--out-dir", str(tmp_path / "b"))
        assert (code, out) == (0, "Total_Profit = -27686.567818786803\n")
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == [
            "MPR_Unit_Sales.csv", "MP_Sales_Amount.csv",
            "MP_Unit_Sales.csv", "Monthly_Unit_Sales.csv"]

    def test_usage_error_then_good_call(self, capsys):
        code, _, err = run(capsys, "check")
        assert code == 3
        assert err.startswith("error: dimcalc check: ")
        code, _, err = run(capsys, "check", ACME)
        assert (code, err) == (0, "")

    def test_json_does_not_carry_over(self, capsys):
        bad = str(FIXTURES / "bad_rule2.dml")
        text = run(capsys, "check", bad)
        as_json = run(capsys, "check", "--json", bad)
        assert as_json[0] == 1 and json.loads(as_json[2])
        assert run(capsys, "check", bad) == text
        assert text[0] == 1 and text[2].startswith(bad + ":")


# a fresh interpreter each: the grammar main() uses is built at import
@pytest.mark.parametrize("argv,code,out_start,err", [
    (["check", ACME], 0, "dimension Month: 12 instances\n"
     "dimension Sector: 4 instances\ndimension Product: 2 instances\n"
     "dimension Region: 5 instances\n31 variables, 4 dimensions, OK\n", ""),
    (["--help"], 0, "usage: dimcalc [-h] {check,eval,diagram,explain}", ""),
    ([], 3, "", "error: dimcalc: the following arguments are required: "
                "command\n"),
], ids=["check", "help", "no-arguments"])
def test_console_script_installed(argv, code, out_start, err):
    result = subprocess.run(
        [sys.executable, "-m", "dimcalc.cli", *argv],
        capture_output=True, text=True)
    assert result.returncode == code
    assert result.stdout.startswith(out_start)
    assert result.stderr == err


def test_cold_import_leaves_out_slow_modules():
    # -I -S: no site packages and no PYTHONPATH, so this is all the import
    # loads; the package is found where this test imported it from
    source = ("import sys; sys.path.insert(0, sys.argv[1]); import dimcalc.cli; "
              "print(sorted({'dataclasses', 'inspect', 'json', 'typing'} "
              "& set(sys.modules)))")
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", source,
         str(Path(dimcalc.__file__).parents[1])],
        capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


# a duplicate and an undeclared dimension and reference fail the parse; the
# second model parses, and its cycles share variables and have dependents
_TANGLED = [
    "dimension D = [a, b]\ndimension D = [c]\ninput X over (E) = 1\n"
    "calc A = B + nope\ncalc B = A\ncalc C = A + B\n",
    "calc P = Q\ncalc Q = R + P\ncalc R = Q\ncalc S = T\ncalc T = S + P\n"
    "calc U = U + S\ncalc V = U + R\n",
]


def test_diagnostics_do_not_depend_on_hash_order(tmp_path):
    paths = sorted(map(str, FIXTURES.glob("bad_*.dml")))
    for i, text in enumerate(_TANGLED):
        (tmp_path / f"tangled{i}.dml").write_text(text, encoding="utf-8")
        paths.append(str(tmp_path / f"tangled{i}.dml"))
    src = str(Path(dimcalc.__file__).parents[1])
    seen = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        seen.append([subprocess.run(
            [sys.executable, "-m", "dimcalc.cli", "check", path, "--json"],
            capture_output=True, text=True, env=env) for path in paths])
    for under_0, under_1 in zip(*seen):
        assert under_0.returncode == under_1.returncode == 1
        assert json.loads(under_0.stderr)
        assert under_0.stderr == under_1.stderr


# every subcommand checks its model the same way, so a failure to read,
# parse or check it reads the same whichever subcommand met it
_SUBCOMMAND_TAILS = {"check": [], "eval": ["--out-dir", "out"],
                     "diagram": [], "explain": ["X"]}


@pytest.mark.parametrize("command", sorted(_SUBCOMMAND_TAILS))
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
class TestFailureMatrix:
    def call(self, capsys, command, path, flags):
        return run(capsys, command, path, *_SUBCOMMAND_TAILS[command], *flags)

    @pytest.mark.parametrize("source", ["percent.dml", "bad_rule2.dml"])
    def test_model_failure_exits_1_as_check_does(self, capsys, tmp_path,
                                                 monkeypatch, command, flags,
                                                 source):
        monkeypatch.chdir(tmp_path)
        Path("percent.dml").write_text("input X = 40%\n")
        path = source if source == "percent.dml" else str(FIXTURES / source)
        checked = run(capsys, "check", path, *flags)
        assert checked[:2] == (1, "") and checked[2]
        assert self.call(capsys, command, path, flags) == checked
        assert not Path("out").exists()

    def test_missing_file_exits_3(self, capsys, tmp_path, command, flags):
        path = str(tmp_path / "ghost.dml")
        code, out, err = self.call(capsys, command, path, flags)
        assert (code, out) == (3, "")
        if flags:
            err = as_text(err)
        assert err.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize("as_json", [False, True])
def test_warning_then_eval_error(capsys, tmp_path, as_json):
    model = tmp_path / "warned.dml"
    model.write_text("dimension M = [a, b]\n"
                     "input X over (M) = [1, 0]\n"
                     "calc S over (M) = SUM(X)\n"
                     "output Y over (M) = 1 / S\n")
    code, out, err = run(capsys, "eval", str(model), "--out-dir",
                         str(tmp_path / "out"), *(["--json"] if as_json else []))
    assert (code, out) == (2, "")
    if as_json:  # one array holds the warning and the failure
        err = as_text(err)
    warning, failure = err.rstrip("\n").rsplit("\n", 1)
    assert failure == "error[DIV-BY-ZERO]: Y[b]: 1.0 / 0"
    assert warning == (f"{model}:3:19: warning[R3-DEGENERATE]: SUM(X) "
                       f"eliminates nothing: source and target are both "
                       f"over (M)")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("as_json", [False, True])
def test_out_of_memory_is_one_error_line(capsys, tmp_path, monkeypatch,
                                         as_json):
    # a tensor too large for memory fails as a numeric error does: exit 2
    # and one line, no traceback; the patch allocates nothing large
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("dimcalc.cli.evaluate", exhausted)
    code, out, err = run(capsys, "eval", ACME, "--out-dir",
                         str(tmp_path / "out"), *(["--json"] if as_json else []))
    if as_json:
        err = as_text(err)
    assert (code, out, err) == (2, "", "error: out of memory\n")
    assert not (tmp_path / "out").exists()


# every way main() fails once its arguments are read: (exit code, argv),
# run in a directory that failure_argv sets up
_FAILURES = {
    "parse": (1, ["check", "percent.dml"]),
    "check": (1, ["check", str(FIXTURES / "bad_rule2.dml")]),
    "eval-error": (2, ["eval", ACME, "--set", "Base_Price=0",
                       "--out-dir", "out"]),
    "missing-input": (2, ["eval", PRICING, "--out-dir", "out"]),
    "unreadable": (3, ["check", "ghost.dml"]),
    "non-utf8": (3, ["check", "latin1.dml"]),
    "bad-override": (3, ["eval", ACME, "--set", "Nope=1"]),
    "malformed-set": (3, ["eval", ACME, "--set", "Base_Price"]),
    "unknown-var": (3, ["eval", ACME, "--var", "Nope"]),
    "unknown-explain": (3, ["explain", ACME, "Nope"]),
    "write-csv": (3, ["eval", ACME, "--out-dir", "taken"]),
    "write-dot": (3, ["diagram", ACME, "-o", "missing/acme.dot"]),
    "out-of-memory": (2, ["eval", ACME, "--out-dir", "out"]),
    "warning-then-eval-error": (2, ["eval", "warned.dml", "--out-dir", "out"]),
}


def failure_argv(name, tmp_path, monkeypatch):
    """_FAILURES[name], with its files written and, for out-of-memory, an
    evaluator that raises MemoryError and allocates nothing large."""
    def exhausted(*args):
        raise MemoryError

    monkeypatch.chdir(tmp_path)
    Path("percent.dml").write_text("input X = 40%\n")
    Path("latin1.dml").write_bytes("input Pr\xe9is = 1\n".encode("latin-1"))
    Path("taken").write_text("")
    Path("warned.dml").write_text("dimension M = [a, b]\n"
                                  "input X over (M) = [1, 0]\n"
                                  "calc S over (M) = SUM(X)\n"
                                  "output Y over (M) = 1 / S\n")
    if name == "out-of-memory":
        monkeypatch.setattr("dimcalc.cli.evaluate", exhausted)
    return _FAILURES[name]


@pytest.mark.parametrize("name", sorted(_FAILURES))
def test_json_failure_renders_as_the_text(capsys, tmp_path, monkeypatch,
                                          name):
    # --json changes only the form of stderr: one array, whose objects
    # render to the text run's lines, under the same exit code
    code, argv = failure_argv(name, tmp_path, monkeypatch)
    text = run(capsys, *argv)
    as_json = run(capsys, *argv, "--json")
    assert text[:2] == as_json[:2] == (code, "") and text[2]
    assert as_text(as_json[2]) == text[2]


# an address holds anything but an LF: quotes, backslashes, the address's
# own punctuation, a comment mark, CR, blanks, keywords, leading digits
_awkward = st.one_of(
    st.text(st.sampled_from('"\\,=[]# \t\rSUMover0123éa_'), min_size=1),
    st.sampled_from(["SUM", "over", "2024", "1e3", "a", " a ", "é"]),
    st.text(min_size=1).filter(lambda s: "\n" not in s))


@given(_awkward, st.lists(_awkward, max_size=3))
@example("SUM", ["over", "1"])
@example('a"b\\', [" ", "a,b", "x]=1", "#", "\r"])
def test_error_address_reads_back_through_set(name, labels):
    error = EvalError("DIV-BY-ZERO", name, tuple(labels), "1.0 / 0")
    text = str(error)
    head, tail = "error[DIV-BY-ZERO]: ", ": 1.0 / 0"
    assert text.startswith(head) and text.endswith(tail)
    address = text[len(head):-len(tail)]
    assert parse_cell(address) == (name, tuple(labels) or None)


@given(_awkward, st.lists(_awkward, min_size=1, max_size=3, unique=True))
@example("x y", ["D"])
@example("SUM", ["over", "1", 'a"b,'])
def test_hint_address_reads_back_through_set(name, dims):
    # an override of a dimensioned input without a cell names one it could be
    assume(name not in dims)
    over = DimensionSet(tuple(dims))
    model = Model(tuple(Dimension(d, ("a",)) for d in dims),
                  (Variable(name, VariableKind.INPUT, over, None),))
    with pytest.raises(ValueError) as raised:
        evaluate(check_model(model), [InputOverride(name, None, 1.0)])
    head = f"{name} is over {over}; an override must name one cell, like "
    text = str(raised.value)
    assert text.startswith(head)
    assert parse_cell(text[len(head):]) == (name, over.names)


@pytest.fixture(params=[True, False], ids=["caller-collecting", "caller-paused"])
def collecting(request):
    """The caller's collector setting for one test, put back afterwards."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


def _percent_model(tmp_path):
    path = tmp_path / "percent.dml"
    path.write_text("input X = 40%\n")
    return str(path)


# every way out of main(): each exit code, and the failure behind it
_EXITS = {
    "ok": (0, lambda tmp: ["check", ACME]),
    "parse-failure": (1, lambda tmp: ["check", _percent_model(tmp)]),
    "check-failure": (1, lambda tmp: ["check", str(FIXTURES / "bad_rule2.dml")]),
    "eval-error": (2, lambda tmp: ["eval", PRICING, "--out-dir", str(tmp)]),
    "bad-argv": (3, lambda tmp: ["check"]),
    "unreadable": (3, lambda tmp: ["check", str(tmp / "ghost.dml")]),
}


class TestCollectorPause:
    """main() pauses the cyclic collector for one invocation and leaves the
    caller's setting as it found it, however the invocation ends."""

    @pytest.mark.parametrize("exit_path", sorted(_EXITS))
    def test_setting_is_restored(self, capsys, tmp_path, collecting,
                                 exit_path):
        code, argv = _EXITS[exit_path]
        assert main(argv(tmp_path)) == code
        capsys.readouterr()
        assert gc.isenabled() is collecting

    def test_setting_survives_an_escaping_exception(self, tmp_path,
                                                    monkeypatch, collecting):
        during = []

        def failing_evaluate(*args):
            during.append(gc.isenabled())
            raise RuntimeError("evaluator fault")

        monkeypatch.setattr("dimcalc.cli.evaluate", failing_evaluate)
        with pytest.raises(RuntimeError, match="^evaluator fault$"):
            main(["eval", ACME, "--out-dir", str(tmp_path)])
        assert (during, gc.isenabled()) == ([False], collecting)

    def test_setting_survives_help(self, capsys, collecting):
        with pytest.raises(SystemExit):
            main(["--help"])
        capsys.readouterr()
        assert gc.isenabled() is collecting


def _cyclic_garbage(capsys, argv) -> tuple[int, int, str]:
    """main(argv)'s exit code, the number of objects it left that only the
    cyclic collector can free, and its stderr."""
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        code = main(argv)
        return code, gc.collect(), capsys.readouterr().err
    finally:
        if collecting:
            gc.enable()


def _no_cycles_cases():
    cases = []
    for path, variable, evaluated in ((ACME, "Monthly_Profit", 0),
                                      (PRICING, "Price", 2)):  # MISSING-INPUT
        name = Path(path).stem
        cases += [
            pytest.param(0, ["check", path], id=f"check-{name}"),
            pytest.param(evaluated, ["eval", path, "--out-dir", "out"],
                         id=f"eval-{name}"),
            pytest.param(0, ["diagram", path], id=f"diagram-{name}"),
            pytest.param(0, ["explain", path, variable], id=f"explain-{name}"),
        ]
    cases += [pytest.param(1, ["check", str(path)], id=f"check-{path.stem}")
              for path in sorted(FIXTURES.glob("bad_*.dml"))]
    return cases + [
        # the evaluator halves the failing range to name the first bad cell
        pytest.param(2, ["eval", ACME, "--set", "Base_Price=0",
                         "--out-dir", "out"], id="div-by-zero"),
        pytest.param(3, ["check"], id="missing-argument"),
        pytest.param(3, [], id="no-arguments"),
        pytest.param(3, ["check", "ghost.dml"], id="unreadable"),
        pytest.param(3, ["eval", ACME, "--set", "Nope=1"], id="bad-override"),
        pytest.param(3, ["eval", ACME, "--set", "Base_Price"],
                     id="malformed-set"),
        pytest.param(3, ["explain", ACME, "Nope"], id="unknown-variable"),
        pytest.param(0, ["eval", "dense.dml", "--out-dir", "out"], id="dense"),
    ]


class TestNoCycles:
    """Nothing an invocation builds forms a cycle, so reference counting
    frees it all and main() may pause the collector. A cycle added to the
    engine shows here first."""

    @pytest.mark.parametrize("code,argv", _no_cycles_cases())
    def test_invocation_leaves_no_cyclic_garbage(self, capsys, tmp_path,
                                                 monkeypatch, code, argv):
        monkeypatch.chdir(tmp_path)
        Path("dense.dml").write_text(dense_model(1, (3, 2, 3, 2)))
        assert _cyclic_garbage(capsys, argv)[:2] == (code, 0)

    def test_json_leaves_no_cyclic_garbage(self, capsys, tmp_path):
        # the stdlib's indented JSON encoder would leave its closures, which
        # refer to one another, on every call
        many = tmp_path / "undeclared.dml"
        many.write_text("".join(f"calc A{i} = B{i}\n" for i in range(20)))
        counts = []
        for path in [*sorted(FIXTURES.glob("bad_*.dml")), many]:
            code, garbage, err = _cyclic_garbage(
                capsys, ["check", str(path), "--json"])
            assert (code, garbage) == (1, 0)
            counts.append(len(json.loads(err)))
        assert sorted(set(counts)) == [1, 20]

    @pytest.mark.parametrize("name", ["eval-error", "unreadable",
                                      "bad-override", "out-of-memory"])
    def test_json_failure_leaves_no_cyclic_garbage(self, capsys, tmp_path,
                                                   monkeypatch, name):
        code, argv = failure_argv(name, tmp_path, monkeypatch)
        assert _cyclic_garbage(capsys, [*argv, "--json"])[:2] == (code, 0)


# what as_json() gives: nested dicts and lists of text, ints and None
json_values = st.recursive(
    st.none() | st.integers() | st.text(
        st.sampled_from('a"\\/\n\t\x00\x1f\x7fé€\U0001f600') | st.characters()),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)


@given(json_values)
@example([{"code": "R1-MISMATCH", "span": None, "variables": [],
           "dimension_sets": [[], ["Month"]]}])
def test_json_text_is_the_stdlib_indented_text(value):
    assert _json_text(value) == json.dumps(value, indent=2)
