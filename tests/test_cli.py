import json
import subprocess
import sys

import pytest

from conftest import FIXTURES
from dimcalc.cli import main

ACME = str(FIXTURES / "acme.dml")
PRICING = str(FIXTURES / "pricing.dml")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_syntax_error_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.dml"
        bad.write_text("input X = 40%\n")
        code, out, err = run(capsys, "check", str(bad))
        assert code == 1
        assert "error[P-NUMBER]" in err


class TestEval:
    def test_default_outputs(self, capsys, tmp_path):
        code, out, err = run(capsys, "eval", ACME, "--out-dir", str(tmp_path))
        assert code == 0
        assert err == ""
        assert out == "Total_Profit = -27686.567818786803\n"
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["MPR_Unit_Sales.csv", "MP_Sales_Amount.csv",
                           "MP_Unit_Sales.csv", "Monthly_Unit_Sales.csv"]

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


def test_console_script_installed(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "dimcalc.cli", "check", ACME],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1] == "31 variables, 4 dimensions, OK"
