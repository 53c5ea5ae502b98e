"""Frozen `eval` outputs: the sha256 of every CSV file, stdout and stderr.

The digests were computed with the per-cell evaluator that preceded the
whole-tensor one, so any change to a value, a row order or a number's
rendering shows here. The synthetic models come from `synth.py`; their
size is given as formula cells.
"""

import hashlib

import pytest

from conftest import FIXTURES, load_model
from dimcalc.cli import main
from synth import dense_model

ACME = str(FIXTURES / "acme.dml")
PRICING = str(FIXTURES / "pricing.dml")

ACME_VARS = [v.name for v in load_model("acme.dml").variables]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_eval(capsys, tmp_path, model, *args):
    out_dir = tmp_path / "out"
    code = main(["eval", model, *args, "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    files = {p.name: sha(p.read_bytes()) for p in sorted(out_dir.glob("*"))}
    return (code, sha(captured.out.encode()), sha(captured.err.encode()),
            files)


def synthetic(tmp_path, seed, counts):
    path = tmp_path / f"synth{seed}.dml"
    path.write_text(dense_model(seed, counts), encoding="utf-8")
    return str(path)


# case -> (exit code, stdout, stderr, {file name: digest}); each digest is
# the first 16 hex digits of the sha256
FROZEN = {
    "acme": (0, "d20657e4ec2a37ec", "e3b0c44298fc1c14", {
        "MPR_Unit_Sales.csv": "f5b29137b6194007",
        "MP_Sales_Amount.csv": "b875a30f22c88ee8",
        "MP_Unit_Sales.csv": "16e1a5753f3c5b6f",
        "Monthly_Unit_Sales.csv": "fc64e33b52687230",
    }),
    "acme_base_price_150": (0, "6e1d44dc16d72c3d", "e3b0c44298fc1c14", {
        "MPR_Unit_Sales.csv": "5e344cdf59123d7e",
        "MP_Sales_Amount.csv": "231a44293f2a6dc9",
        "MP_Unit_Sales.csv": "4cb07450d764ea22",
        "Monthly_Unit_Sales.csv": "5c6dddb1fb55ef52",
    }),
    "acme_every_var": (0, "9f40b0a3d6356880", "e3b0c44298fc1c14", {
        "Annual_Sector_Product_Sales_Amount.csv": "b5e23468ae14f19e",
        "Annual_Sector_Product_Unit_Sales.csv": "4e078d56a571756c",
        "Base_Price.csv": "53867e713555c27b",
        "Base_Price_Multiplier.csv": "43d666efe14f583e",
        "DemParA.csv": "fba82db6a86c849a",
        "DemParB.csv": "fd339c3d74c322da",
        "MPR_Unit_Sales.csv": "f5b29137b6194007",
        "MP_Sales_Amount.csv": "b875a30f22c88ee8",
        "MP_Unit_Sales.csv": "16e1a5753f3c5b6f",
        "MSPR_Unit_Sales.csv": "b023dbdb64eda860",
        "MSPR_Variable_Cost.csv": "67b6d10859fc542b",
        "MSP_Sales_Amount.csv": "ca38fac09efa2bd7",
        "MSP_Unit_Sales.csv": "bd3237a0c62734ec",
        "Monthly_Costs.csv": "b14defe42273a4f6",
        "Monthly_Fixed_Cost.csv": "9366003f63298540",
        "Monthly_Profit.csv": "f0e073b8a33e36f8",
        "Monthly_Sales_Amount.csv": "fbb7910eb1c0c679",
        "Monthly_Sales_Distribution_per_Sector.csv": "243016c7f7e20a00",
        "Monthly_Unit_Sales.csv": "fc64e33b52687230",
        "Monthly_Variable_Cost.csv": "8b9d8661ccaf4b28",
        "PR_Unit_Cost.csv": "17c73a0afe3b3c6d",
        "Price.csv": "bfd0edffb5f40b15",
        "Product_Distribution_per_Sector.csv": "1dca2efc58fc1999",
        "Rebate_Percentage.csv": "710d1d1191e5546c",
        "Region_Sales_Distribution_per_Sector.csv": "d3112729f95dd04f",
        "Sector_Annual_Demand_Units.csv": "c358395e9c4ff4dd",
        "Sector_Base_Price.csv": "1b9b4f500ff6d9a2",
        "Sector_Price_Factor.csv": "df2db8f0351fbefa",
        "Total_Profit.csv": "5d5cee8ae4b4c71c",
        "Unit_Delivery_Cost.csv": "00f3b6fca5bcc6c8",
        "Unit_Production_Cost.csv": "6878dff820415a65",
    }),
    "pricing_open_input": (2, "e3b0c44298fc1c14", "b577ac6fe321cb95", {}),
    "pricing_price_200": (0, "f703e5b21b880e06", "e3b0c44298fc1c14", {
        "Profit.csv": "0125950e0e0fc861",
    }),
    "synth_47353_cells_seed3": (0, "62131e183ab79fb6", "e3b0c44298fc1c14", {
        "Elastic.csv": "0828a0bfa49e644f",
        "Mix.csv": "99ec4c4dc2fbf6c2",
        "Profit_MPR.csv": "9be34e785f0c11a6",
        "Profit_MS.csv": "9d05c4561f52e6f8",
        "Profit_SPR.csv": "594d250c7db632bd",
        "Ratio.csv": "e08e52e27daadb8f",
        "Units.csv": "30283dbacf0d43db",
    }),
    "synth_989_cells_seed1": (0, "9d6d4fcfb665dcd3", "e3b0c44298fc1c14", {
        "Elastic.csv": "e495c420e02c62ce",
        "Mix.csv": "ae88cd345f0d38b3",
        "Profit_MPR.csv": "30e42379deaa8fc9",
        "Profit_MS.csv": "f6e845f37acaf44a",
        "Profit_SPR.csv": "0efb45b2c5474ee7",
        "Ratio.csv": "41546522c259afe3",
        "Units.csv": "3c88a003e05c7de4",
    }),
    "synth_989_cells_seed2": (0, "87c6e4b71a66803d", "e3b0c44298fc1c14", {
        "Elastic.csv": "518d3ffbc2bff395",
        "Mix.csv": "a9a53798b94d7196",
        "Profit_MPR.csv": "e6b5560e1acc1776",
        "Profit_MS.csv": "99457d25777a39d2",
        "Profit_SPR.csv": "43ca61a9e521cd85",
        "Ratio.csv": "0e6a95c330870303",
        "Units.csv": "aebf12cc3780deb1",
    }),
}


CASES = {
    "acme": lambda tmp: (ACME,),
    "acme_base_price_150": lambda tmp: (ACME, "--set", "Base_Price=150"),
    "acme_every_var": lambda tmp: (
        ACME, *(a for name in ACME_VARS for a in ("--var", name))),
    "pricing_open_input": lambda tmp: (PRICING,),
    "pricing_price_200": lambda tmp: (PRICING, "--set", "Price=200"),
    "synth_989_cells_seed1": lambda tmp: (synthetic(tmp, 1, (4, 3, 5, 4)),),
    "synth_989_cells_seed2": lambda tmp: (
        synthetic(tmp, 2, (4, 3, 5, 4)), "--set", "Growth=1.1"),
    "synth_47353_cells_seed3": lambda tmp: (
        synthetic(tmp, 3, (12, 9, 12, 11)),),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_eval_outputs_are_frozen(capsys, tmp_path, case):
    assert run_eval(capsys, tmp_path, *CASES[case](tmp_path)) == FROZEN[case]
