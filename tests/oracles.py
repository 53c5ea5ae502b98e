"""Brute-force reference calculations for the two shipped fixture models,
and a reference reader for formulas.

Everything here is computed with flat dicts and explicit nested loops over
instance labels, straight from the case tables. No code is shared with the
engine: a broadcasting or aggregation bug in dimcalc cannot be mirrored here.

Values are keyed by (variable name, instance-label tuple); scalars use the
empty tuple.

The formula reader is a recursive descent written from the README's
precedence rules, one function per level, with no engine code either, so a
parser and a printer that drift together still disagree with it.
"""

import math
import re

MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
SECTORS = ("Government", "Military", "Private", "Education")
PRODUCTS = ("Standard", "Deluxe")
REGIONS = ("N", "SE", "SW", "E", "W")

REBATE = {"Government": 0.40, "Military": 0.20, "Private": 0.10, "Education": 0.70}

DEM_PAR_A = {
    "Government": 3.593437587,
    "Military": 3.46315031,
    "Private": 3.187228762,
    "Education": 4.114496316,
}
DEM_PAR_B = {s: 22858963442.0 for s in SECTORS}

BASE_PRICE_MULTIPLIER = {"Standard": 1.0, "Deluxe": 1.45}
UNIT_PRODUCTION_COST = {"Standard": 48.0, "Deluxe": 72.0}
UNIT_DELIVERY_COST = {"N": 10.25, "SE": 9.73, "SW": 9.58, "E": 8.26, "W": 11.02}

# Standard/Deluxe split of each sector's annual demand.
PRODUCT_DISTRIBUTION = {
    ("Government", "Standard"): 0.65, ("Government", "Deluxe"): 0.35,
    ("Military", "Standard"): 0.25, ("Military", "Deluxe"): 0.75,
    ("Private", "Standard"): 0.40, ("Private", "Deluxe"): 0.60,
    ("Education", "Standard"): 0.80, ("Education", "Deluxe"): 0.20,
}

# Rows: month; columns: Government, Military, Private, Education.
_MONTHLY_ROWS = {
    "Jan": (0.09, 0.08, 0.12, 0.06),
    "Feb": (0.10, 0.09, 0.11, 0.08),
    "Mar": (0.12, 0.10, 0.09, 0.09),
    "Apr": (0.12, 0.12, 0.07, 0.10),
    "May": (0.11, 0.13, 0.06, 0.12),
    "Jun": (0.09, 0.11, 0.04, 0.12),
    "Jul": (0.07, 0.09, 0.05, 0.11),
    "Aug": (0.06, 0.07, 0.06, 0.09),
    "Sep": (0.05, 0.06, 0.08, 0.07),
    "Oct": (0.05, 0.04, 0.09, 0.06),
    "Nov": (0.06, 0.05, 0.11, 0.05),
    "Dec": (0.08, 0.06, 0.12, 0.05),
}
MONTHLY_DISTRIBUTION = {
    (m, s): _MONTHLY_ROWS[m][i] for m in MONTHS for i, s in enumerate(SECTORS)
}

# Rows: region; columns: Government, Military, Private, Education.
_REGION_ROWS = {
    "N": (0.25, 0.52, 0.22, 0.24),
    "SE": (0.18, 0.13, 0.21, 0.15),
    "SW": (0.18, 0.18, 0.17, 0.32),
    "E": (0.22, 0.00, 0.25, 0.17),
    "W": (0.17, 0.17, 0.15, 0.12),
}
REGION_DISTRIBUTION = {
    (s, r): _REGION_ROWS[r][i] for r in REGIONS for i, s in enumerate(SECTORS)
}

MONTHLY_FIXED_COST = 20000.0


def oracle_acme(base_price):
    """Compute every variable of the widget-pricing case the long way.

    Returns a dict mapping (variable, labels) -> value.
    """
    out = {}
    out[("Base_Price", ())] = float(base_price)
    for p in PRODUCTS:
        out[("Base_Price_Multiplier", (p,))] = BASE_PRICE_MULTIPLIER[p]
        out[("Unit_Production_Cost", (p,))] = UNIT_PRODUCTION_COST[p]
    for s in SECTORS:
        out[("Rebate_Percentage", (s,))] = REBATE[s]
        out[("DemParA", (s,))] = DEM_PAR_A[s]
        out[("DemParB", (s,))] = DEM_PAR_B[s]
    for r in REGIONS:
        out[("Unit_Delivery_Cost", (r,))] = UNIT_DELIVERY_COST[r]
    for s in SECTORS:
        for p in PRODUCTS:
            out[("Product_Distribution_per_Sector", (s, p))] = PRODUCT_DISTRIBUTION[(s, p)]
    for m in MONTHS:
        for s in SECTORS:
            out[("Monthly_Sales_Distribution_per_Sector", (m, s))] = MONTHLY_DISTRIBUTION[(m, s)]
    for s in SECTORS:
        for r in REGIONS:
            out[("Region_Sales_Distribution_per_Sector", (s, r))] = REGION_DISTRIBUTION[(s, r)]
    out[("Monthly_Fixed_Cost", ())] = MONTHLY_FIXED_COST

    spf = {s: 1.0 - REBATE[s] for s in SECTORS}
    sbp = {s: float(base_price) * spf[s] for s in SECTORS}
    # Demand curve: parameter B divided by the sector price raised to A.
    demand = {s: DEM_PAR_B[s] / math.pow(sbp[s], DEM_PAR_A[s]) for s in SECTORS}
    for s in SECTORS:
        out[("Sector_Price_Factor", (s,))] = spf[s]
        out[("Sector_Base_Price", (s,))] = sbp[s]
        out[("Sector_Annual_Demand_Units", (s,))] = demand[s]

    for p in PRODUCTS:
        for r in REGIONS:
            out[("PR_Unit_Cost", (p, r))] = UNIT_PRODUCTION_COST[p] + UNIT_DELIVERY_COST[r]

    for s in SECTORS:
        for p in PRODUCTS:
            units = demand[s] * PRODUCT_DISTRIBUTION[(s, p)]
            price = sbp[s] * BASE_PRICE_MULTIPLIER[p]
            out[("Annual_Sector_Product_Unit_Sales", (s, p))] = units
            out[("Price", (s, p))] = price
            out[("Annual_Sector_Product_Sales_Amount", (s, p))] = units * price

    for m in MONTHS:
        for s in SECTORS:
            for p in PRODUCTS:
                aspu = out[("Annual_Sector_Product_Unit_Sales", (s, p))]
                aspa = out[("Annual_Sector_Product_Sales_Amount", (s, p))]
                frac = MONTHLY_DISTRIBUTION[(m, s)]
                out[("MSP_Unit_Sales", (m, s, p))] = aspu * frac
                out[("MSP_Sales_Amount", (m, s, p))] = aspa * frac

    for m in MONTHS:
        for s in SECTORS:
            for p in PRODUCTS:
                for r in REGIONS:
                    msp = out[("MSP_Unit_Sales", (m, s, p))]
                    units = msp * REGION_DISTRIBUTION[(s, r)]
                    out[("MSPR_Unit_Sales", (m, s, p, r))] = units
                    out[("MSPR_Variable_Cost", (m, s, p, r))] = (
                        units * out[("PR_Unit_Cost", (p, r))])

    for m in MONTHS:
        var_cost = 0.0
        unit_sales = 0.0
        for s in SECTORS:
            for p in PRODUCTS:
                for r in REGIONS:
                    var_cost += out[("MSPR_Variable_Cost", (m, s, p, r))]
                    unit_sales += out[("MSPR_Unit_Sales", (m, s, p, r))]
        sales_amount = 0.0
        for s in SECTORS:
            for p in PRODUCTS:
                sales_amount += out[("MSP_Sales_Amount", (m, s, p))]
        out[("Monthly_Variable_Cost", (m,))] = var_cost
        out[("Monthly_Unit_Sales", (m,))] = unit_sales
        out[("Monthly_Sales_Amount", (m,))] = sales_amount
        out[("Monthly_Costs", (m,))] = MONTHLY_FIXED_COST + var_cost
        out[("Monthly_Profit", (m,))] = sales_amount - (MONTHLY_FIXED_COST + var_cost)

    for m in MONTHS:
        for p in PRODUCTS:
            for r in REGIONS:
                total = 0.0
                for s in SECTORS:
                    total += out[("MSPR_Unit_Sales", (m, s, p, r))]
                out[("MPR_Unit_Sales", (m, p, r))] = total

    for m in MONTHS:
        for p in PRODUCTS:
            us = 0.0
            sa = 0.0
            for s in SECTORS:
                us += out[("MSP_Unit_Sales", (m, s, p))]
                sa += out[("MSP_Sales_Amount", (m, s, p))]
            out[("MP_Unit_Sales", (m, p))] = us
            out[("MP_Sales_Amount", (m, p))] = sa

    total_profit = 0.0
    for m in MONTHS:
        total_profit += out[("Monthly_Profit", (m,))]
    out[("Total_Profit", ())] = total_profit
    return out


# Three-region pricing example: demand shrinks geometrically with price.
PRICING_REGIONS = ("Mountain", "Valley", "Lake")
PRICING_DISTRIBUTION = {"Mountain": 0.48, "Valley": 0.23, "Lake": 0.29}
PRICING_DELIVERY_COST = {"Mountain": 50.0, "Valley": 80.0, "Lake": 60.0}
PRICING_DEM_PAR_A = 376000.0
PRICING_DEM_PAR_B = 1.009
PRICING_FIXED_COST = 2500000.0
PRICING_MANUFACTURING_COST = 120.0


def oracle_pricing(price):
    """Flat reference calculation for the three-region pricing model."""
    out = {}
    out[("Price", ())] = float(price)
    out[("DemParA", ())] = PRICING_DEM_PAR_A
    out[("DemParB", ())] = PRICING_DEM_PAR_B
    out[("Fixed_Cost", ())] = PRICING_FIXED_COST
    out[("Manufacturing_Cost", ())] = PRICING_MANUFACTURING_COST
    for r in PRICING_REGIONS:
        out[("Distribution", (r,))] = PRICING_DISTRIBUTION[r]
        out[("Delivery_Cost", (r,))] = PRICING_DELIVERY_COST[r]

    total_demand = PRICING_DEM_PAR_A * math.pow(PRICING_DEM_PAR_B, -float(price))
    out[("Total_Demand", ())] = total_demand

    total_profit = 0.0
    for r in PRICING_REGIONS:
        regional_demand = total_demand * PRICING_DISTRIBUTION[r]
        unit_cost = PRICING_MANUFACTURING_COST + PRICING_DELIVERY_COST[r]
        variable_cost = regional_demand * unit_cost
        regional_fixed = PRICING_FIXED_COST * PRICING_DISTRIBUTION[r]
        total_cost = regional_fixed + variable_cost
        revenue = regional_demand * float(price)
        profit = revenue - total_cost
        out[("Regional_Demand", (r,))] = regional_demand
        out[("Unit_Cost", (r,))] = unit_cost
        out[("Variable_Cost", (r,))] = variable_cost
        out[("Regional_Fixed_Cost", (r,))] = regional_fixed
        out[("Total_Cost", (r,))] = total_cost
        out[("Revenue", (r,))] = revenue
        out[("Profit", (r,))] = profit
        total_profit += profit
    out[("Total_Profit", ())] = total_profit
    return out


# One token of a valid formula after optional blanks: a number, a name, or
# one mark.
_FORMULA_TOKEN = re.compile(
    r"\s*(?:((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|([A-Za-z_]\w*)|(\S))")


def oracle_formula(text):
    """Read one valid formula as nested tuples: ("num", value), ("ref",
    name), ("sum", name), ("neg", operand) and (op, left, right).

    Loosest to tightest: `+ -`, then `* /`, then unary minus, then `^`, which
    is left-associative. A minus right after `^` (or after such a minus)
    negates the next atom only, so `a ^ -b ^ c` is (a ^ -b) ^ c. A minus on
    a number is folded into it, as the parser does.
    """
    tokens = []
    for number, name, mark in _FORMULA_TOKEN.findall(text):
        tokens.append(("num", float(number)) if number else
                      ("name", name) if name else (mark, mark))
    tokens.append(("end", ""))
    pos = 0

    def peek():
        return tokens[pos][0]

    def take(kind=None):
        nonlocal pos
        tok = tokens[pos]
        assert kind is None or tok[0] == kind, (kind, tok, text)
        pos += 1
        return tok

    def negate(operand):
        if operand[0] == "num":
            return ("num", -operand[1])
        return ("neg", operand)

    def sums():  # + and -, left to right
        left = products()
        while peek() in ("+", "-"):
            op = take()[0]
            left = (op, left, products())
        return left

    def products():  # * and /, left to right
        left = prefixed()
        while peek() in ("*", "/"):
            op = take()[0]
            left = (op, left, prefixed())
        return left

    def prefixed():  # a unary minus takes a whole ^ chain
        if peek() == "-":
            take()
            return negate(prefixed())
        return powers()

    def powers():  # ^, left to right
        left = atom()
        while peek() == "^":
            take()
            left = ("^", left, exponent())
        return left

    def exponent():  # a minus right after ^ takes the next atom alone
        if peek() == "-":
            take()
            return negate(exponent())
        return atom()

    def atom():
        kind, value = take()
        if kind == "num":
            return ("num", value)
        if kind == "(":
            inner = sums()
            take(")")
            return inner
        assert kind == "name", (kind, text)
        if value != "SUM":
            return ("ref", value)
        take("(")
        source = take("name")[1]
        take(")")
        return ("sum", source)

    tree = sums()
    take("end")
    return tree
