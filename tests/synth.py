"""Seeded synthetic 4-D models for the frozen-output tests.

`dense_model(seed, counts)` returns `.dml` text over four dimensions
(M, S, P, R) with the given instance counts. It exercises 1-D, 2-D, 3-D
and 4-D broadcasts, every operator, unary minus, literals, and SUM that
eliminates leading, middle and trailing dimensions down to a scalar.
Data values are positive and bounded, so no seed can fail numerically.
"""

from __future__ import annotations

import itertools
import random

DIMS = ("M", "S", "P", "R")


def _table(rng, dims, counts, lo, hi, positional=False):
    axes = [[f"{d.lower()}{i}" for i in range(counts[d])] for d in dims]
    values = [round(rng.uniform(lo, hi), 6) for _ in itertools.product(*axes)]
    if positional:
        return "[" + ", ".join(map(repr, values)) + "]"
    keys = [",".join(k) for k in itertools.product(*axes)]
    return "{" + ", ".join(f"{k}: {v!r}" for k, v in zip(keys, values)) + "}"


def dense_model(seed: int, counts: tuple[int, int, int, int]) -> str:
    rng = random.Random(f"synth:{seed}")
    n = dict(zip(DIMS, counts))
    lines = [f"dimension {d} = [{', '.join(f'{d.lower()}{i}' for i in range(n[d]))}]"
             for d in DIMS]

    def data(name, dims, lo, hi, kind="data", positional=False):
        over = f" over ({', '.join(dims)})" if dims else ""
        body = (repr(round(rng.uniform(lo, hi), 6)) if not dims
                else _table(rng, dims, n, lo, hi, positional))
        lines.append(f"{kind} {name}{over} = {body}")

    data("Growth", (), 0.8, 1.2, kind="input")
    data("Season", ("M",), 0.5, 1.5, positional=True)
    data("Price", ("P",), 80, 150, positional=True)
    data("Cost", ("P",), 20, 40)
    data("Ship", ("R",), 5, 15)
    data("Share", ("S", "P"), 0.5, 1.5)
    data("Route", ("S", "R"), 0.5, 1.5)
    data("Fixed", ("M", "R"), 100, 900)
    # the seed also picks among equivalent-shaped formula variants
    mix = rng.choice(["Season * Route + Share", "Route / Season - -Share"])
    scale = rng.choice(["1.5", "0.25", "3"])
    lines += [
        "calc Margin over (P, R) = Price - Cost - Ship",
        "calc Demand over (M, S, P) = Season * Share ^ Growth",
        "output Units over (M, S, P, R) = Demand * Route",
        f"calc Profit over (M, S, P, R) = Units * Margin - Fixed / Units * {scale}",
        f"output Mix over (M, S, P, R) = {mix}",
        "output Profit_MPR over (M, P, R) = SUM(Profit)",
        "output Profit_SPR over (S, P, R) = -SUM(Profit) + 0.5 * Route",
        "output Profit_MS over (M, S) = SUM(Profit) / SUM(Demand)",
        "output Ratio over (M, R) = SUM(Profit) / SUM(Units) ^ 0.5",
        "output Elastic over (M, P) = Season ^ -Growth * (Price - -2)",
        "output Total = SUM(Profit) - SUM(Mix) * Growth",
    ]
    return "\n".join(lines) + "\n"
