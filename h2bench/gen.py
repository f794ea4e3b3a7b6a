"""Seeded inputs for the h2cost benchmark.

Every input is derived from the workload seed alone: the same seed writes
the same bytes. The program under test only ever sees the files written
here; what each operation is expected to produce stays with the benchmark.

- ``report_inputs``: one 676-state dataset (codes AA..ZZ) and one config
  with 16 scenarios that between them use every price rule, capacity
  factors 0.4/0.6/1.0, both learning cases, both grid trajectories and
  lifetime and O&M overrides.
- ``validate_pool``: 64 (dataset, config) pairs with shuffled column order,
  a quarter of the valid ones read with ``--no-strict`` and some blank
  rows, and one input in eight invalid, one of each kind in
  ``INVALID_KINDS``. Those kinds come from the known input-hardening gaps,
  so most of them are expected to fail until the program rejects them.
- ``cli_cold_ops``: the fixed command list on the packaged dataset and
  ``configs/example_config.json``, rotated by the seed.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

STATES = tuple(a + b for a in string.ascii_uppercase
               for b in string.ascii_uppercase)
COLUMNS = ("state", "electricity_usd_per_kwh", "gas_usd_per_mmbtu",
           "grid_ci_kg_per_kwh")
TECHS = ("Alkaline", "PEM", "SOEC")
BASE_TARGETS = {"Alkaline": 20_000.0, "PEM": 90.0, "SOEC": 2.0}
PATHWAYS = TECHS + ("SMR", "SMR+CCS")
REPORT_SCENARIOS = 16
# Scenarios with a fixed price and a grid that is carbon-free by the target
# year: every state ties on cost and on carbon intensity, the worst case of
# the Pareto frontier. Three of 16 ops, so op_ms.p90 falls inside them and
# not on the edge between them and the rest.
ALL_TIES = (1, 7, 10)
POOL_SIZE = 64
POOL_SCENARIOS = 8
INVALID_KINDS = (
    "tech_non_numeric",         # technologies.<T>.<field> = "n/a"
    "target_year_non_numeric",  # scenarios[i].target_year = "2O40"
    "anchor_non_numeric",       # smr.emissions_anchors[i][j] = "n/a"
    "efficiency_infinity",      # technologies.<T>.efficiency = Infinity
    "price_inf",                # a CSV electricity price of "inf"
    "duplicate_state_column",   # the CSV header names `state` twice
    "duplicate_scenario_name",  # two scenarios share a name
    "negative_cost",            # technologies.<T>.unit_system_cost < 0
)


@dataclass
class Op:
    """One operation: the CLI arguments and what a correct run produces."""

    argv: list[str]
    key: str                      # same key, same input: same output bytes
    expect_code: int = 0
    kind: str = "valid"           # "valid" or one of INVALID_KINDS
    out: Optional[str] = None     # --out path, else the output is stdout
    rows_total: int = 0           # data rows in the dataset file
    expect: dict = field(default_factory=dict)  # facts the checks compare


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"h2bench:{workload}:{seed}")


def state_rows(rng: random.Random) -> list[list[str]]:
    """676 rows in COLUMNS order, values in the range of the 2020 data."""
    return [[s, f"{rng.uniform(0.04, 0.20):.4f}", f"{rng.uniform(2.0, 9.0):.2f}",
             f"{rng.uniform(0.0, 0.9):.3f}"] for s in STATES]


def write_csv(path: Path, header, rows) -> None:
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n",
                    encoding="utf-8")


def scenario(rng: random.Random, i: int) -> dict:
    """Scenario i of a config; i picks the structure, rng the values."""
    sc = {
        "name": f"s{i:02d}",
        "target_year": rng.randint(2020, 2050),
        "learning_case": ("APS", "NZE")[i % 2],
        "cumulative_production_target": {
            t: round(base * 10 ** rng.uniform(0.0, 5.0), 1)
            for t, base in BASE_TARGETS.items()},
        "capacity_factor": (0.4, 0.6, 1.0)[(i // 3) % 3],
    }
    rule = i % 3
    if rule == 0:
        sc["electricity_price_rule"] = {"kind": "dataset"}
    elif rule == 1:
        sc["electricity_price_rule"] = {"kind": "fixed",
                                        "value": round(rng.uniform(0.01, 0.06), 4)}
    else:
        sc["electricity_price_rule"] = {"kind": "multiplier",
                                        "value": round(rng.uniform(0.3, 1.2), 3)}
    if i % 4 >= 2 or i in ALL_TIES:
        zero = rng.randint(2030, 2050)
        sc["grid_trajectory"] = {"kind": "linear_to_zero", "zero_year": zero}
        # Only the ALL_TIES scenarios reach a carbon-free grid by their
        # target year, so every seed has the same number of them.
        sc["target_year"] = (rng.randint(zero, 2050) if i in ALL_TIES
                             else rng.randint(2020, zero - 1))
    else:
        sc["grid_trajectory"] = {"kind": "constant"}
    if i % 4 == 1 or i % 8 == 6:
        sc["lifetime_override"] = {t: round(rng.uniform(40, 160), 1) for t in TECHS}
    if i % 4 == 3 or i % 8 == 4:
        sc["unit_om_cost_override"] = {t: round(rng.uniform(0, 2_000), 1)
                                       for t in TECHS}
    return sc


def config(rng: random.Random, n_scenarios: int = REPORT_SCENARIOS) -> dict:
    """A full config; efficiencies and SMR terms are explicit so the checks
    can compare the report against the inputs alone."""
    return {
        "technologies": {
            "Alkaline": {"efficiency": round(rng.uniform(50, 60), 2),
                         "unit_system_cost": round(rng.uniform(500, 1_000), 1)},
            "PEM": {"efficiency": round(rng.uniform(46, 56), 2),
                    "unit_om_cost": round(rng.uniform(1_000, 2_000), 1)},
            "SOEC": {"efficiency": round(rng.uniform(38, 48), 2),
                     "unit_system_cost": round(rng.uniform(1_500, 3_000), 1)},
        },
        "smr": {
            "base_cost": round(rng.uniform(0.2, 0.5), 3),
            "gas_sensitivity": round(rng.uniform(0.1, 0.2), 3),
            "electricity_sensitivity": round(rng.uniform(0.0, 0.05), 3),
            "ccs_adder": round(rng.uniform(0.3, 0.6), 3),
            "emissions_anchors": [[0.002, 10.0, 2.6], [0.015, 11.4, 3.8],
                                  [0.080, 17.9, 10.3]],
            "leakage_rate": round(rng.uniform(0.005, 0.07), 4),
        },
        "scenarios": [scenario(rng, i) for i in range(n_scenarios)],
    }


def report_inputs(seed: int, directory: Path) -> list[Op]:
    """report-676: one dataset, one 16-scenario config, one op per scenario."""
    rng = rng_for("report-676", seed)
    rows = state_rows(rng)
    cfg = config(rng)
    dataset, cfg_path, out = (directory / "states676.csv",
                              directory / "report.json", directory / "report_out.json")
    write_csv(dataset, COLUMNS, rows)
    cfg_path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    efficiency = {t: cfg["technologies"][t]["efficiency"] for t in TECHS}
    prices = {r[0]: float(r[1]) for r in rows}
    gas = {r[0]: float(r[2]) for r in rows}
    ops = []
    for sc in cfg["scenarios"]:
        rule = sc["electricity_price_rule"]
        slope = {"dataset": 1.0, "fixed": 0.0,
                 "multiplier": rule.get("value")}[rule["kind"]]
        ops.append(Op(
            argv=["lcoh", "--format", "json", "--dataset", str(dataset),
                  "--config", str(cfg_path), "--scenario", sc["name"],
                  "--out", str(out)],
            key=f"lcoh-json:{sc['name']}", out=str(out), rows_total=len(rows),
            expect={"format": "json", "states": len(rows), "scenario": sc["name"],
                    "price_slope": slope, "efficiency": efficiency,
                    "prices": prices, "gas": gas, "smr": cfg["smr"]}))
    return ops


def _invalid(kind: str, rng: random.Random, header: list[str],
             rows: list[list[str]], cfg: dict) -> None:
    """Apply one invalid-input mutation in place."""
    tech = rng.choice(TECHS)
    if kind == "tech_non_numeric":
        fld = rng.choice(("unit_system_cost", "unit_om_cost", "efficiency", "lifetime"))
        cfg["technologies"][tech][fld] = rng.choice(("n/a", "12,5", "1e3kW"))
    elif kind == "target_year_non_numeric":
        year = rng.choice(("2O40", "2040a", "soon"))
        rng.choice(cfg["scenarios"])["target_year"] = year
    elif kind == "anchor_non_numeric":
        anchors = cfg["smr"]["emissions_anchors"]
        anchors[rng.randrange(len(anchors))][rng.randrange(3)] = "n/a"
    elif kind == "efficiency_infinity":
        cfg["technologies"][tech]["efficiency"] = float("inf")
    elif kind == "price_inf":
        rows[rng.randrange(len(rows))][1] = "inf"
    elif kind == "duplicate_state_column":
        header.append("state")
        for r in rows:
            r.append(r[0])
    elif kind == "duplicate_scenario_name":
        scs = cfg["scenarios"]
        scs[rng.randrange(1, len(scs))]["name"] = scs[0]["name"]
    elif kind == "negative_cost":
        cfg["technologies"][tech]["unit_system_cost"] = -round(rng.uniform(1, 1_000), 1)
    else:
        raise ValueError(f"unknown invalid kind {kind!r}")


def validate_pool(seed: int, directory: Path) -> list[Op]:
    """validate-676: 56 valid and 8 invalid inputs, in a seeded order."""
    rng = rng_for("validate-676", seed)
    plan = ["valid"] * (POOL_SIZE - len(INVALID_KINDS)) + list(INVALID_KINDS)
    rng.shuffle(plan)
    ops = []
    for k, kind in enumerate(plan):
        rows = state_rows(rng)
        cfg = config(rng, n_scenarios=POOL_SCENARIOS)
        header = list(COLUMNS)
        no_strict = kind == "valid" and rng.random() < 0.25
        kept = len(rows)
        if no_strict:
            for r in rng.sample(rows, rng.randint(1, 20)):
                r[rng.randrange(1, len(COLUMNS))] = ""
                kept -= 1
        if kind != "valid":
            _invalid(kind, rng, header, rows, cfg)
        order = list(range(len(header)))
        rng.shuffle(order)
        dataset = directory / f"pool{k:02d}.csv"
        cfg_path = directory / f"pool{k:02d}.json"
        write_csv(dataset, [header[i] for i in order],
                  [[r[i] for i in order] for r in rows])
        cfg_path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        argv = ["validate", "--dataset", str(dataset), "--config", str(cfg_path)]
        if no_strict:
            argv.append("--no-strict")
        ops.append(Op(
            argv=argv, key=f"validate:{k}", kind=kind,
            expect_code=0 if kind == "valid" else 1, rows_total=len(rows),
            expect={"format": "validate", "states": kept,
                    "scenarios": [s["name"] for s in cfg["scenarios"]]}))
    return ops


def cli_cold_ops(seed: int, example_config: Path) -> list[Op]:
    """cli-cold: the fixed command list, starting at a seeded offset."""
    cfg = str(example_config)
    json_ = {"format": "json", "states": 51}
    ops = [
        Op(["lcoh", "--format", "json"], "lcoh-json:base-2020",
           expect={**json_, "scenario": "base-2020", "anchor": "2020"}),
        Op(["lcoh", "--format", "json", "--scenario", "aps-2050"],
           "lcoh-json:aps-2050",
           expect={**json_, "scenario": "aps-2050", "anchor": "2050"}),
    ]
    for name in ("offpeak-2020", "nze-2050"):
        ops.append(Op(["lcoh", "--config", cfg, "--scenario", name],
                      f"lcoh-csv:{name}", expect={"format": "csv", "states": 51}))
        ops.append(Op(["lcoh", "--format", "json", "--config", cfg,
                       "--scenario", name], f"lcoh-json:{name}",
                      expect={**json_, "scenario": name}))
    ops += [
        Op(["breakeven"], "breakeven", expect={"format": "breakeven"}),
        Op(["crossover"], "crossover", expect={"format": "crossover"}),
        Op(["frontier"], "frontier", expect={"format": "frontier"}),
        Op(["validate", "--config", cfg], "validate:example",
           expect={"format": "validate", "states": 51,
                   "scenarios": ["offpeak-2020", "nze-2050"]}),
    ]
    for op in ops:
        op.rows_total = 51
    start = rng_for("cli-cold", seed).randrange(len(ops))
    return ops[start:] + ops[:start]
