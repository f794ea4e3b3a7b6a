"""Batch command-line front end.

Subcommands: lcoh, breakeven, crossover, frontier, validate.
Exit codes: 0 success, 1 input error, 2 computation error, 3 no solution.
Output is deterministic: fixed row ordering and fixed 4-decimal float
formatting so identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional, Sequence

from . import __version__, analysis, scenario as scenario_mod, smr
from .errors import DomainError, SchemaError, ValidationError
from .ingest import (
    REFERENCE_DATASET_NAME,
    Dataset,
    load_config,
    load_state_profiles,
    reference_dataset,
)
from .model import (
    ALL_PATHWAYS,
    ELECTROLYSIS_PATHWAYS,
    GridTrajectory,
    Scenario,
    SmrParams,
    Technology,
    TechnologyParams,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_COMPUTE = 2
EXIT_NO_SOLUTION = 3


def _fail(msg: str, code: int) -> int:
    print(f"h2cost: error: {msg}", file=sys.stderr)
    return code


def _sha256_path(path: Optional[str]) -> str:
    # Imported here: hashlib loads OpenSSL, and only JSON reports hash.
    import hashlib

    if path is None:
        data = (resources.files("h2cost.data")
                .joinpath(REFERENCE_DATASET_NAME).read_bytes())
    else:
        data = Path(path).read_bytes()
    return hashlib.sha256(data).hexdigest()


def _load_inputs(args) -> tuple[Dataset, list[TechnologyParams], SmrParams,
                                list[Scenario]]:
    if args.dataset is None:
        dataset = reference_dataset()
    else:
        dataset = load_state_profiles(args.dataset, strict=args.strict)
    registry, smr_params, scenarios = load_config(args.config)
    for sc in scenarios:
        sc.validate_against(registry, dataset.vintage_year)
    return dataset, registry, smr_params, scenarios


def _pick_scenario(scenarios: Sequence[Scenario], name: str) -> Scenario:
    for sc in scenarios:
        if sc.name == name:
            return sc
    raise SchemaError(f"unknown scenario {name!r}; available: "
                      f"{[s.name for s in scenarios]}")


def _sorted_rows(results):
    return sorted(results, key=lambda r: (r.state, r.pathway))


def _rows_csv(rows) -> str:
    lines = ["state,pathway,lcoh_usd_per_kg,carbon_intensity_kg_per_kg"]
    lines += [f"{r.state},{r.pathway},{r.lcoh:.4f},{r.carbon_intensity:.4f}"
              for r in rows]
    return "\n".join(lines) + "\n"


# json.dumps(report, indent=2, sort_keys=True) writes the rows section as
# below; _report_json fills it from a template instead of per-row dicts.
# Finite floats are written as repr() by json, and StateResult guarantees
# finite metrics. The anchor holds a raw newline, which json never leaves
# inside an encoded string, so it matches only the top-level "rows" key.
_ROWS_ANCHOR = '\n  "rows": [],\n'
_ROW_JSON = ('    {{\n'
             '      "carbon_intensity_kg_per_kg": {!r},\n'
             '      "lcoh_usd_per_kg": {!r},\n'
             '      "pathway": {},\n'
             '      "state": {}\n'
             '    }}')


def _report_json(report: dict, rows) -> str:
    """json.dumps({**report, "rows": rows}, indent=2, sort_keys=True) + "\n"
    for a non-empty list of rows, without building a dict per row."""
    head, tail = json.dumps({**report, "rows": []}, indent=2,
                            sort_keys=True).split(_ROWS_ANCHOR)
    body = ",\n".join(
        _ROW_JSON.format(round(r.carbon_intensity, 4), round(r.lcoh, 4),
                         encode_basestring_ascii(r.pathway),
                         encode_basestring_ascii(r.state))
        for r in rows)
    return f'{head}\n  "rows": [\n{body}\n  ],\n{tail}\n'


def _summary(dataset, registry, smr_params, sc, results) -> dict:
    averages = {}
    for pathway in ALL_PATHWAYS:
        cost, ci = analysis.national_average(results, pathway)
        averages[pathway] = {"lcoh": round(cost, 4), "carbon_intensity": round(ci, 4)}
    frontier = analysis.pareto_frontier(analysis.electrolysis_results(results))
    frontier_states = sorted({r.state for r in frontier})

    smr_ccs_mean = averages["SMR+CCS"]["lcoh"]
    breakevens = {}
    for tech in registry:
        projected = scenario_mod.project_params(tech, sc)
        price = scenario_mod.breakeven_electricity_price(
            projected, sc.capacity_factor, smr_ccs_mean)
        breakevens[tech.name.value] = None if price is None else round(price, 6)

    crossovers = {}
    if sc.grid_trajectory.kind == "linear_to_zero":
        for label, with_ccs in (("SMR", False), ("SMR+CCS", True)):
            target = smr.smr_emissions(smr_params, with_ccs).carbon_intensity
            year = scenario_mod.average_crossover_year(
                dataset, registry, sc.grid_trajectory, target)
            crossovers[f"avg_electrolysis_vs_{label}"] = year
    return {
        "averages": averages,
        "frontier_states": frontier_states,
        "breakeven_vs_smr_ccs_usd_per_kwh": breakevens,
        "crossover_years": crossovers,
    }


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_lcoh(args) -> int:
    dataset, registry, smr_params, scenarios = _load_inputs(args)
    sc = _pick_scenario(scenarios, args.scenario)
    try:
        results = _sorted_rows(analysis.state_table(dataset, registry,
                                                    smr_params, sc))
    except DomainError as exc:
        return _fail(str(exc), EXIT_COMPUTE)
    if args.format == "csv":
        _write_output(_rows_csv(results), args.out)
        return EXIT_OK
    report = {
        "metadata": {
            "tool_version": __version__,
            "dataset_vintage": dataset.vintage_year,
            "scenario": sc.name,
            "dataset_sha256": _sha256_path(args.dataset),
            "config_sha256": (_sha256_path(args.config)
                              if args.config else "builtin-defaults"),
        },
        "summary": _summary(dataset, registry, smr_params, sc, results),
    }
    _write_output(_report_json(report, results), args.out)
    return EXIT_OK


def cmd_breakeven(args) -> int:
    dataset, registry, smr_params, scenarios = _load_inputs(args)
    sc = _pick_scenario(scenarios, args.scenario)
    if args.target == "smr_ccs":
        results = analysis.state_table(dataset, registry, smr_params, sc)
        target, _ = analysis.national_average(results, "SMR+CCS")
    else:
        target = float(args.target)
    techs = registry
    if args.technology != "all":
        techs = [p for p in registry if p.name.value == args.technology]
        if not techs:
            return _fail(f"unknown technology {args.technology!r}", EXIT_INPUT)
    code = EXIT_OK
    for tech in techs:
        projected = scenario_mod.project_params(tech, sc)
        price = scenario_mod.breakeven_electricity_price(
            projected, sc.capacity_factor, target)
        if price is None:
            print(f"{tech.name.value}: no non-negative breakeven "
                  f"(target {target:.4f} below zero-electricity LCOH)")
            code = EXIT_NO_SOLUTION
        else:
            print(f"{tech.name.value}: breakeven electricity price "
                  f"{price:.4f} USD/kWh at target {target:.4f} USD/kg")
    return code


def cmd_crossover(args) -> int:
    dataset, registry, smr_params, _ = _load_inputs(args)
    if args.constant:
        trajectory = GridTrajectory.constant()
    else:
        trajectory = GridTrajectory.linear_to_zero(args.zero_year)
    code = EXIT_OK
    for label, with_ccs in (("SMR", False), ("SMR+CCS", True)):
        target = smr.smr_emissions(smr_params, with_ccs).carbon_intensity
        for tech in registry:
            year = scenario_mod.crossover_year(dataset, tech, trajectory, target)
            text = "no crossover" if year is None else str(year)
            print(f"{tech.name.value} vs {label} ({target:.1f} kg/kg): {text}")
        avg_year = scenario_mod.average_crossover_year(
            dataset, registry, trajectory, target)
        text = "no crossover" if avg_year is None else str(avg_year)
        print(f"average electrolysis vs {label} ({target:.1f} kg/kg): {text}")
        if avg_year is None:
            code = EXIT_NO_SOLUTION
    return code


def cmd_frontier(args) -> int:
    dataset, registry, smr_params, scenarios = _load_inputs(args)
    sc = _pick_scenario(scenarios, args.scenario)
    results = analysis.state_table(dataset, registry, smr_params, sc)
    frontier = _sorted_rows(
        analysis.pareto_frontier(analysis.electrolysis_results(results)))
    if args.format == "json":
        payload = [{"state": r.state, "pathway": r.pathway,
                    "lcoh_usd_per_kg": round(r.lcoh, 4),
                    "carbon_intensity_kg_per_kg": round(r.carbon_intensity, 4)}
                   for r in frontier]
        _write_output(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                      args.out)
    else:
        _write_output(_rows_csv(frontier), args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    dataset, registry, _, scenarios = _load_inputs(args)
    print(f"dataset: {len(dataset.profiles)} states, vintage "
          f"{dataset.vintage_year}")
    print(f"technologies: {[p.name.value for p in registry]}")
    print(f"scenarios: {[s.name for s in scenarios]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="h2cost",
        description="State-level levelized cost and carbon intensity of "
                    "hydrogen from electrolysis and SMR.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--dataset", help="state CSV (default: packaged 2020 "
                                         "reference dataset)")
        p.add_argument("--config", help="JSON config overriding defaults")
        p.add_argument("--no-strict", dest="strict", action="store_false",
                       help="skip incomplete dataset rows instead of failing")

    def scenario_option(p, default="base-2020"):
        p.add_argument("--scenario", default=default,
                       help=f"scenario name (default {default})")

    p = sub.add_parser("lcoh", help="full state x pathway cost/carbon table")
    common(p)
    scenario_option(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_lcoh)

    p = sub.add_parser("breakeven",
                       help="electricity price where electrolysis LCOH meets a target")
    common(p)
    scenario_option(p, default="aps-2050")
    p.add_argument("--technology", default="all",
                   choices=("all",) + ELECTROLYSIS_PATHWAYS)
    p.add_argument("--target", default="smr_ccs",
                   help="'smr_ccs' (dataset-average SMR+CCS LCOH) or a fixed "
                        "USD/kg value")
    p.set_defaults(func=cmd_breakeven)

    p = sub.add_parser("crossover",
                       help="year electrolysis CI drops below SMR benchmarks")
    common(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--zero-year", type=int, default=2035,
                       help="linear grid decarbonization reaching zero here")
    group.add_argument("--constant", action="store_true",
                       help="hold grid CI constant (reports no crossover)")
    p.set_defaults(func=cmd_crossover)

    p = sub.add_parser("frontier", help="electrolysis cost-carbon Pareto frontier")
    common(p)
    scenario_option(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("validate", help="load and validate inputs, then exit")
    common(p)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ValidationError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    except DomainError as exc:
        return _fail(str(exc), EXIT_COMPUTE)
    except OSError as exc:
        return _fail(str(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
