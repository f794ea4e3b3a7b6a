"""Batch command-line front end.

Subcommands: lcoh, breakeven, crossover, frontier, validate.
Exit codes: 0 success, 1 input error, 2 computation error, 3 no solution.
Output is deterministic: fixed row ordering and fixed 4-decimal float
formatting so identical inputs produce byte-identical reports.
"""

import argparse
import re
import sys
from collections.abc import Sequence
from itertools import chain, repeat
from pathlib import Path

from . import __version__, analysis, scenario as scenario_mod, smr
from .errors import DomainError, SchemaError, ValidationError
from .ingest import (
    load_config,
    load_state_profiles,
    read_input,
    reference_bytes,
    reference_dataset,
)
from .model import (
    ALL_PATHWAYS,
    BASE_YEAR,
    ELECTROLYSIS_PATHWAYS,
    Dataset,
    GridTrajectory,
    Scenario,
    SmrParams,
    TechnologyParams,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_COMPUTE = 2
EXIT_NO_SOLUTION = 3


def _fail(msg: str, code: int) -> int:
    print(f"h2cost: error: {msg}", file=sys.stderr)
    return code


def _sha256(data: bytes) -> str:
    # Imported here: hashlib loads OpenSSL, and only JSON reports hash.
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _load_inputs(args) -> tuple[Dataset, list[TechnologyParams], SmrParams,
                                list[Scenario], bytes, bytes | None]:
    """Parse the inputs args names, each file read once. Also returns the
    dataset and config bytes that were parsed (config None for the built-in
    defaults), so a report hashes exactly what it used."""
    if args.dataset is None:
        dataset_bytes = reference_bytes()
        dataset = reference_dataset(dataset_bytes)
    else:
        dataset_bytes = read_input(args.dataset, "dataset")
        dataset = load_state_profiles(args.dataset, strict=args.strict,
                                      data=dataset_bytes)
    config_bytes = (None if args.config is None
                    else read_input(args.config, "config"))
    registry, smr_params, scenarios = load_config(args.config, config_bytes)
    for sc in scenarios:
        sc.validate_against(registry)
    return dataset, registry, smr_params, scenarios, dataset_bytes, config_bytes


def _pick_scenario(scenarios: Sequence[Scenario], name: str) -> Scenario:
    for sc in scenarios:
        if sc.name == name:
            return sc
    raise SchemaError(f"unknown scenario {name!r}; available: "
                      f"{[s.name for s in scenarios]}")


def _rows_csv(row: str, rows) -> str:
    """The CSV header, then row % r for each tuple r."""
    return ("state,pathway,lcoh_usd_per_kg,carbon_intensity_kg_per_kg\n"
            + "".join(map(row.__mod__, rows)))


def _float_json(x: float) -> str:
    """The text json writes for a finite float rounded to four places."""
    return repr(round(x, 4))


def _json_column(col: Sequence[float]) -> list[str]:
    """[_float_json(x) for x in col] for finite x >= 0.

    Below 1e11, "%.4f" and round(x, 4) take the same correctly rounded
    digits, and no other decimal with at most four places lies within an
    ulp of the rounded double, so repr prints those digits with trailing
    zeros dropped and one digit kept after the point (this holds below
    2**52 * 1e-4, about 4.5e11). Such a column takes one "%.4f" format call;
    from 1e11 up only round and repr are exact. A constant column is
    formatted once.
    """
    first = col[0]
    if first and col.count(first) == len(col):   # nonzero: equal is same bits
        return [_float_json(first)] * len(col)
    if max(col) >= 1e11:
        return [_float_json(x) for x in col]
    text = ("%.4f," * len(col)) % tuple(col)
    for _ in range(3):          # strip up to three zeros, keeping one digit
        text = text.replace("0,", ",")
    return text.split(",")[:-1]


# _report_json writes the "rows" section as json.dumps(report, indent=2,
# sort_keys=True) does, a column at a time. The anchor holds a raw newline,
# which json never leaves inside an encoded string, so it matches only the
# top-level "rows" key.
_ROWS_ANCHOR = '\n  "rows": [],\n'


def _report_json(report: dict, states, columns) -> str:
    """json.dumps({**report, "rows": rows}, indent=2, sort_keys=True) + "\n"
    for the rows of state_columns sorted by (state, pathway): each state's
    block of rows joined from the pathways' columns, which state_columns
    guarantees finite."""
    # Imported here, as in cmd_frontier: only JSON output needs json.
    import json
    from json.encoder import encode_basestring_ascii

    head, tail = json.dumps({**report, "rows": []}, indent=2,
                            sort_keys=True).split(_ROWS_ANCHOR)
    quoted = list(map(encode_basestring_ascii, states))
    fields = []
    for pathway in sorted(columns):
        lcohs, cis = columns[pathway]
        fields += (repeat(',\n    {\n      "carbon_intensity_kg_per_kg": '),
                   _json_column(cis), repeat(',\n      "lcoh_usd_per_kg": '),
                   _json_column(lcohs),
                   repeat(f',\n      "pathway": '
                          f'{encode_basestring_ascii(pathway)},\n      "state": '),
                   quoted, repeat("\n    }"))
    body = "".join(chain.from_iterable(zip(*fields)))[2:]
    return f'{head}\n  "rows": [\n{body}\n  ],\n{tail}\n'


def _summary(dataset, registry, lines, smr_params, sc, states,
             columns) -> dict:
    means = {pathway: analysis.mean_point(pathway, *columns[pathway])
             for pathway in ALL_PATHWAYS}
    averages = {pathway: {"lcoh": round(cost, 4), "carbon_intensity": round(ci, 4)}
                for pathway, (cost, ci) in means.items()}
    frontier_states = sorted(
        {row[0] for row in analysis.column_frontier(states, columns)})

    smr_ccs_mean, _ = means["SMR+CCS"]
    breakevens = {}
    for name, floor, slope in lines:
        price = scenario_mod.line_breakeven(floor, slope, smr_ccs_mean)
        breakevens[name] = None if price is None else round(price, 6)

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


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_lcoh(args) -> int:
    (dataset, registry, smr_params, scenarios, dataset_bytes,
     config_bytes) = _load_inputs(args)
    sc = _pick_scenario(scenarios, args.scenario)
    lines = [scenario_mod.lcoh_line(t, sc) for t in registry]
    states, columns = analysis.state_columns(dataset, lines, smr_params, sc)
    if args.format == "csv":
        pathways, cells = sorted(columns), []
        for pathway in pathways:
            cells += (states, *columns[pathway])
        row = "".join(f"%s,{pathway},%.4f,%.4f\n" for pathway in pathways)
        _write_output(_rows_csv(row, zip(*cells)), args.out)
        return EXIT_OK
    report = {
        "metadata": {
            "tool_version": __version__,
            "dataset_vintage": BASE_YEAR,
            "scenario": sc.name,
            "dataset_sha256": _sha256(dataset_bytes),
            "config_sha256": ("builtin-defaults" if config_bytes is None
                              else _sha256(config_bytes)),
        },
        "summary": _summary(dataset, registry, lines, smr_params, sc, states,
                            columns),
    }
    _write_output(_report_json(report, states, columns), args.out)
    return EXIT_OK


def _target(text: str) -> float:
    """A --target other than smr_ccs: a finite USD/kg value >= 0 (-0 is 0)."""
    try:
        if 0.0 <= float(text) <= sys.float_info.max:
            return abs(float(text))
    except ValueError:
        pass
    raise SchemaError(f"--target must be 'smr_ccs' or a finite number >= 0, "
                      f"got {text!r}")


def cmd_breakeven(args) -> int:
    target = None if args.target == "smr_ccs" else _target(args.target)
    dataset, registry, smr_params, scenarios, *_ = _load_inputs(args)
    sc = _pick_scenario(scenarios, args.scenario)
    # Lines first, so a failing one prints nothing; SMR+CCS needs them all.
    lines = [scenario_mod.lcoh_line(t, sc) for t in registry
             if target is None or args.technology in ("all", t.name.value)]
    if target is None:
        _, columns = analysis.state_columns(dataset, lines, smr_params, sc)
        target, _ = analysis.mean_point("SMR+CCS", *columns["SMR+CCS"])
    code = EXIT_OK
    for name, floor, slope in lines:
        if args.technology not in ("all", name):
            continue
        price = scenario_mod.line_breakeven(floor, slope, target)
        if price is None:
            print(f"{name}: no non-negative breakeven "
                  f"(target {target:.4f} below zero-electricity LCOH)")
            code = EXIT_NO_SOLUTION
        else:
            print(f"{name}: breakeven electricity price "
                  f"{price:.4f} USD/kWh at target {target:.4f} USD/kg")
    return code


def cmd_crossover(args) -> int:
    dataset, registry, smr_params, *_ = _load_inputs(args)
    trajectory = (GridTrajectory.constant() if args.constant
                  else GridTrajectory.linear_to_zero(args.zero_year))
    code = EXIT_OK
    for label, with_ccs in (("SMR", False), ("SMR+CCS", True)):
        target = smr.smr_emissions(smr_params, with_ccs).carbon_intensity
        for tech in registry:
            year = scenario_mod.average_crossover_year(
                dataset, [tech], trajectory, target)
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
    dataset, registry, smr_params, scenarios, *_ = _load_inputs(args)
    sc = _pick_scenario(scenarios, args.scenario)
    lines = [scenario_mod.lcoh_line(t, sc) for t in registry]
    frontier = analysis.column_frontier(
        *analysis.state_columns(dataset, lines, smr_params, sc))
    if args.format == "json":
        import json

        payload = [{"state": state, "pathway": pathway,
                    "lcoh_usd_per_kg": round(cost, 4),
                    "carbon_intensity_kg_per_kg": round(ci, 4)}
                   for state, pathway, cost, ci in frontier]
        _write_output(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                      args.out)
    else:
        _write_output(_rows_csv("%s,%s,%.4f,%.4f\n", frontier), args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    dataset, registry, _, scenarios, *_ = _load_inputs(args)
    for sc in scenarios:  # every line lcoh would build, and its checks
        for tech in registry:
            scenario_mod.lcoh_line(tech, sc)
    print(f"dataset: {len(dataset.states)} states, vintage {BASE_YEAR}")
    print(f"technologies: {[p.name.value for p in registry]}")
    print(f"scenarios: {[s.name for s in scenarios]}")
    return EXIT_OK


_COMMAND_HELP = {
    "lcoh": "full state x pathway cost/carbon table",
    "breakeven": "electricity price where electrolysis LCOH meets a target",
    "crossover": "year electrolysis CI drops below SMR benchmarks",
    "frontier": "electrolysis cost-carbon Pareto frontier",
    "validate": "load and validate inputs, then exit",
}
COMMANDS = tuple(_COMMAND_HELP)


def _add_options(p: argparse.ArgumentParser, command: str) -> None:
    """Declare command's options on p, its own parser or the full tree's."""
    p.add_argument("--dataset", help="state CSV (default: packaged 2020 "
                                     "reference dataset)")
    p.add_argument("--config", help="JSON config overriding defaults")
    p.add_argument("--no-strict", dest="strict", action="store_false",
                   help="skip incomplete dataset rows instead of failing")
    if command in ("lcoh", "breakeven", "frontier"):
        default = "aps-2050" if command == "breakeven" else "base-2020"
        p.add_argument("--scenario", default=default,
                       help=f"scenario name (default {default})")
    if command in ("lcoh", "frontier"):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output path (default stdout)")
    elif command == "breakeven":
        # argparse takes "-1e-3" or "-inf" for an option, so --target got no
        # value; a word of "-" then a digit, ".digit", inf or nan is a value.
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.I)
        p.add_argument("--technology", default="all",
                       choices=("all",) + ELECTROLYSIS_PATHWAYS)
        p.add_argument("--target", default="smr_ccs",
                       help="'smr_ccs' (dataset-average SMR+CCS LCOH) or a "
                            "fixed USD/kg value")
    elif command == "crossover":
        group = p.add_mutually_exclusive_group()
        group.add_argument("--zero-year", type=int, default=2035,
                           help="linear grid decarbonization reaching zero here")
        group.add_argument("--constant", action="store_true",
                           help="hold grid CI constant (reports no crossover)")
    func = {"lcoh": cmd_lcoh, "breakeven": cmd_breakeven,
            "crossover": cmd_crossover, "frontier": cmd_frontier,
            "validate": cmd_validate}[command]
    p.set_defaults(func=func, command=command)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full argument parser; with a command name, that command's own.

    A command's parser, prog "h2cost <command>", is the full tree's
    subparser for it on its own: it parses the arguments after the command
    word, and prints the same help, usage and errors.
    """
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"h2cost {command}")
        _add_options(parser, command)
        return parser
    parser = argparse.ArgumentParser(
        prog="h2cost",
        description="State-level levelized cost and carbon intensity of "
                    "hydrogen from electrolysis and SMR.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMAND_HELP.items():
        _add_options(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the invoked command's parser is built. The full tree, with the
    # top-level usage, reads no command, --help, an unknown command, leftover
    # arguments and "--=...", which its top level finds ambiguous.
    args = rest = None
    if argv and argv[0] in COMMANDS and not any(
            a.startswith("--=") for a in argv):
        args, rest = build_parser(argv[0]).parse_known_args(argv[1:])
    if args is None or rest:
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
