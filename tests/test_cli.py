import argparse
import builtins
import codecs
import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from h2cost import analysis, cli, scenario as scenario_mod, smr
from h2cost.cli import COMMANDS, build_parser, main
from h2cost.ingest import REFERENCE_DATASET, read_input
from h2cost.model import (
    StateEnergyProfile,
    default_registry,
    default_smr_params,
)
from inputs import read_config, read_dataset

EXAMPLE_CONFIG = str(Path(__file__).resolve().parents[1] / "configs"
                     / "example_config.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lcoh_csv_table(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, _, _ = run(capsys, "lcoh", "--format", "csv", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "state,pathway,lcoh_usd_per_kg,carbon_intensity_kg_per_kg"
    assert len(lines) == 1 + 51 * 5  # 255 result rows


def test_lcoh_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "lcoh", "--format", "json", "--out", str(a))[0] == 0
    assert run(capsys, "lcoh", "--format", "json", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_lcoh_json_report_shape(tmp_path, capsys):
    out = tmp_path / "report.json"
    run(capsys, "lcoh", "--format", "json", "--out", str(out))
    report = json.loads(out.read_text())
    assert report["metadata"]["dataset_vintage"] == 2020
    assert report["metadata"]["scenario"] == "base-2020"
    assert len(report["metadata"]["dataset_sha256"]) == 64
    assert len(report["rows"]) == 255
    assert report["rows"] == sorted(report["rows"],
                                    key=lambda r: (r["state"], r["pathway"]))
    summary = report["summary"]
    assert set(summary["averages"]) == {"Alkaline", "PEM", "SOEC", "SMR", "SMR+CCS"}
    assert "WA" in summary["frontier_states"]


@pytest.mark.parametrize("extra", [
    ["--scenario", "base-2020"],
    ["--scenario", "aps-2050"],
    ["--config", EXAMPLE_CONFIG, "--scenario", "offpeak-2020"],
    ["--config", EXAMPLE_CONFIG, "--scenario", "nze-2050"],
])
def test_lcoh_json_equals_stdlib_dump(capsys, extra):
    code, out, _ = run(capsys, "lcoh", "--format", "json", *extra)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


FLOATS = (st.floats(min_value=0.0, max_value=1e300)
          | st.floats(min_value=0.0, max_value=1e12))


@given(st.lists(FLOATS, min_size=1, max_size=40)
       | FLOATS.flatmap(lambda x: st.integers(1, 20).map(lambda n: [x] * n)))
@example([0.0, -0.0, 5e-05, 1e11, math.nextafter(1e11, 0.0),
          math.nextafter(1e11, math.inf)])
@example([0.0, -0.0, 5e-05, math.nextafter(1e11, 0.0)])
@example([0.0] * 3)
@example([-0.0] * 3)
@example([-0.0, 0.0])
@example([2.5] * 4)
@example([1e11] * 3)
@example([1.0, 2e11, 3.25, 99999999999.99995, 1e16])
@example([4.5e11])
@example([1.0, 4.5e11])
def test_json_column_is_float_json_per_value(col):
    assert cli._json_column(col) == [repr(round(x, 4)) for x in col]


def test_lcoh_json_rows_anchor_in_scenario_name(tmp_path, capsys):
    name = 'odd\n  "rows": [],\n  name'
    config = json.loads(Path(EXAMPLE_CONFIG).read_text())
    config["scenarios"][0]["name"] = name
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, "lcoh", "--format", "json", "--config",
                       str(path), "--scenario", name)
    assert code == 0
    report = json.loads(out)
    assert report["metadata"]["scenario"] == name
    assert len(report["rows"]) == 255
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_infinite_price_exits_1(tmp_path, capsys, fmt):
    dataset = tmp_path / "states.csv"
    dataset.write_text("state,electricity_usd_per_kwh,gas_usd_per_mmbtu,"
                       "grid_ci_kg_per_kwh\nTX,0.0449,1.88,0.36\n"
                       "WA,inf,3.1,0.09\n")
    code, out, err = run(capsys, "lcoh", "--format", fmt,
                         "--dataset", str(dataset))
    assert code == 1
    assert out == ""
    assert err.startswith("h2cost: error: state WA:")
    assert len(err.splitlines()) == 1


def test_missing_dataset_exits_1(capsys):
    code, _, err = run(capsys, "lcoh", "--dataset", "/no/such/file.csv")
    assert code == 1
    assert err.startswith("h2cost: error:")
    assert "/no/such/file.csv" in err


@pytest.mark.parametrize("argv, code, target", [
    (["lcoh", "--out", "{tmp}/missing/x.csv"], errno.ENOENT,
     "{tmp}/missing/x.csv"),
    (["validate", "--dataset", "{tmp}"], errno.EISDIR, "{tmp}"),
    (["validate", "--config", "{tmp}"], errno.EISDIR, "{tmp}"),
], ids=["out-in-missing-directory", "dataset-is-a-directory",
        "config-is-a-directory"])
def test_an_os_error_is_one_input_error_line(tmp_path, capsys, argv, code,
                                             target):
    argv = [a.format(tmp=tmp_path) for a in argv]
    path = target.format(tmp=tmp_path)
    assert run(capsys, *argv) == (
        1, "", f"h2cost: error: [Errno {code}] {os.strerror(code)}: {path!r}\n")


def test_unknown_scenario_exits_1(capsys):
    code, _, err = run(capsys, "lcoh", "--scenario", "nope")
    assert code == 1
    assert "nope" in err


def test_breakeven_2050_smr_ccs(capsys):
    code, out, _ = run(capsys, "breakeven", "--scenario", "aps-2050")
    assert code == 0
    prices = [float(line.split()[4]) for line in out.strip().splitlines()]
    assert len(prices) == 3
    assert all(0.015 <= p <= 0.03 for p in prices)


@pytest.mark.parametrize("target", ["abc", "nan", "inf", "-inf", "1e400", "-1",
                                    "", "smr-ccs", "-1e-3", "-1E5", "1_0",
                                    "\uff13", "\u0663.5"])
def test_breakeven_rejects_a_target_that_is_not_a_finite_number(capsys, target):
    # "--target=-1e-3", and "--target" "-1e-3" as two words, which argparse
    # would otherwise read as an unknown option.
    for argv in ([f"--target={target}"], ["--target", target]):
        code, out, err = run(capsys, "breakeven", *argv)
        assert (code, out) == (1, ""), argv
        assert err == (f"h2cost: error: --target must be 'smr_ccs' or a finite "
                       f"number >= 0, got {target!r}\n")


@pytest.mark.parametrize("target, code, first", [
    ("0", 3, "Alkaline: no non-negative breakeven (target 0.0000 below "
             "zero-electricity LCOH)"),
    ("-0e9", 3, "Alkaline: no non-negative breakeven (target 0.0000 below "
                "zero-electricity LCOH)"),
    ("3.0", 0, "Alkaline: breakeven electricity price 0.0528 USD/kWh at "
               "target 3.0000 USD/kg"),
    (" 3.0\t", 0, "Alkaline: breakeven electricity price 0.0528 USD/kWh at "
                  "target 3.0000 USD/kg"),
])
def test_breakeven_takes_a_finite_target(capsys, target, code, first):
    got, out, err = run(capsys, "breakeven", "--target", target)
    assert (got, err) == (code, "")
    assert out.splitlines()[0] == first and len(out.splitlines()) == 3


def test_breakeven_unattainable_exits_3(capsys):
    code, out, _ = run(capsys, "breakeven", "--technology", "PEM",
                       "--target", "0.0001")
    assert code == 3
    assert "no non-negative breakeven" in out


@pytest.mark.parametrize("year", ["abc", "2_040", "\uff12\uff10\uff14\uff10",
                                  "2040.0", ""])
def test_zero_year_is_read_as_a_dataset_cell_is(capsys, year):
    # int() reads "2_040" and fullwidth digits; a dataset cell does not.
    with pytest.raises(SystemExit) as info:
        main(["crossover", "--zero-year", year])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"h2cost crossover: error: argument --zero-year: invalid int value: "
        f"{year!r}\n")
    assert (run(capsys, "crossover", "--zero-year", " 2040 ")
            == run(capsys, "crossover", "--zero-year", "2040"))


def test_crossover_linear(capsys):
    code, out, _ = run(capsys, "crossover", "--zero-year", "2035")
    assert code == 0
    lines = dict(line.rsplit(": ", 1) for line in out.strip().splitlines())
    smr_avg = int(lines["average electrolysis vs SMR (12.9 kg/kg)"])
    ccs_avg = int(lines["average electrolysis vs SMR+CCS (5.3 kg/kg)"])
    assert abs(smr_avg - 2025) <= 1
    assert abs(ccs_avg - 2030) <= 1


def test_crossover_constant_reports_none(capsys):
    code, out, _ = run(capsys, "crossover", "--constant")
    assert code == 3
    assert "no crossover" in out


def test_frontier_membership(capsys):
    code, out, _ = run(capsys, "frontier", "--format", "csv")
    assert code == 0
    states = {line.split(",")[0] for line in out.strip().splitlines()[1:]}
    assert "WA" in states and "MA" not in states and "RI" not in states


def test_validate(capsys):
    code, out, _ = run(capsys, "validate")
    assert code == 0
    assert "51 states" in out


def test_report_hashes_the_bytes_it_parsed_opening_each_input_once(
        tmp_path, capsys, monkeypatch):
    src = Path(__file__).resolve().parents[1] / "src"
    packaged = src / "h2cost" / "data" / "state_profiles_2020.csv"
    dataset, config = tmp_path / "states.csv", tmp_path / "config.json"
    dataset.write_bytes(packaged.read_bytes().replace(b"\n", b"\r\n"))
    config.write_bytes(Path(EXAMPLE_CONFIG).read_bytes())
    opened = []
    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", lambda file, *a, **k: (
        opened.append(Path(file).name), real_open(file, *a, **k))[1])
    for extra, data_file, config_file in [
            ([], packaged, None),
            (["--dataset", str(dataset), "--config", str(config),
              "--scenario", "nze-2050"], dataset, config)]:
        opened.clear()
        code, out, _ = run(capsys, "lcoh", "--format", "json", *extra)
        assert code == 0
        names = [data_file.name] + ([config_file.name] if config_file else [])
        assert sorted(opened) == sorted(names)
        meta = json.loads(out)["metadata"]
        assert meta["dataset_sha256"] == hashlib.sha256(
            data_file.read_bytes()).hexdigest()
        assert meta["config_sha256"] == (
            hashlib.sha256(config_file.read_bytes()).hexdigest()
            if config_file else "builtin-defaults")


@pytest.mark.parametrize("command", ["validate", "lcoh"])
@pytest.mark.parametrize("which", ["dataset", "config"])
def test_non_utf8_input_is_one_error_line(tmp_path, capsys, command, which):
    argv = _write_inputs(tmp_path, HEADER, ROWS, EXAMPLE)
    path = Path(argv[argv.index(f"--{which}") + 1])
    old = b"TX" if which == "dataset" else b"offpeak-2020"
    path.write_bytes(path.read_bytes().replace(old, old[:-1] + b"\xe9"))
    code, out, err = run(capsys, command, *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith(f"h2cost: error: {path}: not UTF-8 text: "
                          "'utf-8' codec can't decode byte 0xe9 in position ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["lcoh"], ["lcoh", "--format", "json"], ["frontier"], ["breakeven"],
    ["validate"]])
def test_float_overflow_in_a_technology_is_named(tmp_path, capsys, argv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"technologies": {
        "PEM": {"unit_system_cost": 1e308, "capacity": 1e308}}}))
    code, out, err = run(capsys, *argv, "--config", str(config))
    assert (code, out) == (1, "")
    assert err == ("h2cost: error: PEM: LCOH is undefined "
                   "(costs or output overflow the float range)\n")


@pytest.mark.parametrize("argv", [
    ["lcoh"], ["frontier"], ["breakeven"], ["validate"]])
def test_underflowing_output_is_one_error_line(tmp_path, capsys, argv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"technologies": {
        "PEM": {"capacity": 1e-300, "efficiency": 1e300}}}))
    assert run(capsys, *argv, "--config", str(config)) == (
        1, "", "h2cost: error: PEM: LCOH is undefined "
               "(hydrogen output underflows to zero)\n")


@pytest.mark.parametrize("fields", [
    {"unit_system_cost": 1e308, "capacity": 1e308},
    {"unit_system_cost": 1e308, "capacity": 1e3},
    {"unit_system_cost": 1e-300, "capacity": 1e306},
])
def test_validate_and_lcoh_agree_on_each_overflow_shape(tmp_path, capsys,
                                                        fields):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"technologies": {"PEM": fields}}))
    want = (1, "", "h2cost: error: PEM: LCOH is undefined (costs or output "
                   "overflow the float range)\n")
    for argv in (["validate"], ["lcoh"]):
        assert run(capsys, *argv, "--config", str(config)) == want, argv


def test_validate_checks_the_lines_of_every_scenario(tmp_path, capsys):
    # Only scenario b overflows: its PEM lifetime makes the output infinite.
    config = tmp_path / "config.json"
    scenario = {"target_year": 2020, "learning_case": "APS",
                "cumulative_production_target": {}}
    config.write_text(json.dumps({
        "technologies": {"PEM": {"discount_rate": 0}},
        "scenarios": [{**scenario, "name": "a"},
                      {**scenario, "name": "b",
                       "lifetime_override": {"PEM": 1e306}}]}))
    want = (1, "", "h2cost: error: PEM: LCOH is undefined (costs or output "
                   "overflow the float range)\n")
    assert run(capsys, "lcoh", "--config", str(config), "--scenario", "a")[0] == 0
    for argv in (["validate"], ["lcoh", "--scenario", "b"]):
        assert run(capsys, *argv, "--config", str(config)) == want, argv


def test_breakeven_prints_nothing_when_a_line_fails(tmp_path, capsys):
    # Alkaline comes first and is fine; PEM's line overflows in scenario b.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "technologies": {"PEM": {"discount_rate": 0}},
        "scenarios": [{"name": "b", "target_year": 2020,
                       "learning_case": "APS",
                       "cumulative_production_target": {},
                       "lifetime_override": {"PEM": 1e306}}]}))
    want = run(capsys, "lcoh", "--config", str(config), "--scenario", "b")
    assert want == (1, "", "h2cost: error: PEM: LCOH is undefined (costs or "
                           "output overflow the float range)\n")
    for target in ("3", "smr_ccs"):
        assert run(capsys, "breakeven", "--target", target, "--scenario", "b",
                   "--config", str(config)) == want, target


@pytest.mark.parametrize("config, scenario", [
    (None, "base-2020"), (None, "aps-2050"),
    (EXAMPLE_CONFIG, "offpeak-2020"), (EXAMPLE_CONFIG, "nze-2050")])
def test_report_breakevens_are_the_breakeven_command_rounded(capsys, config,
                                                             scenario):
    # Both solve against the unrounded dataset-average SMR+CCS LCOH.
    extra = [] if config is None else ["--config", config]
    registry, smr_params, scenarios = read_config(config)
    sc = next(s for s in scenarios if s.name == scenario)
    _, columns = analysis.state_columns(
        read_dataset(), [scenario_mod.lcoh_line(t, sc) for t in registry]
        + [smr.smr_line(smr_params, ccs) for ccs in (False, True)], sc)
    target, _ = analysis.mean_point("SMR+CCS", *columns["SMR+CCS"])
    prices = {t.name.value: scenario_mod.breakeven_electricity_price(
        scenario_mod.project_params(t, sc), sc.capacity_factor, target)
        for t in registry}
    _, out, _ = run(capsys, "breakeven", "--scenario", scenario, *extra)
    assert out.splitlines() == [
        f"{name}: no non-negative breakeven (target {target:.4f} below "
        f"zero-electricity LCOH)" if price is None else
        f"{name}: breakeven electricity price {price:.4f} USD/kWh at target "
        f"{target:.4f} USD/kg" for name, price in prices.items()]
    code, out, _ = run(capsys, "lcoh", "--format", "json", "--scenario",
                       scenario, *extra)
    assert code == 0
    assert json.loads(out)["summary"]["breakeven_vs_smr_ccs_usd_per_kwh"] == {
        name: None if price is None else round(price, 6)
        for name, price in prices.items()}


PEM_EFFICIENCY = str(Path(__file__).resolve().parent / "golden"
                     / "pem-efficiency.json")


@pytest.mark.parametrize("config, scenario, checked", [
    (EXAMPLE_CONFIG, "nze-2050", {2035: (2025, 2031)}),
    (PEM_EFFICIENCY, "base-2020", {2071: (2038, 2058)})])
def test_report_crossover_years_are_the_crossover_commands(tmp_path, capsys,
                                                           config, scenario,
                                                           checked):
    # The report takes kWh/kg from its records and crossover from the
    # registry; both reach scenario.crossover_year, so the years agree.
    raw = json.loads(Path(config).read_text())
    path = tmp_path / "config.json"
    for zero in (2021, 2035, 2050, 2071, 2100, 10 ** 15):
        for sc in raw["scenarios"]:
            if sc["name"] == scenario:
                sc["grid_trajectory"] = {"kind": "linear_to_zero",
                                         "zero_year": zero}
        path.write_text(json.dumps(raw))
        code, out, _ = run(capsys, "lcoh", "--format", "json", "--config",
                           str(path), "--scenario", scenario)
        assert code == 0
        years = json.loads(out)["summary"]["crossover_years"]
        code, out, _ = run(capsys, "crossover", "--config", str(path),
                           "--zero-year", str(zero))
        averages = [int(line.rsplit(": ", 1)[1]) for line in out.splitlines()
                    if line.startswith("average electrolysis")]
        assert (code, averages) == (0, [years["avg_electrolysis_vs_SMR"],
                                        years["avg_electrolysis_vs_SMR+CCS"]])
        if zero in checked:
            assert tuple(averages) == checked[zero]


TECHS = ["Alkaline", "PEM", "SOEC"]


@pytest.mark.parametrize("argv, built, smr_built, solved", [
    (["lcoh", "--format", "json"], 3, 2, TECHS),
    (["lcoh", "--format", "json", "--config", EXAMPLE_CONFIG,
      "--scenario", "nze-2050"], 3, 2, TECHS),
    (["lcoh"], 3, 2, []), (["frontier"], 3, 2, []),
    (["breakeven"], 3, 2, TECHS),
    (["breakeven", "--technology", "PEM", "--target", "3"], 3, 2, ["PEM"]),
    (["crossover"], 0, 2, []),
    (["validate"], 6, 0, []),
    (["validate", "--config", EXAMPLE_CONFIG], 6, 0, []),
])
def test_each_line_is_built_once_and_only_by_lcoh_line(capsys, monkeypatch,
                                                       argv, built,
                                                       smr_built, solved):
    # Each record is built once, by lcoh_line or smr.smr_line, and a
    # breakeven is solved only for the electrolysis records.
    calls, smr_calls, solves = [], [], []
    line, smr_line = scenario_mod.lcoh_line, smr.smr_line
    breakeven = scenario_mod.line_breakeven
    monkeypatch.setattr(scenario_mod, "lcoh_line",
                        lambda *a: (calls.append(a), line(*a))[1])
    monkeypatch.setattr(smr, "smr_line",
                        lambda *a: (smr_calls.append(a), smr_line(*a))[1])
    monkeypatch.setattr(scenario_mod, "line_breakeven",
                        lambda r, t: (solves.append(r.name), breakeven(r, t))[1])
    for name in ("project_params", "breakeven_electricity_price"):
        monkeypatch.setattr(scenario_mod, name, None)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == built
    assert len(smr_calls) == smr_built
    assert solves == solved
    if argv[:3] == ["lcoh", "--format", "json"]:
        assert list(json.loads(out)["summary"][
            "breakeven_vs_smr_ccs_usd_per_kwh"]) == solved
    elif argv[0] == "breakeven":
        assert [row.split(":")[0] for row in out.splitlines()] == solved


# PEM's slope is so small that (target - floor) / slope is inf.
TINY_PEM_SLOPE = {"technologies": {"PEM": {"efficiency": 1e-299}}}


@pytest.mark.parametrize("config, argv", [
    ({**TINY_PEM_SLOPE, "smr": {"base_cost": 1e10}},
     ["breakeven", "--scenario", "base-2020"]),
    ({**TINY_PEM_SLOPE, "smr": {"base_cost": 1e10}},
     ["lcoh", "--format", "json"]),
    (TINY_PEM_SLOPE, ["breakeven", "--technology", "PEM", "--target", "1e10"]),
])
def test_an_overflowing_breakeven_is_one_input_error(tmp_path, capsys,
                                                     config, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run(capsys, *argv, "--config", str(path)) == (
        1, "", "h2cost: error: PEM: breakeven electricity price overflows "
               "the float range\n")


def test_fixed_target_breakeven_fails_where_validate_does(tmp_path, capsys):
    # breakeven reports PEM alone, but builds Alkaline's overflowing line too.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"technologies": {
        "Alkaline": {"unit_system_cost": 1e308}}}))
    want = run(capsys, "validate", "--config", str(path))
    assert want == (1, "", "h2cost: error: Alkaline: LCOH is undefined "
                           "(costs or output overflow the float range)\n")
    assert run(capsys, "breakeven", "--technology", "PEM", "--target", "3",
               "--config", str(path)) == want


def test_crossover_overflow_fails_and_a_31_digit_zero_year_solves(tmp_path,
                                                                  capsys):
    dataset = tmp_path / "states.csv"
    dataset.write_text("state,electricity_usd_per_kwh,gas_usd_per_mmbtu,"
                       "grid_ci_kg_per_kwh\nTX,0.0449,1.88,1e308\n")
    assert run(capsys, "crossover", "--dataset", str(dataset)) == (
        1, "", "h2cost: error: average hydrogen carbon intensity overflows "
               "the float range\n")
    # No year cap: the solve is exact for a zero year no float holds.
    zero = 10 ** 30
    code, out, err = run(capsys, "crossover", "--zero-year", str(zero))
    assert (code, err) == (0, "")
    grid_cis = read_dataset().grid_cis
    mean_ci = sum(grid_cis) / len(grid_cis)
    registry = default_registry()
    cases = [(smr.smr_emissions(default_smr_params(), ccs).carbon_intensity,
              techs)
             for ccs in (False, True)
             for techs in [[t] for t in registry] + [registry]]
    lines = out.splitlines()
    assert len(lines) == len(cases) == 8
    for line, (target, techs) in zip(lines, cases):
        avg0 = mean_ci * (sum(t.efficiency for t in techs) / len(techs))
        year = int(line.rsplit(": ", 1)[1])
        exact = Fraction(avg0) / (zero - 2020)
        assert exact * (zero - year) < Fraction(target)
        assert year == 2020 or not exact * (zero - year + 1) < Fraction(target)


CLEAN_GRID = ("state,electricity_usd_per_kwh,gas_usd_per_mmbtu,"
              "grid_ci_kg_per_kwh\nWA,0.05,3.1,0.0\nAK,0.1,3.35,0.0\n")
ZERO_YEAR_2020 = {"scenarios": [{
    "name": "nze-2050", "target_year": 2050, "learning_case": "NZE",
    "cumulative_production_target": {"PEM": 1000},
    "grid_trajectory": {"kind": "linear_to_zero", "zero_year": 2020}}]}


@pytest.mark.parametrize("argv", [
    ["crossover", "--zero-year", "2020"],
    ["crossover", "--zero-year", "2000"],
    ["crossover", "--zero-year", "2000", "--dataset", "{clean}"],
    ["validate", "--config", "{config}"],
    ["lcoh", "--config", "{config}", "--scenario", "nze-2050"],
], ids=["crossover-2020", "crossover-2000", "crossover-2000-clean-grid",
        "validate-config", "lcoh-config"])
def test_a_zero_year_not_after_2020_is_the_same_input_error_everywhere(
        tmp_path, capsys, argv):
    # A clean grid is below every SMR target in 2020 already, and the zero
    # year is still rejected rather than never consulted. A config's error
    # names the scenario first.
    clean, config = tmp_path / "clean.csv", tmp_path / "config.json"
    clean.write_text(CLEAN_GRID)
    config.write_text(json.dumps(ZERO_YEAR_2020))
    prefix = "nze-2050: " if "{config}" in argv else ""
    argv = [a.format(clean=clean, config=config) for a in argv]
    assert run(capsys, *argv) == (
        1, "", f"h2cost: error: {prefix}zero_year must be after base year 2020\n")


def test_zero_year_2021_is_accepted(tmp_path, capsys):
    clean = tmp_path / "clean.csv"
    clean.write_text(CLEAN_GRID)
    code, out, err = run(capsys, "crossover", "--zero-year", "2021",
                         "--dataset", str(clean))
    assert (code, err) == (0, "")
    assert [line.rsplit(": ", 1)[1] for line in out.splitlines()] == ["2020"] * 8
    assert run(capsys, "crossover", "--zero-year", "2021")[0] == 0


def test_national_average_overflow_is_an_input_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"smr": {"base_cost": 1e308}}))
    for argv, pathway in ((["lcoh", "--format", "json"], "SMR"),
                          (["breakeven"], "SMR+CCS")):
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert (code, out) == (1, "")
        assert err == (f"h2cost: error: {pathway}: national average overflows "
                       "the float range\n")


def test_huge_finite_metrics_are_written_as_json_writes_them(tmp_path, capsys):
    """Rows at and above 1e11 take the repr(round()) path of the writer."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"smr": {"base_cost": 1e11}}))
    code, out, _ = run(capsys, "lcoh", "--format", "json", "--config",
                       str(config))
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert '"lcoh_usd_per_kg": 100000000000.' in out


# --- every invalid input ends in exit 1 and one error line --------------

HEADER = ["state", "electricity_usd_per_kwh", "gas_usd_per_mmbtu",
          "grid_ci_kg_per_kwh"]
ROWS = [["TX", "0.0449", "1.88", "0.36"], ["OK", "0.0415", "2.04", "0.32"],
        ["WA", "0.0501", "3.10", "0.09"]]
EXAMPLE = json.loads(Path(EXAMPLE_CONFIG).read_text())


def _write_inputs(directory, header, rows, config):
    dataset, cfg = directory / "states.csv", directory / "config.json"
    with dataset.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    cfg.write_text(json.dumps(config))
    return ["validate", "--dataset", str(dataset), "--config", str(cfg)]


def _validate_outcome(argv):
    """Run validate; any exception escaping main fails the caller."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    errors = err.getvalue().splitlines()
    assert code in (0, 1)
    if code:
        assert len(errors) == 1 and errors[0].startswith("h2cost: error: ")
        assert out.getvalue() == ""
    else:
        assert errors == []
    return code, err.getvalue()


def _invalid(kind, header, rows, config):
    if kind == "tech_non_numeric":
        config["technologies"]["SOEC"]["unit_system_cost"] = "n/a"
    elif kind == "target_year_non_numeric":
        config["scenarios"][1]["target_year"] = "2O40"
    elif kind == "anchor_non_numeric":
        config["smr"]["emissions_anchors"][1][2] = "n/a"
    elif kind == "efficiency_infinity":
        config["technologies"]["PEM"] = {"efficiency": math.inf}
    elif kind == "price_inf":
        rows[1][1] = "inf"
    elif kind == "duplicate_state_column":
        header.append("state")
        for row in rows:
            row.append(row[0])
    elif kind == "duplicate_scenario_name":
        config["scenarios"][1]["name"] = config["scenarios"][0]["name"]
    elif kind == "negative_cost":
        config["technologies"]["Alkaline"] = {"unit_system_cost": -5.0}
    elif kind == "negative_smr_base_cost":
        config["smr"]["base_cost"] = -1
    elif kind == "negative_anchor_ci":
        config["smr"]["emissions_anchors"][0][1] = -1
    elif kind == "negative_anchor_ci_ccs":
        config["smr"]["emissions_anchors"][2][2] = -0.5


@pytest.mark.parametrize("kind, message", [
    ("tech_non_numeric",
     'technologies.SOEC.unit_system_cost must be a finite number, got "n/a"'),
    ("target_year_non_numeric",
     'nze-2050: scenarios[1].target_year must be a finite number, '
     'got "2O40"'),
    ("anchor_non_numeric",
     'smr.emissions_anchors[1][2] must be a finite number, got "n/a"'),
    ("efficiency_infinity",
     "technologies.PEM.efficiency must be a finite number, got Infinity"),
    ("price_inf", "state OK: electricity_price must be finite, got inf"),
    ("duplicate_state_column", "column 'state' appears more than once"),
    ("duplicate_scenario_name", "duplicate scenario name 'offpeak-2020'"),
    ("negative_cost", "Alkaline: unit_system_cost must be >= 0"),
    ("negative_smr_base_cost", "base_cost must be >= 0"),
    ("negative_anchor_ci", "emissions_anchors carbon intensities must be >= 0"),
    ("negative_anchor_ci_ccs", "emissions_anchors carbon intensities must be >= 0"),
])
def test_validate_rejects_invalid_kind(tmp_path, kind, message):
    header, rows = list(HEADER), [list(r) for r in ROWS]
    config = json.loads(json.dumps(EXAMPLE))
    _invalid(kind, header, rows, config)
    code, err = _validate_outcome(_write_inputs(tmp_path, header, rows, config))
    assert code == 1
    assert err == f"h2cost: error: {message}\n"


def _leaf_paths(obj, path=()):
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [path]
    return [leaf for key, value in items for leaf in _leaf_paths(value, path + (key,))]


BAD_LEAVES = ["n/a", "", None, True, [], {}, math.nan, math.inf, -1]
CELLS = [("csv", i, j) for i in range(len(ROWS)) for j in range(len(HEADER))]
LEAVES = [("config",) + path for path in _leaf_paths(EXAMPLE)]


def _leaf_text(bad):
    """A bad leaf as command-line or CSV text."""
    return bad if isinstance(bad, str) else json.dumps(bad)


def _one_bad_leaf(where, bad):
    """ROWS and EXAMPLE with one CSV cell or config leaf replaced by bad."""
    rows, config = [list(r) for r in ROWS], json.loads(json.dumps(EXAMPLE))
    if where[0] == "csv":
        _, i, j = where
        rows[i][j] = _leaf_text(bad)
    else:
        *parents, last = where[1:]
        node = config
        for key in parents:
            node = node[key]
        node[last] = bad
    return rows, config


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(CELLS + LEAVES), st.sampled_from(BAD_LEAVES),
       st.booleans())
def test_validate_never_raises_on_one_bad_leaf(tmp_path, where, bad, strict):
    rows, config = _one_bad_leaf(where, bad)
    argv = _write_inputs(tmp_path, HEADER, rows, config)
    _validate_outcome(argv if strict else argv + ["--no-strict"])


def _lcoh_outcome(argv, fmt):
    """Run lcoh; any exception escaping main fails the caller."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", fmt])
    stdout, errors = out.getvalue(), err.getvalue().splitlines()
    assert code in (0, 1, 2, 3)
    if code:
        assert len(errors) == 1 and errors[0].startswith("h2cost: error: ")
        assert stdout == ""
    else:
        assert errors == []
    for token in ("inf", "nan", "Infinity", "NaN", "-0.0"):
        assert token not in stdout
    if code == 0 and fmt == "json":
        assert stdout == json.dumps(json.loads(stdout), indent=2,
                                    sort_keys=True) + "\n"
    return code


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(CELLS + LEAVES), st.sampled_from(BAD_LEAVES + [1e308]),
       st.booleans(), st.sampled_from(["csv", "json"]),
       st.sampled_from([sc["name"] for sc in EXAMPLE["scenarios"]]))
@example(where=("csv", 0, 3), bad="-0.0", strict=True, fmt="csv",
         scenario="offpeak-2020")
@example(where=("csv", 1, 3), bad="-0", strict=False, fmt="json",
         scenario="nze-2050")
def test_lcoh_never_raises_on_one_bad_leaf(tmp_path, where, bad, strict, fmt,
                                           scenario):
    rows, config = _one_bad_leaf(where, bad)
    argv = _write_inputs(tmp_path, HEADER, rows, config)
    argv = ["lcoh", *argv[1:], "--scenario", scenario]
    _lcoh_outcome(argv if strict else argv + ["--no-strict"], fmt)


def _breakeven_outcome(argv):
    """Run breakeven; any exception escaping main fails the caller. Exit 3
    (no non-negative breakeven) is a result on stdout, not an error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout, errors = out.getvalue(), err.getvalue().splitlines()
    assert code in (0, 1, 2, 3)
    if code in (1, 2):
        assert len(errors) == 1 and errors[0].startswith("h2cost: error: ")
        assert stdout == ""
    else:
        assert errors == [] and len(stdout.splitlines()) == 3
    for token in ("inf", "nan", "Infinity", "NaN"):
        assert token not in stdout
    return code


TARGET = ("breakeven", "--target")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(CELLS + LEAVES + [TARGET]),
       st.sampled_from(BAD_LEAVES + [1e308, "1e400", "abc"]), st.booleans(),
       st.sampled_from([sc["name"] for sc in EXAMPLE["scenarios"]]))
def test_breakeven_never_raises_on_one_bad_leaf(tmp_path, where, bad, strict,
                                                scenario):
    """One bad CSV cell, config leaf or --target value."""
    target = "smr_ccs"
    if where == TARGET:
        rows, config = ROWS, EXAMPLE
        target = _leaf_text(bad)
    else:
        rows, config = _one_bad_leaf(where, bad)
    argv = _write_inputs(tmp_path, HEADER, rows, config)
    argv = ["breakeven", *argv[1:], "--scenario", scenario, f"--target={target}"]
    code = _breakeven_outcome(argv if strict else argv + ["--no-strict"])
    if where == TARGET and bad != 1e308:
        assert code == 1


def test_first_bad_state_in_file_order_is_named(tmp_path, capsys):
    # Both states overflow; WA comes first in the file, AK first sorted.
    dataset = tmp_path / "states.csv"
    dataset.write_text(",".join(HEADER) + "\nWA,1e308,3.10,0.09\n"
                       "AK,1e308,3.35,0.41\n")
    for argv in (["lcoh"], ["lcoh", "--format", "json"], ["frontier"],
                 ["breakeven"]):
        code, out, err = run(capsys, *argv, "--dataset", str(dataset))
        assert (code, out) == (1, ""), argv
        assert err == ("h2cost: error: state WA: WA/Alkaline: metrics must be "
                       "finite and >= 0\n"), argv


# --- flags that mean something ------------------------------------------

def test_the_packaged_dataset_is_the_default_dataset_file(tmp_path,
                                                           monkeypatch, capsys):
    default = run(capsys, "lcoh", "--format", "json")
    assert default[0] == 0
    assert run(capsys, "lcoh", "--format", "json",
               "--dataset", REFERENCE_DATASET) == default
    assert run(capsys, "lcoh", "--no-strict") == run(capsys, "lcoh")
    # An empty path is named as such, not read as the current directory.
    monkeypatch.chdir(tmp_path)
    for command in COMMANDS:
        for option in ("--dataset", "--config"):
            assert run(capsys, command, option, "") == (
                1, "", f"h2cost: error: {option[2:]} path is empty\n")
    for command in ("lcoh", "frontier"):
        for fmt in ("csv", "json"):
            assert run(capsys, command, "--format", fmt, "--out", "") == (
                1, "", "h2cost: error: --out path is empty\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", COMMANDS)
def test_leakage_outside_the_anchors_is_an_input_error(tmp_path, capsys,
                                                       command):
    config = tmp_path / "config.json"
    config.write_text('{"smr": {"leakage_rate": 0.5}}')
    assert run(capsys, command, "--config", str(config)) == (
        1, "", "h2cost: error: leakage rate 0.5 outside anchor range "
               "[0.002, 0.08]\n")


def test_no_strict_skips_blank_rows_and_strict_is_the_default(tmp_path, capsys):
    dataset = tmp_path / "states.csv"
    dataset.write_text(",".join(HEADER) + "\nTX,0.0449,1.88,0.36\nOK,,2.04,0.32\n")
    code, out, _ = run(capsys, "validate", "--dataset", str(dataset), "--no-strict")
    assert (code, out.splitlines()[0]) == (0, "dataset: 1 states, vintage 2020")
    code, out, err = run(capsys, "validate", "--dataset", str(dataset))
    assert (code, out) == (1, "")
    assert err == "h2cost: error: row 3: blank field (strict mode)\n"


ALL_COMMANDS = "{lcoh,breakeven,crossover,frontier,validate}"


@pytest.fixture
def built(monkeypatch):
    """The command argument of every cli.build_parser call, in order."""
    calls = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: calls.append(command) or real(command))
    return calls


@pytest.mark.parametrize("argv, message", [
    # unknown to the subcommand: the top-level parser reports the leftovers
    (["validate", "--strict"], "h2cost: error: unrecognized arguments: --strict"),
    (["lcoh", "--strict"], "h2cost: error: unrecognized arguments: --strict"),
    (["crossover", "--scenario", "base-2020"],
     "h2cost: error: unrecognized arguments: --scenario base-2020"),
    (["validate", "--scenario", "x"],
     "h2cost: error: unrecognized arguments: --scenario x"),
    (["breakeven", "--target", "-1e-3", "--bogus"],
     "h2cost: error: unrecognized arguments: --bogus"),
    # known to the subcommand: its own parser reports the bad value
    (["lcoh", "--format", "xml"],
     "h2cost lcoh: error: argument --format: invalid choice: 'xml'"),
    (["crossover", "--constant", "--zero-year", "2040"],
     "h2cost crossover: error: argument --zero-year: "
     "not allowed with argument --constant"),
], ids=["validate-strict", "lcoh-strict", "crossover-scenario",
        "validate-scenario", "breakeven-target-bogus", "lcoh-format-xml",
        "crossover-constant-zero-year"])
def test_removed_flags_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    err = capsys.readouterr().err
    assert info.value.code == 2
    # main parses with the invoked command's parser only; the full tree
    # reports the same error with the same usage.
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert capsys.readouterr().err == err
    usage, _, last = err.rstrip("\n").rpartition("\n")
    assert last.startswith(message)
    if message.startswith("h2cost:"):
        # the top-level usage lists every command
        assert usage.startswith("usage: h2cost [-h]")
        assert ALL_COMMANDS in " ".join(usage.split())
    else:
        assert usage.startswith(f"usage: h2cost {argv[0]} [-h]")


@pytest.mark.parametrize("argv", [
    ["lcoh"],
    ["lcoh", "--format", "json", "--scenario", "aps-2050", "--out", "r.json",
     "--dataset", "d.csv", "--config", "c.json", "--no-strict"],
    ["lcoh", "--form", "json", "--scen", "aps-2050"],
    ["breakeven"],
    ["breakeven", "--technology", "PEM", "--target", "2.0", "--scenario",
     "base-2020"],
    ["crossover"],
    ["crossover", "--constant", "--dataset", "d.csv"],
    ["crossover", "--zero-year", "2040"],
    ["frontier", "--format", "json", "--out", "f.json"],
    ["validate"],
    ["validate", "--no-strict", "--config", "c.json"],
    ["lcoh", "--out", "", "--dataset", "a b.csv"],
    ["breakeven", "--target", "smr_ccs", "--technology", "all"],
    ["crossover", "--zero-year", "02050", "--config", "c.json"],
])
def test_command_parser_parses_like_the_full_tree(monkeypatch, built, argv):
    # A command's own parser reads the arguments after the command word, and
    # _read_argv reads options spelled in full as both do.
    want = vars(build_parser().parse_args(argv))
    assert vars(build_parser(argv[0]).parse_args(argv[1:])) == want
    read = cli._read_argv(argv)
    assert (None if "--form" in argv else want) == (read and vars(read))
    built.clear()
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: 0)
    assert main(argv) == 0
    # Options spelled in full need no parser; abbreviations need the
    # command's own.
    assert built == ([argv[0]] if "--form" in argv else [])


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_is_the_full_trees(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    text = capsys.readouterr()
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    assert capsys.readouterr() == text
    assert text.out.startswith(f"usage: h2cost {command} [-h]")


@pytest.mark.parametrize("argv", [
    ["lcoh", "--format", "json", "--scenario", "aps-2050"],
    ["breakeven", "--technology", "PEM"],
    ["crossover", "--constant"],
    ["frontier"],
    ["validate", "--no-strict"],
    ["lcoh", "--form", "json"],
])
def test_a_valid_command_builds_one_argument_parser(monkeypatch, capsys, argv):
    made = []
    real = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: made.append(k.get("prog"))
                        or real(self, *a, **k))
    assert main(argv) in (0, 3)
    # None for options spelled in full; the command's own for an abbreviation.
    assert made == ([f"h2cost {argv[0]}"] if "--form" in argv else [])


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["--version"], ["lcoh", "--strict"], ["lcoh", "-h"],
    ["validate", "--help"], ["lcoh", "--form", "json"], ["lcoh", "--format=json"],
    ["validate", "--config", "a.json", "--config", "b.json"],
    ["crossover", "--constant", "--constant"], ["lcoh", "--out"],
    ["breakeven", "--target", "-1e-3"], ["lcoh", "--config", "--out"],
    ["lcoh", "--format", "xml"], ["breakeven", "--technology", "pem"],
    ["crossover", "--zero-year", "2_040"], ["crossover", "--zero-year", "+2040"],
    ["crossover", "--zero-year", "\u0662\u0660\u0664\u0660"],
    ["crossover", "--zero-year", "2040", "--constant"], ["lcoh", "--", "x"],
])
def test_the_argv_reader_leaves_argparse_all_else(argv):
    assert cli._read_argv(argv) is None


ODD_WORDS = ["-h", "--help", "--version", "--", "--=x", "--bogus", "lcoh"]
ODD_VALUES = ["xml", "pem", "-1e-3", "-inf", "2_040", "+2040", " 2040",
              "\u0662\u0660\u0664\u0660", "--format", "-", "--"]


@st.composite
def command_lines(draw):
    """argv of a command then up to five of its options, repeats included:
    most spelled in full with a value of the option's kind, the others
    abbreviated, in an "=" form, without their value, with an odd value or
    replaced by a word that is no option of the command."""
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    for _ in range(draw(st.integers(0, 5))):
        flag, _, _, kw = draw(st.sampled_from(cli._options(command)))
        plain = kw.get("choices", ["2040", "02050"] if "type" in kw
                       else ["aps-2050", "2.0", "x y", ""])
        words = [flag] if "action" in kw else [flag, draw(st.sampled_from(
            list(plain) if draw(st.integers(0, 5)) else ODD_VALUES))]
        form = draw(st.sampled_from(["full"] * 12 + ["abbreviated", "=",
                                                    "no value", "odd word"]))
        if form == "abbreviated":
            words[0] = flag[:-2]
        elif form == "=":
            words = ["=".join(words)]
        elif form == "no value":
            words = words[:1]
        elif form == "odd word":
            words = [draw(st.sampled_from(ODD_WORDS))]
        argv += words
    return argv


@settings(max_examples=500)
@given(command_lines())
@example(["crossover", "--constant", "--zero-year", "2040"])
@example(["crossover", "--zero-year", "2040", "--zero-year", "2050"])
@example(["lcoh", "--format", "xml"])
@example(["breakeven", "--target", "-1e-3"])
@example(["crossover", "--zero-year", "\u0662\u0660\u0664\u0660"])
def test_the_argv_reader_declines_or_reads_as_argparse_does(argv):
    args = cli._read_argv(argv)
    if args is not None:
        with contextlib.redirect_stderr(io.StringIO()):
            assert vars(args) == vars(build_parser().parse_args(argv))


def test_valid_commands_load_no_argparse_gettext_or_locale(tmp_path):
    """In a fresh interpreter, neither the import nor a command line spelled
    in full loads argparse, or the gettext and locale modules it imports; an
    abbreviation does."""
    src = Path(__file__).resolve().parents[1] / "src"
    unwanted = ["argparse", "gettext", "locale"]
    lines = [["lcoh", "--format", "json", "--config", EXAMPLE_CONFIG,
              "--scenario", "nze-2050"],
             ["lcoh", "--out", str(tmp_path / "t.csv")],
             ["breakeven", "--technology", "PEM", "--target", "2.0"],
             ["breakeven", "--scenario", "aps-2050"],
             ["crossover", "--zero-year", "2040"], ["crossover", "--constant"],
             ["frontier", "--format", "json"],
             ["validate", "--config", EXAMPLE_CONFIG, "--no-strict"],
             ["lcoh", "--form", "json"]]
    script = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
              "import io, h2cost.cli\n"
              f"print(sorted(set({unwanted!r}) & set(sys.modules)))\n"
              f"for argv in {lines!r}:\n"
              "    out, sys.stdout = sys.stdout, io.StringIO()\n"
              "    code = h2cost.cli.main(argv)\n"
              "    sys.stdout = out\n"
              "    print(code in (0, 3), "   # 3: no crossover with --constant
              f"sorted(set({unwanted!r}) & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", script],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == (["[]"] + ["True []"] * (len(lines) - 1)
                                        + [f"True {sorted(unwanted)}"])


def test_valid_commands_load_no_json_pathlib_re_or_argparse(tmp_path):
    """In a fresh interpreter, the import and one fully spelled command of
    each command, format, --config and --out combination load none of
    json, pathlib, re (which json and argparse import), argparse, gettext
    and locale; a config error message alone imports json."""
    src = Path(__file__).resolve().parents[1] / "src"
    unwanted = ["json", "pathlib", "re", "argparse", "gettext", "locale"]
    config = ["--config", EXAMPLE_CONFIG, "--scenario", "nze-2050"]
    lines = [[*command, *fmt, *cfg, *out]
             for command, fmt, out in [
                 *([[name], ["--format", f], o] for name in ("lcoh", "frontier")
                   for f in ("csv", "json")
                   for o in ([], ["--out", str(tmp_path / f"{name}.{f}")])),
                 (["breakeven"], [], []), (["crossover"], [], []),
                 (["validate"], [], [])]
             for cfg in ([], config if command != ["crossover"] else config[:2])]
    lines = [line[:-2] if line[0] == "validate" and "--config" in line else line
             for line in lines]
    bad = tmp_path / "bad.json"
    bad.write_text('{"smr": {"base_cost": [1]}}')
    lines.append(["validate", "--config", str(bad)])
    script = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
              "import io, h2cost.cli\n"
              f"print(sorted(set({unwanted!r}) & set(sys.modules)))\n"
              f"for argv in {lines!r}:\n"
              "    out, sys.stdout = sys.stdout, io.StringIO()\n"
              "    code = h2cost.cli.main(argv)\n"
              "    sys.stdout = out\n"
              f"    print(code, sorted(set({unwanted!r}) & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", script],
                          capture_output=True, text=True, check=True)
    assert len(lines) == 23
    assert proc.stdout.splitlines() == (["[]"] + ["0 []"] * (len(lines) - 1)
                                        + ["1 ['json', 're']"])


@pytest.mark.parametrize("argv", [["--", "bogus"], ["--", "lcoh"],
                                  ["--", "--version"], ["--", "--=x"]])
def test_a_first_word_of_two_dashes_is_the_invalid_command(capsys, argv):
    # 3.13.13's argparse drops it and runs the next word; earlier releases
    # name "--" as the invalid choice, which main gives on every release.
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"h2cost: error: argument command: invalid choice: '--' "
        f"{CHOOSE_COMMAND}\n")


def test_two_dashes_alone_is_a_missing_command(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "h2cost: error: the following arguments are required: command\n")


_JSON_KEYS = st.text(max_size=4) | st.sampled_from(["a", "b", "A", "é", ""])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**25, 10**25)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(st.characters(codec=None), max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_JSON_KEYS, inner, max_size=4), max_leaves=20)


@settings(max_examples=500)
@given(_JSON_VALUES)
@example({"b": [True, False, None, 1, 1.0, -0.0, 1e16, 5e-324], "a": {},
          "c": [], "\x00\u2028\ud800\U0001f600": "\x1f\"\\/\u00e9"})
def test_json_writer_is_json_dumps_indent_2_sorted(value):
    assert cli._json_dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_writer_writes_a_bool_as_json_does():
    assert [cli._json_dumps(v) for v in (True, False, [1, True], {"k": 0})] == [
        "true", "false", "[\n  1,\n  true\n]", '{\n  "k": 0\n}']


def test_json_writer_falls_back_to_json_without_the_c_module(monkeypatch):
    monkeypatch.setitem(sys.modules, "_json", None)
    value = {"z": ["é\n", 2.5, None], "a": {"b": [True]}}
    assert cli._json_dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("argv", [["lcoh", "--=x"], ["validate", "--= x"],
                                  ["frontier", "--format", "json", "--=1"]])
def test_an_argument_starting_with_dashes_equals_is_the_top_levels_error(
        capsys, built, argv):
    # The top-level parser reads "--=..." as an abbreviation of both --help
    # and --version, before any subcommand sees it.
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert built == [None]
    err = capsys.readouterr().err
    assert err.endswith(f"h2cost: error: ambiguous option: {argv[-1]} could "
                        f"match --help, --version\n")


CHOOSE_COMMAND = ("(choose from 'lcoh', 'breakeven', 'crossover', "
                  "'frontier', 'validate')")


@pytest.mark.parametrize("argv, last", [
    (["bogus"], f"h2cost: error: argument command: invalid choice: 'bogus' "
                f"{CHOOSE_COMMAND}"),
    ([""], f"h2cost: error: argument command: invalid choice: '' "
           f"{CHOOSE_COMMAND}"),
    (["lcoh", "--format", "xml"], "h2cost lcoh: error: argument --format: "
     "invalid choice: 'xml' (choose from 'csv', 'json')"),
    (["frontier", "--format=JSON"], "h2cost frontier: error: argument "
     "--format: invalid choice: 'JSON' (choose from 'csv', 'json')"),
    (["breakeven", "--technology", "pem"], "h2cost breakeven: error: argument "
     "--technology: invalid choice: 'pem' (choose from 'all', 'Alkaline', "
     "'PEM', 'SOEC')"),
], ids=["command", "empty-command", "format", "format-case", "technology"])
def test_choice_errors_are_h2costs_own_text(monkeypatch, capsys, argv, last):
    # The quoted list is h2cost's text on every Python: argparse's own
    # choices check quotes it on some patch releases and not on others, so
    # a check of argparse's that words it otherwise must not show.
    def unquoted(self, action, value):
        raise argparse.ArgumentError(action, f"invalid choice: {value}")

    monkeypatch.setattr(argparse.ArgumentParser, "_check_value", unquoted)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    usage, _, got = capsys.readouterr().err.rstrip("\n").rpartition("\n")
    assert got == last
    if last.startswith("h2cost:"):
        assert ALL_COMMANDS in " ".join(usage.split())


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["--version"]])
def test_no_command_builds_the_full_tree(capsys, built, argv):
    with pytest.raises(SystemExit):
        main(argv)
    assert built == [None]
    if argv != ["--version"]:
        captured = capsys.readouterr()
        assert ALL_COMMANDS in captured.out + captured.err


def test_import_loads_no_hashlib_and_json_report_still_hashes():
    """In a fresh interpreter, neither importing the CLI nor a JSON report
    loads hashlib or OpenSSL; lcoh --format json still writes the SHA-256 of
    the packaged dataset."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import io, json, sys\n"
        "import h2cost.cli\n"
        "loaded = lambda: sorted({'hashlib', '_hashlib'} & set(sys.modules))\n"
        "before = loaded()\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        "code = h2cost.cli.main(['lcoh', '--format', 'json'])\n"
        "report, sys.stdout = json.loads(sys.stdout.getvalue()), out\n"
        "print(json.dumps([before, loaded(), code,\n"
        "                  report['metadata']['dataset_sha256']]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    before, after, code, digest = json.loads(proc.stdout)
    data = (src / "h2cost" / "data" / "state_profiles_2020.csv").read_bytes()
    assert before == after == []
    assert code == 0
    assert digest == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("builtin_missing", [False, True],
                         ids=["builtin", "hashlib-fallback"])
def test_sha256_is_hashlib_sha256(monkeypatch, builtin_missing):
    """cli._sha256 is hashlib's SHA-256, through the built-in module and,
    on a build without it, through hashlib."""
    if builtin_missing:
        for name in ("_sha2", "_sha256"):
            monkeypatch.setitem(sys.modules, name, None)
    # SHA-256 pads a message with at least 9 bytes to a multiple of 64, so
    # 55/56 and 63/64/65 bytes sit on each side of a block boundary.
    for n in (0, 1, 55, 56, 63, 64, 65, 1 << 20):
        data = (bytes(range(256)) * 4097)[:n]
        assert cli._sha256(data) == hashlib.sha256(data).hexdigest()


def test_import_loads_no_module_the_cli_does_not_need():
    """A fresh interpreter that imports the CLI loads neither hashlib (JSON
    reports hash with the built-in module) nor json (only a config error
    message needs it, and imports it then), nor csv (only a dataset the
    plain split cannot read needs it), nor __future__, nor any of these
    modules the standard-library runtime has no use for, nor gc (only the
    process's own main freezes the heap, and imports gc then)."""
    src = Path(__file__).resolve().parents[1] / "src"
    unwanted = ["hashlib", "decimal", "logging", "statistics", "array", "numpy",
                "typing", "importlib.resources", "json", "__future__", "csv",
                "gc"]
    script = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
              "import h2cost.cli\n"
              f"print(sorted(set({unwanted!r}) & set(sys.modules)))\n")
    # -I -S: no user site, no environment and no .pth file imports anything.
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", script],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ["breakeven"], ["crossover"], ["frontier"], ["lcoh"], ["validate"],
    ["lcoh", "--format", "json"], ["frontier", "--format", "json"],
    ["validate", "--config", EXAMPLE_CONFIG],
], ids=["breakeven", "crossover", "frontier", "lcoh-csv", "validate",
        "lcoh-json", "frontier-json", "validate-config"])
def test_only_json_output_and_a_config_load_json(argv):
    """json costs milliseconds to import, and pulls in re: JSON output and
    a config go through json's C module, and no valid command loads json
    itself (only an error message in a config does)."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
              "import io, h2cost.cli\n"
              "out, sys.stdout = sys.stdout, io.StringIO()\n"
              f"code = h2cost.cli.main({argv!r})\n"
              "sys.stdout = out\n"
              "print(code, 'json' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", script],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "0 False\n"


@pytest.mark.parametrize("command", [["lcoh"], ["validate"], ["frontier"]],
                         ids=["lcoh", "validate", "frontier"])
def test_only_a_dataset_that_needs_csv_loads_it(tmp_path, command):
    """The packaged data, a plain file and its CRLF and CR-only twins are
    split without the csv module; a quoted twin loads it and prints the
    same."""
    text = read_input(REFERENCE_DATASET, "dataset").decode()
    twins = {"plain": text, "crlf": text.replace("\n", "\r\n"),
             "cr": text.replace("\n", "\r"),
             "quoted": "".join(",".join(f'"{cell}"' for cell in line.split(","))
                               + "\n" for line in text.splitlines())}
    src = Path(__file__).resolve().parents[1] / "src"
    seen = {}
    for name in ["packaged", *twins]:
        argv = list(command)
        if name in twins:
            (tmp_path / f"{name}.csv").write_text(twins[name], newline="")
            argv += ["--dataset", str(tmp_path / f"{name}.csv")]
        script = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
                  "import io, h2cost.cli\n"
                  "out, sys.stdout = sys.stdout, io.StringIO()\n"
                  f"code = h2cost.cli.main({argv!r})\n"
                  "text, sys.stdout = sys.stdout.getvalue(), out\n"
                  "print(code, 'csv' in sys.modules, repr(text))\n")
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", script],
                              capture_output=True, text=True, check=True)
        seen[name] = proc.stdout
    out = seen["packaged"].split(" ", 2)[2]
    assert seen == {"packaged": f"0 False {out}", "plain": f"0 False {out}",
                    "crlf": f"0 False {out}", "cr": f"0 False {out}",
                    "quoted": f"0 True {out}"}


@pytest.mark.parametrize("module", ["h2cost", "h2cost.finance",
                                    "h2cost.electrolysis", "h2cost.smr",
                                    "h2cost.scenario", "h2cost.analysis"])
def test_compute_modules_load_no_parser(module):
    """The compute core reads no file: importing it loads neither ingest,
    the CLI, nor the parsers they use. smr needs no electrolysis, and the
    package itself loads no submodule."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
              f"import {module}\n"
              "print(*sys.modules)\n")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", script],
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    unwanted = {"h2cost.ingest", "h2cost.cli", "csv", "json", "argparse"}
    if module == "h2cost.smr":
        unwanted.add("h2cost.electrolysis")
    if module == "h2cost":
        unwanted |= {m for m in loaded if m.startswith("h2cost.")}
    assert sorted(loaded & unwanted) == []


def test_import_loads_neither_dataclasses_nor_inspect():
    """dataclasses imports inspect, which imports ast, dis and tokenize:
    milliseconds at every start that no CLI command needs."""
    src = Path(__file__).resolve().parents[1] / "src"
    unwanted = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    script = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
              "import h2cost.cli\n"
              f"print(sorted(set({unwanted!r}) & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", script],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_import_defines_no_dataclass_but_smr_params():
    """Generated dataclass code costs milliseconds at every import, so no
    class is one. SmrParams, which the release gate copies with
    dataclasses.replace, reports as a dataclass once dataclasses is
    imported: it builds its fields on first read."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
              "import dataclasses, h2cost.cli\n"
              "print(sorted(name for mod, m in list(sys.modules.items())\n"
              "             if mod.split('.')[0] == 'h2cost'\n"
              "             for name, obj in vars(m).items()\n"
              "             if isinstance(obj, type) and obj.__module__ == mod\n"
              "             and dataclasses.is_dataclass(obj)))\n")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", script],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "['SmrParams']\n"


@pytest.mark.parametrize("argv", [
    ["lcoh", "--format", "json"],
    ["lcoh", "--format", "json", "--config", EXAMPLE_CONFIG,
     "--scenario", "nze-2050"],
    ["validate"],
    ["validate", "--config", EXAMPLE_CONFIG, "--no-strict"],
])
def test_cli_builds_no_state_energy_profile(capsys, monkeypatch, argv):
    built = []
    init = StateEnergyProfile.__init__
    monkeypatch.setattr(StateEnergyProfile, "__init__",
                        lambda self, *a, **k: (built.append(a), init(self, *a, **k))[1])
    assert run(capsys, *argv)[0] == 0
    assert built == []


def test_report_hashes_a_byte_order_mark_it_skipped(tmp_path, capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    packaged = (src / "h2cost" / "data" / "state_profiles_2020.csv").read_bytes()
    dataset, config = tmp_path / "states.csv", tmp_path / "config.json"
    dataset.write_bytes(codecs.BOM_UTF8 + packaged)
    config.write_bytes(codecs.BOM_UTF8 + Path(EXAMPLE_CONFIG).read_bytes())
    code, marked, _ = run(capsys, "lcoh", "--format", "json", "--dataset",
                          str(dataset), "--config", str(config),
                          "--scenario", "nze-2050")
    assert code == 0
    code, plain, _ = run(capsys, "lcoh", "--format", "json", "--config",
                         EXAMPLE_CONFIG, "--scenario", "nze-2050")
    marked, plain = json.loads(marked), json.loads(plain)
    assert marked["metadata"]["dataset_sha256"] == hashlib.sha256(
        dataset.read_bytes()).hexdigest()
    assert marked["metadata"]["config_sha256"] == hashlib.sha256(
        config.read_bytes()).hexdigest()
    assert marked["rows"] == plain["rows"]
    assert marked["summary"] == plain["summary"]


@pytest.mark.parametrize("command", [["validate"], ["lcoh", "--format", "json"]])
def test_a_cell_over_the_csv_field_limit_is_one_error_line(tmp_path, capsys,
                                                           command):
    dataset = tmp_path / "states.csv"
    dataset.write_text("state,electricity_usd_per_kwh,gas_usd_per_mmbtu,"
                       "grid_ci_kg_per_kwh\nTX,0.0449,1.88,0.36\nOK,"
                       + "1" * 200_000 + ",2.04,0.32\n")
    code, out, err = run(capsys, *command, "--dataset", str(dataset))
    assert (code, out) == (1, "")
    assert err == (f"h2cost: error: {dataset}: line 3: field larger than "
                   f"field limit ({csv.field_size_limit()})\n")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("text, reason", [
    ("[" * 200_000, "nested too deeply"),
    ('{"technologies": {"PEM": {"capacity": ' + "9" * 5_000 + "}}}",
     f"an integer has more than {sys.get_int_max_str_digits()} digits"),
], ids=["deep", "long-int"])
def test_config_json_cannot_read_is_one_error_line(tmp_path, capsys, command,
                                                   text, reason):
    # Written as text: json.dumps refuses the integer too.
    config = tmp_path / "config.json"
    config.write_text(text)
    code, out, err = run(capsys, command, "--config", str(config))
    assert (code, out) == (1, "")
    assert err == f"h2cost: error: {config}: invalid JSON: {reason}\n"


CONFIG_SCENARIO = {"name": "a", "target_year": 2030, "learning_case": "APS",
                   "cumulative_production_target": {"PEM": 900}}


@pytest.mark.parametrize("text, message", [
    ("[]", "{config}: top level must be a JSON object"),
    ('{"technologies": []}', "'technologies' must map name -> field overrides"),
    ('{"scenarios": {}}', "'scenarios' must be a list"),
    (json.dumps({"scenarios": [{**CONFIG_SCENARIO, "bogus": 1}]}),
     "a: unknown keys ['bogus']"),
    (json.dumps({"scenarios": [{k: v for k, v in CONFIG_SCENARIO.items()
                                if k != "cumulative_production_target"}]}),
     "a: missing required key 'cumulative_production_target'"),
    (json.dumps({"scenarios": [{**CONFIG_SCENARIO,
                                "electricity_price_rule": {"x": 1}}]}),
     "a: unknown price rule keys ['x']"),
    (json.dumps({"scenarios": [{**CONFIG_SCENARIO,
                                "grid_trajectory": {"x": 1}}]}),
     "a: unknown trajectory keys ['x']"),
    # The second of two scenarios: the message names it, not the first.
    (json.dumps({"scenarios": [CONFIG_SCENARIO, {
        **CONFIG_SCENARIO, "name": "b",
        "electricity_price_rule": {"kind": "fixed"}}]}),
     "b: fixed price rule needs a finite value >= 0"),
    (json.dumps({"scenarios": [CONFIG_SCENARIO, {
        **CONFIG_SCENARIO, "name": "b",
        "grid_trajectory": {"kind": "linear_to_zero", "zero_year": 2020}}]}),
     "b: zero_year must be after base year 2020"),
    (json.dumps({"scenarios": [CONFIG_SCENARIO, {
        **CONFIG_SCENARIO, "name": "b", "learning_case": "aps"}]}),
     "b: unknown learning case 'aps'"),
    (json.dumps({"scenarios": [CONFIG_SCENARIO, {
        **CONFIG_SCENARIO, "name": "b",
        "cumulative_production_target": {"pem": 900}}]}),
     "b: unknown technology 'pem'"),
    (json.dumps({"scenarios": [CONFIG_SCENARIO, {
        k: v for k, v in {**CONFIG_SCENARIO, "name": "b"}.items()
        if k != "learning_case"}]}),
     "b: missing required key 'learning_case'"),
    # Without a usable name, the scenario's place in the list names it.
    (json.dumps({"scenarios": [CONFIG_SCENARIO, {
        k: v for k, v in CONFIG_SCENARIO.items() if k != "name"}]}),
     "scenarios[1]: missing required key 'name'"),
    (json.dumps({"scenarios": [{**CONFIG_SCENARIO, "name": "", "bogus": 1}]}),
     "scenarios[0]: unknown keys ['bogus']"),
    ("nope", "{config}: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
], ids=["top-level", "technologies", "scenarios", "scenario-keys",
        "scenario-required", "price-rule-keys", "trajectory-keys",
        "second-scenario-price-rule", "second-scenario-trajectory",
        "second-scenario-learning-case", "second-scenario-technology",
        "second-scenario-required", "unnamed-scenario-required",
        "unnamed-scenario-keys", "json"])
def test_validate_names_each_config_shape_error(tmp_path, capsys, text,
                                                message):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert run(capsys, "validate", "--config", str(config)) == (
        1, "", f"h2cost: error: {message.format(config=config)}\n")


DUPLICATE_KEYS = [
    ('{"technologies": {"PEM": {"efficiency": 51}, '
     '"PEM": {"efficiency": 1e6}}}', "PEM"),
    ('{"scenarios": [{"name": "a", "target_year": 2030, "name": "b", '
     '"learning_case": "APS", "cumulative_production_target": {}}]}', "name"),
    ('{"smr": {"base_cost": 0.3, "ccs_adder": 0.4, "base_cost": 0.3}}',
     "base_cost"),
]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("text, key", DUPLICATE_KEYS,
                         ids=[key for _, key in DUPLICATE_KEYS])
def test_a_key_named_twice_in_a_config_object_is_one_error_line(
        tmp_path, capsys, command, text, key):
    config = tmp_path / "config.json"
    config.write_text(text)
    code, out, err = run(capsys, command, "--config", str(config))
    assert (code, out) == (1, "")
    assert err == (f"h2cost: error: {config}: key {key!r} appears more than "
                   f"once in an object\n")


NEGATIVE_ZERO_CONFIG = {
    "technologies": {"PEM": {"unit_om_cost": -0.0}},
    "smr": {"base_cost": -0.0, "gas_sensitivity": -0.0,
            "electricity_sensitivity": -0.0},
    "scenarios": [{"name": "zero", "target_year": 2030, "learning_case": "APS",
                   "cumulative_production_target": {"PEM": 900},
                   "electricity_price_rule": {"kind": "fixed", "value": -0.0},
                   "unit_om_cost_override": {"SOEC": -0.0}}],
}


@pytest.mark.parametrize("argv", [
    ["lcoh"], ["lcoh", "--format", "json"], ["frontier"],
    ["frontier", "--format", "json"], ["breakeven"],
    ["breakeven", "--target", "-0"], ["breakeven", "--target=-0.0e5"],
    ["crossover"], ["validate"],
])
def test_negative_zero_in_a_config_or_target_prints_as_zero(tmp_path, capsys,
                                                            argv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(NEGATIVE_ZERO_CONFIG))
    scenario = [] if argv[0] in ("crossover", "validate") else ["--scenario",
                                                                "zero"]
    code, out, err = run(capsys, *argv, *scenario, "--config", str(config))
    assert (code, err) in ((0, ""), (3, ""))
    assert out and "-0" not in out


@pytest.mark.parametrize("target", ["-0", "-0.0", "-0e9"])
def test_negative_zero_target_is_zero(capsys, target):
    code, out, _ = run(capsys, "breakeven", "--technology", "PEM",
                       f"--target={target}")
    assert (code, out) == (3, "PEM: no non-negative breakeven (target 0.0000 "
                              "below zero-electricity LCOH)\n")


@pytest.mark.parametrize("ccs_only, argv, lines", [
    (False, ["crossover"], 0),
    (False, ["lcoh", "--format", "json", "--scenario", "nze-2050"], 0),
    (True, ["crossover"], 4),
    (True, ["lcoh", "--format", "json", "--scenario", "nze-2050"], 0),
])
def test_a_zero_smr_target_fails_before_its_average(tmp_path, capsys,
                                                    ccs_only, argv, lines):
    no_ccs = 10.0 if ccs_only else 0.0
    config = json.loads(Path(EXAMPLE_CONFIG).read_text())
    config["smr"] = {"emissions_anchors": [[0.002, no_ccs, 0.0],
                                           [0.08, no_ccs, 0.0]]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, *argv, "--config", str(path))
    assert (code, err) == (2, "h2cost: error: SMR CI target must be > 0\n")
    assert len(out.splitlines()) == lines


_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("argv, message", [
    (["validate", "--config", "{config}"],
     "x\\ny: capacity_factor must be in (0, 1], got 2.0"),
    (["lcoh", "--config", "{config}", "--scenario", "x\ny"],
     "x\\ny: capacity_factor must be in (0, 1], got 2.0"),
    (["lcoh", "--dataset", "a\nb.csv"], "dataset file not found: a\\nb.csv"),
    (["validate", "--config", "c\nd.json"],
     "config file not found: c\\nd.json"),
    (["validate", "--dataset", f"e{_BREAKS}f.csv"],
     "dataset file not found: e\\n\\r\\x0b\\x0c\\x1c\\x1d\\x1e\\x85"
     "\\u2028\\u2029f.csv"),
], ids=["scenario-name", "scenario-name-lcoh", "dataset-path", "config-path",
        "every-line-break"])
def test_an_error_naming_a_line_break_is_one_line(tmp_path, capsys, argv,
                                                  message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenarios": [{
        "name": "x\ny", "target_year": 2020, "learning_case": "APS",
        "cumulative_production_target": {}, "capacity_factor": 2}]}))
    code, out, err = run(capsys, *(a.format(config=config) for a in argv))
    assert (code, out, err) == (1, "", f"h2cost: error: {message}\n")
    assert len(err.splitlines()) == 1


def test_every_line_break_is_escaped_as_repr_writes_it(capsys):
    assert sorted(_BREAKS) == [c for c in map(chr, range(sys.maxunicode + 1))
                               if len(f"a{c}a".splitlines()) > 1]
    assert cli._fail(f"<{_BREAKS}>", 1) == 1
    assert capsys.readouterr().err == (
        f"h2cost: error: {repr(_BREAKS)[1:-1].join('<>')}\n")


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """A copy of the packaged dataset, standing in for it as the default
    --dataset, and a config file."""
    dataset = tmp_path / "packaged.csv"
    dataset.write_bytes(Path(REFERENCE_DATASET).read_bytes())
    monkeypatch.setattr(cli, "REFERENCE_DATASET", str(dataset))
    config = tmp_path / "config.json"
    config.write_bytes(Path(EXAMPLE_CONFIG).read_bytes())
    return dataset, config


@pytest.mark.parametrize("argv, out, what", [
    (["lcoh"], "{dataset}", "dataset"),
    (["lcoh", "--format", "json", "--dataset", "{dataset}"], "{dataset}",
     "dataset"),
    (["frontier", "--dataset", "{dataset}"], "{link}", "dataset"),
    (["lcoh", "--config", "{config}", "--scenario", "nze-2050"], "{config}",
     "config"),
    (["frontier", "--format", "json", "--config", "{config}", "--scenario",
      "nze-2050"], "{tmp}/./config.json", "config"),
    (["lcoh", "--dataset", "{dataset}"], "{dataset}/", "dataset"),
    (["lcoh", "--config", "{tmp}//config.json/", "--scenario", "nze-2050"],
     "{config}", "config"),
    (["lcoh", "--format", "json", "--config", "{config}", "--scenario",
      "nze-2050"], "{tmp}/./config.json/", "config"),
], ids=["packaged-dataset", "dataset", "dataset-by-a-link", "config",
        "config-by-another-path", "dataset-with-a-trailing-slash",
        "config-read-with-a-trailing-slash", "config-by-a-slashed-path"])
def test_out_never_overwrites_an_input(tmp_path, capsys, inputs, argv, out,
                                       what):
    dataset, config = inputs
    (tmp_path / "link.csv").symlink_to(dataset)
    names = dict(dataset=dataset, config=config, link=tmp_path / "link.csv",
                 tmp=tmp_path)
    before = dataset.read_bytes(), config.read_bytes()
    out = out.format(**names)
    code, stdout, err = run(capsys, *(a.format(**names) for a in argv),
                            "--out", out)
    assert (code, stdout, err) == (
        1, "", f"h2cost: error: --out would overwrite the {what} file: {out}\n")
    assert (dataset.read_bytes(), config.read_bytes()) == before


def test_out_may_be_a_new_file_or_one_that_is_no_input(tmp_path, capsys,
                                                        inputs):
    dataset, config = inputs
    for out in (tmp_path / "new.csv", config):
        assert run(capsys, "lcoh", "--dataset", str(dataset),
                   "--out", str(out))[:2] == (0, "")
        assert out.read_text().startswith("state,pathway,")
