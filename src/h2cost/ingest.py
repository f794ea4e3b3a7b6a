"""File ingestion: state datasets (CSV) and model configuration (JSON).

One canonical units convention in files: USD/kWh, USD/MMBtu, kg CO2e/kWh.
No unit auto-detection. Every malformed input raises a structured error;
a partially-loaded dataset is never returned.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import fields as dc_fields
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence, Union

from .errors import SchemaError, ValidationError
from .model import (
    GridTrajectory,
    LearningCase,
    PriceRule,
    Scenario,
    SmrParams,
    StateEnergyProfile,
    Technology,
    TechnologyParams,
    default_registry,
    default_scenarios,
    default_smr_params,
    with_overrides,
)

CSV_COLUMNS = ("state", "electricity_usd_per_kwh", "gas_usd_per_mmbtu",
               "grid_ci_kg_per_kwh")

REFERENCE_DATASET_NAME = "state_profiles_2020.csv"


class Dataset:
    """A collection of state profiles for one data vintage; profiles is a
    tuple and the package never mutates a Dataset."""

    __slots__ = ("profiles", "vintage_year")

    def __init__(self, profiles: Sequence[StateEnergyProfile],
                 vintage_year: int) -> None:
        profiles = tuple(profiles)
        if not profiles:
            raise ValidationError("dataset must contain at least one profile")
        seen = set()
        for p in profiles:
            if p.state in seen:
                raise ValidationError(f"duplicate state code {p.state}")
            seen.add(p.state)
        self.profiles = profiles
        self.vintage_year = vintage_year

    @property
    def states(self) -> tuple[str, ...]:
        return tuple(p.state for p in self.profiles)


def _parse_float(raw: str, state: str, column: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise SchemaError(
            f"state {state}: column {column!r} is not a number: {raw!r}") from exc


def _profiles_from_csv(fh, vintage_year: int,
                       strict: bool) -> list[StateEnergyProfile]:
    """One typed pass over a state CSV.

    Reads like csv.DictReader on the same file: rows with no cells are
    skipped, a short row's missing cells read as blank and extra cells are
    ignored. Unlike DictReader, a header that names a column twice is an
    error instead of keeping the last one.
    """
    reader = csv.reader(fh)
    header = next(reader, [])
    for col in CSV_COLUMNS:
        if col not in header:
            raise SchemaError(f"missing required column {col!r}")
    unknown = [c for c in header if c not in CSV_COLUMNS]
    if unknown:
        raise SchemaError(f"unknown columns {unknown}")
    for col in CSV_COLUMNS:
        if header.count(col) > 1:
            raise SchemaError(f"column {col!r} appears more than once")
    # The header is now a permutation of CSV_COLUMNS.
    width = len(CSV_COLUMNS)
    i_state, i_elec, i_gas, i_ci = (header.index(c) for c in CSV_COLUMNS)
    profiles = []
    for row in reader:
        if not row:
            continue
        if len(row) < width:
            row += [""] * (width - len(row))
        state = row[i_state].strip()
        elec = row[i_elec].strip()
        gas = row[i_gas].strip()
        ci = row[i_ci].strip()
        if not (state and elec and gas and ci):
            if strict:
                raise SchemaError(f"row {reader.line_num}: blank field (strict mode)")
            continue  # partial-vintage row, tolerated in non-strict mode
        profiles.append(StateEnergyProfile(
            state,
            _parse_float(elec, state, "electricity_usd_per_kwh"),
            _parse_float(gas, state, "gas_usd_per_mmbtu"),
            _parse_float(ci, state, "grid_ci_kg_per_kwh"),
            vintage_year,
        ))
    return profiles


def read_input(path: Union[str, Path], what: str) -> bytes:
    """The bytes of an input file; SchemaError if there is none."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"{what} file not found: {path}")
    return path.read_bytes()


def reference_bytes() -> bytes:
    """The bytes of the packaged 2020 reference dataset."""
    return (resources.files("h2cost.data")
            .joinpath(REFERENCE_DATASET_NAME).read_bytes())


def _text(data: bytes, path) -> str:
    """data decoded as UTF-8; SchemaError naming path if it is not."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from exc


def _profiles_from_bytes(data: bytes, path, vintage_year: int,
                         strict: bool) -> list[StateEnergyProfile]:
    # newline="" splits lines as the csv module expects of an open file.
    return _profiles_from_csv(io.StringIO(_text(data, path), newline=""),
                              vintage_year, strict)


def load_state_profiles(path: Union[str, Path], vintage_year: int = 2020,
                        strict: bool = True,
                        data: Optional[bytes] = None) -> Dataset:
    """Load a state dataset from CSV, preserving row order.

    Column order in the file is free; the header is mandatory and names
    each column once. In strict mode (default) any blank field is an error;
    otherwise incomplete rows are skipped. data, if given, is the file's
    bytes as the caller already read them from path.
    """
    path = Path(path)
    if data is None:
        data = read_input(path, "dataset")
    profiles = _profiles_from_bytes(data, path, vintage_year, strict)
    if not profiles:
        raise ValidationError(f"{path}: no usable rows")
    return Dataset(profiles=tuple(profiles), vintage_year=vintage_year)


def reference_dataset(data: Optional[bytes] = None) -> Dataset:
    """The packaged 2020 reference dataset (51 rows: 50 states plus DC);
    data, if given, is what reference_bytes() returned."""
    if data is None:
        data = reference_bytes()
    profiles = _profiles_from_bytes(data, REFERENCE_DATASET_NAME, 2020,
                                    strict=True)
    return Dataset(profiles=tuple(profiles), vintage_year=2020)


def write_state_profiles(dataset: Dataset, path: Union[str, Path]) -> None:
    """Canonical CSV emission: fixed column order, shortest-roundtrip floats.

    Loading the written file reproduces the dataset exactly, and writing it
    again is byte-identical.
    """
    path = Path(path)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for p in dataset.profiles:
        writer.writerow([p.state, repr(p.electricity_price), repr(p.gas_price),
                         repr(p.grid_carbon_intensity)])
    path.write_text(buf.getvalue(), encoding="utf-8")


# --- configuration -----------------------------------------------------

_TECH_FIELDS = {f.name for f in dc_fields(TechnologyParams)} - {"name"}
_SMR_FIELDS = {f.name for f in dc_fields(SmrParams)}
_SCENARIO_KEYS = {"name", "target_year", "learning_case",
                  "cumulative_production_target", "electricity_price_rule",
                  "capacity_factor", "grid_trajectory", "lifetime_override",
                  "unit_om_cost_override"}


def _tech_by_name(name: str) -> Technology:
    try:
        return Technology(name)
    except ValueError as exc:
        raise SchemaError(f"unknown technology {name!r}") from exc


def _object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{key} must be a JSON object, got {json.dumps(value)}")
    return value


def _number(value, key: str) -> float:
    """A finite JSON number as a float. Strings, booleans, null, lists,
    objects, NaN and +-Infinity raise SchemaError naming the key."""
    if type(value) is int or type(value) is float:  # bool is not a number
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise SchemaError(f"{key} must be a finite number, got {json.dumps(value)}")


def _integer(value, key: str) -> int:
    """A finite JSON number with no fractional part (2040 or 2040.0)."""
    number = _number(value, key)
    if not number.is_integer():
        raise SchemaError(f"{key} must be an integer, got {json.dumps(value)}")
    return int(number)


def _tech_map(section, key: str) -> dict[Technology, float]:
    return {_tech_by_name(k): _number(v, f"{key}.{k}")
            for k, v in _object(section, key).items()}


def _parse_price_rule(obj, key: str) -> PriceRule:
    unknown = set(_object(obj, key)) - {"kind", "value"}
    if unknown:
        raise SchemaError(f"unknown price rule keys {sorted(unknown)}")
    value = obj.get("value")
    if value is not None:
        value = _number(value, f"{key}.value")
    return PriceRule(kind=obj.get("kind", "dataset"), value=value)


def _parse_trajectory(obj, key: str) -> GridTrajectory:
    unknown = set(_object(obj, key)) - {"kind", "zero_year"}
    if unknown:
        raise SchemaError(f"unknown trajectory keys {sorted(unknown)}")
    zero_year = obj.get("zero_year")
    if zero_year is not None:
        zero_year = _integer(zero_year, f"{key}.zero_year")
    return GridTrajectory(kind=obj.get("kind", "constant"), zero_year=zero_year)


def _parse_scenario(obj, key: str) -> Scenario:
    unknown = set(_object(obj, key)) - _SCENARIO_KEYS
    if unknown:
        raise SchemaError(f"scenario {obj.get('name', '?')!r}: "
                          f"unknown keys {sorted(unknown)}")
    for field in ("name", "target_year", "learning_case",
                  "cumulative_production_target"):
        if field not in obj:
            raise SchemaError(f"scenario missing required key {field!r}")
    name = obj["name"]
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{key}.name must be a non-empty string, "
                          f"got {json.dumps(name)}")
    try:
        case = LearningCase(obj["learning_case"])
    except ValueError as exc:
        raise SchemaError(f"unknown learning case {obj['learning_case']!r}") from exc
    kwargs = dict(
        name=name,
        target_year=_integer(obj["target_year"], f"{key}.target_year"),
        learning_case=case,
        cumulative_production_target=_tech_map(
            obj["cumulative_production_target"],
            f"{key}.cumulative_production_target"),
    )
    if "electricity_price_rule" in obj:
        kwargs["electricity_price_rule"] = _parse_price_rule(
            obj["electricity_price_rule"], f"{key}.electricity_price_rule")
    if "capacity_factor" in obj:
        kwargs["capacity_factor"] = _number(obj["capacity_factor"],
                                            f"{key}.capacity_factor")
    if "grid_trajectory" in obj:
        kwargs["grid_trajectory"] = _parse_trajectory(
            obj["grid_trajectory"], f"{key}.grid_trajectory")
    for field in ("lifetime_override", "unit_om_cost_override"):
        if obj.get(field) is not None:
            kwargs[field] = _tech_map(obj[field], f"{key}.{field}")
    return Scenario(**kwargs)


def _parse_anchors(rows, key: str) -> tuple[tuple[float, float, float], ...]:
    if not isinstance(rows, list):
        raise SchemaError(f"{key} must be a list of "
                          f"[leakage, ci_no_ccs, ci_ccs] rows")
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 3:
            raise SchemaError(f"{key}[{i}] must be [leakage, ci_no_ccs, ci_ccs], "
                              f"got {json.dumps(row)}")
        parsed.append(tuple(_number(x, f"{key}[{i}][{j}]")
                            for j, x in enumerate(row)))
    return tuple(parsed)


def load_config(path: Union[str, Path, None],
                data: Optional[bytes] = None) -> tuple[
        list[TechnologyParams], SmrParams, list[Scenario]]:
    """Load (registry, SMR params, scenarios) from a JSON config file.

    Missing sections fall back to the built-in defaults. The `technologies`
    section maps technology names to field overrides of the default entry;
    the `smr` section overrides surrogate fields; a provided `scenarios`
    list replaces the default scenario list entirely. Unknown keys are
    rejected to catch typos. Every number must be a finite JSON number,
    years must be integers and scenario names must be unique. data, if
    given, is the file's bytes as the caller already read them from path.
    """
    registry = default_registry()
    smr_params = default_smr_params()
    scenarios = default_scenarios()
    if path is None:
        return registry, smr_params, scenarios
    path = Path(path)
    if data is None:
        data = read_input(path, "config")
    try:
        # Newlines as a text-mode read gives them, so the positions in a
        # JSON error message count characters as before.
        text = _text(data, path).replace("\r\n", "\n").replace("\r", "\n")
        raw = json.loads(text or "{}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    unknown = set(raw) - {"technologies", "smr", "scenarios"}
    if unknown:
        raise SchemaError(f"unknown config sections {sorted(unknown)}")

    if "technologies" in raw:
        overrides = raw["technologies"]
        if not isinstance(overrides, dict):
            raise SchemaError("'technologies' must map name -> field overrides")
        by_name = {p.name: p for p in registry}
        for name, fields in overrides.items():
            tech = _tech_by_name(name)
            bad = set(_object(fields, f"technologies.{name}")) - _TECH_FIELDS
            if bad:
                raise SchemaError(f"technology {name}: unknown fields {sorted(bad)}")
            by_name[tech] = with_overrides(
                by_name[tech], **{k: _number(v, f"technologies.{name}.{k}")
                                  for k, v in fields.items()})
        registry = [by_name[t] for t in Technology]

    if "smr" in raw:
        fields = _object(raw["smr"], "smr")
        bad = set(fields) - _SMR_FIELDS
        if bad:
            raise SchemaError(f"smr section: unknown fields {sorted(bad)}")
        merged = {f.name: getattr(smr_params, f.name) for f in dc_fields(SmrParams)}
        for k, v in fields.items():
            merged[k] = (_parse_anchors(v, f"smr.{k}") if k == "emissions_anchors"
                         else _number(v, f"smr.{k}"))
        smr_params = SmrParams(**merged)

    if "scenarios" in raw:
        if not isinstance(raw["scenarios"], list):
            raise SchemaError("'scenarios' must be a list")
        scenarios = [_parse_scenario(obj, f"scenarios[{i}]")
                     for i, obj in enumerate(raw["scenarios"])]
        names = set()
        for sc in scenarios:
            if sc.name in names:
                raise SchemaError(f"duplicate scenario name {sc.name!r}")
            names.add(sc.name)

    return registry, smr_params, scenarios


def registry_to_json(registry: Sequence[TechnologyParams]) -> str:
    """Serialize a registry to canonical JSON (round-trips exactly)."""
    payload = [
        {"name": p.name.value,
         **{f: getattr(p, f) for f in sorted(_TECH_FIELDS)}}
        for p in registry
    ]
    return json.dumps(payload, indent=2, sort_keys=True)


def registry_from_json(text: str) -> list[TechnologyParams]:
    return [
        TechnologyParams(name=_tech_by_name(obj["name"]),
                         **{k: v for k, v in obj.items() if k != "name"})
        for obj in json.loads(text)
    ]
