"""File ingestion: state datasets (CSV) and model configuration (JSON).

One canonical units convention in files: USD/kWh, USD/MMBtu, kg CO2e/kWh.
No unit auto-detection. Every malformed input raises a structured error;
a partially-loaded dataset is never returned.
"""

import csv
import io
import math
import os
import sys
from collections.abc import Sequence
from itertools import compress
from pathlib import Path

from .errors import SchemaError, ValidationError
from .model import (
    Dataset,
    GridTrajectory,
    LearningCase,
    PriceRule,
    Scenario,
    SmrParams,
    Technology,
    TechnologyParams,
    check_profile,
    default_registry,
    default_scenarios,
    default_smr_params,
    with_overrides,
)

CSV_COLUMNS = ("state", "electricity_usd_per_kwh", "gas_usd_per_mmbtu",
               "grid_ci_kg_per_kwh")

REFERENCE_DATASET_NAME = "state_profiles_2020.csv"


def _plain_ascii(text: str) -> bool:
    """float() also reads "1_0" and other scripts' digits, so only ASCII
    text without "_" is a number here."""
    return text.isascii() and "_" not in text


def _parse_float(raw: str, state: str, column: str) -> float:
    try:
        if _plain_ascii(raw):
            return float(raw)
    except ValueError:
        pass
    raise SchemaError(f"state {state}: column {column!r} is not a number: {raw!r}")


def _row_walk(reader, index: Sequence[int], strict: bool) -> tuple[list, ...]:
    """The state, electricity, gas and grid CI columns (cells index of each
    row) of a state CSV, checked row by row: the first bad row raises."""
    columns: tuple[list, ...] = ([], [], [], [])
    next(reader)  # the header
    for row in reader:
        if not row:
            continue
        row += [""] * len(index)  # a short row's missing cells read as blank
        state, *raw = (row[i].strip() for i in index)
        if not (state and all(raw)):
            if strict:
                raise SchemaError(f"row {reader.line_num}: blank field (strict mode)")
            continue  # partial-vintage row, tolerated in non-strict mode
        values = [_parse_float(x, state, c) for x, c in zip(raw, CSV_COLUMNS[1:])]
        check_profile(state, *values)
        for column, value in zip(columns, (state, *values)):
            column.append(value)
    return columns


def _parse_dataset(data: bytes, path, strict: bool) -> Dataset:
    """The one parser of a state CSV, a column at a time.

    Reads like csv.DictReader on the same file: rows with no cells are
    skipped, a short row's missing cells read as blank and extra cells are
    ignored. Unlike DictReader, a header that names a column twice is an
    error instead of keeping the last one. Each column is parsed with one
    map for the Dataset constructor to check; if that fails, _row_walk reads
    the rows again to raise for the first bad row, or returns the columns.
    """
    # newline="" splits lines as the csv module expects of an open file.
    text = io.StringIO(_text(data, path), newline="")
    reader = csv.reader(text)
    try:
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
        index = [header.index(c) for c in CSV_COLUMNS]
        rows = [row for row in reader if row]
        if min(map(len, rows), default=width) < width:
            rows = [row + [""] * width for row in rows]
        cells = list(zip(*rows)) or [()] * width
        states = list(map(str.strip, cells[index[0]]))
        # Number cells stay unstripped: float() skips the same whitespace, and
        # a blank or whitespace-only cell fails float() and goes to the walk.
        numbers = [cells[i] for i in index[1:]]
        if not strict and not (all(states) and all(map(all, numbers))):
            keep = list(map(all, zip(states, *numbers)))
            states, *numbers = (list(compress(c, keep)) for c in (states, *numbers))
        try:
            if not all(map(_plain_ascii, map("".join, numbers))):
                raise ValueError
            return Dataset(states, *(map(float, column) for column in numbers))
        except ValueError:  # a ValidationError too
            text.seek(0)
            reader = csv.reader(text)
            states, *numbers = _row_walk(reader, index, strict)
    except csv.Error as exc:  # a cell longer than csv.field_size_limit()
        raise SchemaError(f"{path}: line {reader.line_num}: {exc}") from exc
    # After the walk, which in --no-strict also skips whitespace-only cells.
    if not states:
        raise ValidationError(f"{path}: no usable rows")
    return Dataset(states, *numbers)


def read_input(path: str | Path, what: str) -> bytes:
    """The bytes of an input file; SchemaError if there is none."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"{what} file not found: {path}")
    return path.read_bytes()


def reference_bytes() -> bytes:
    """The bytes of the packaged 2020 reference dataset, read from the data
    directory next to this module (so not from a zip-imported package)."""
    with io.open(os.path.join(os.path.dirname(__file__), "data",
                              REFERENCE_DATASET_NAME), "rb") as fh:
        return fh.read()


def _text(data: bytes, path) -> str:
    """data decoded as UTF-8 less a leading BOM; SchemaError naming path if
    it is not UTF-8. Excel's "CSV UTF-8" starts with a BOM."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from exc


def load_state_profiles(path: str | Path, strict: bool = True,
                        data: bytes | None = None) -> Dataset:
    """Load a model.BASE_YEAR state dataset from CSV, preserving row order.

    Column order in the file is free; the header is mandatory and names
    each column once. In strict mode (default) any blank field is an error;
    otherwise incomplete rows are skipped. data, if given, is the file's
    bytes as the caller already read them from path.
    """
    path = Path(path)
    if data is None:
        data = read_input(path, "dataset")
    return _parse_dataset(data, path, strict)


def reference_dataset(data: bytes | None = None) -> Dataset:
    """The packaged 2020 reference dataset (51 rows: 50 states plus DC);
    data, if given, is what reference_bytes() returned."""
    if data is None:
        data = reference_bytes()
    return _parse_dataset(data, REFERENCE_DATASET_NAME, strict=True)


# --- configuration -----------------------------------------------------

_TECH_FIELDS = set(TechnologyParams._fields) - {"name"}
_SCENARIO_KEYS = set(Scenario._fields)
# By value: a dict lookup costs far less than calling the Enum class.
_TECHNOLOGIES = {t.value: t for t in Technology}
_LEARNING_CASES = {c.value: c for c in LearningCase}


def _tech_by_name(name: str) -> Technology:
    try:
        return _TECHNOLOGIES[name]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"unknown technology {name!r}") from exc


def _unique_keys(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict; SchemaError if a key
    appears twice, where json.loads would keep the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        twice = next(k for i, k in enumerate(keys) if keys.index(k) < i)
        raise SchemaError(f"key {twice!r} appears more than once in an object")
    return obj


def _json_text(value) -> str:
    """json.dumps(value) for an error message: only that path imports json."""
    import json
    return json.dumps(value)


def _object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{key} must be a JSON object, got {_json_text(value)}")
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
            return number + 0.0  # -0.0 as 0.0
    raise SchemaError(f"{key} must be a finite number, got {_json_text(value)}")


def _integer(value, key: str) -> int:
    """A finite JSON number with no fractional part (2040 or 2040.0)."""
    number = _number(value, key)
    if not number.is_integer():
        raise SchemaError(f"{key} must be an integer, got {_json_text(value)}")
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
                          f"got {_json_text(name)}")
    try:  # name the scenario, as Scenario's own messages do
        try:
            case = _LEARNING_CASES[obj["learning_case"]]
        except (KeyError, TypeError) as exc:  # TypeError: a list or an object
            raise SchemaError(
                f"unknown learning case {obj['learning_case']!r}") from exc
        kwargs = dict(
            name=name,
            target_year=_integer(obj["target_year"], f"{key}.target_year"),
            learning_case=case,
            cumulative_production_target=_tech_map(
                obj["cumulative_production_target"],
                f"{key}.cumulative_production_target"),
        )
        if "capacity_factor" in obj:
            kwargs["capacity_factor"] = _number(obj["capacity_factor"],
                                                f"{key}.capacity_factor")
        if "electricity_price_rule" in obj:
            kwargs["electricity_price_rule"] = _parse_price_rule(
                obj["electricity_price_rule"], f"{key}.electricity_price_rule")
        if "grid_trajectory" in obj:
            kwargs["grid_trajectory"] = _parse_trajectory(
                obj["grid_trajectory"], f"{key}.grid_trajectory")
        for field in ("lifetime_override", "unit_om_cost_override"):
            if obj.get(field) is not None:
                kwargs[field] = _tech_map(obj[field], f"{key}.{field}")
    except (SchemaError, ValidationError) as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    return Scenario(**kwargs)


def _parse_anchors(rows, key: str) -> tuple[tuple[float, float, float], ...]:
    if not isinstance(rows, list):
        raise SchemaError(f"{key} must be a list of "
                          f"[leakage, ci_no_ccs, ci_ccs] rows")
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 3:
            raise SchemaError(f"{key}[{i}] must be [leakage, ci_no_ccs, ci_ccs], "
                              f"got {_json_text(row)}")
        parsed.append(tuple(_number(x, f"{key}[{i}][{j}]")
                            for j, x in enumerate(row)))
    return tuple(parsed)


def load_config(path: str | Path | None,
                data: bytes | None = None) -> tuple[
        list[TechnologyParams], SmrParams, list[Scenario]]:
    """Load (registry, SMR params, scenarios) from a JSON config file.

    Missing sections fall back to the built-in defaults. The `technologies`
    section maps technology names to field overrides of the default entry;
    the `smr` section overrides surrogate fields; a provided `scenarios`
    list replaces the default scenario list entirely. Unknown keys are
    rejected to catch typos, and so is a key named twice in one object.
    Every number must be a finite JSON number (-0 reads as 0), years must
    be integers and scenario names must be unique. data, if given, is the
    file's bytes as the caller already read them from path.
    """
    registry = default_registry()
    smr_params = default_smr_params()
    scenarios = default_scenarios()
    if path is None:
        return registry, smr_params, scenarios
    import json

    path = Path(path)
    if data is None:
        data = read_input(path, "config")
    # Newlines as a text-mode read gives them, so the positions in a JSON
    # error message count characters as before.
    text = _text(data, path).replace("\r\n", "\n").replace("\r", "\n")
    try:
        raw = json.loads(text or "{}", object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: invalid JSON: nested too deeply") from exc
    except SchemaError as exc:  # from _unique_keys; a ValueError too
        raise SchemaError(f"{path}: {exc}") from exc
    except ValueError as exc:  # the only other: int() refuses too many digits
        raise SchemaError(f"{path}: invalid JSON: an integer has more than "
                          f"{sys.get_int_max_str_digits()} digits") from exc
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
        bad = set(fields).difference(SmrParams._fields)
        if bad:
            raise SchemaError(f"smr section: unknown fields {sorted(bad)}")
        merged = dict(vars(smr_params))
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

