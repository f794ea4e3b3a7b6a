"""File ingestion: state datasets (CSV) and model configuration (JSON).

One canonical units convention in files: USD/kWh, USD/MMBtu, kg CO2e/kWh.
No unit auto-detection. Every malformed input raises a structured error;
a partially-loaded dataset is never returned.
"""

import io
import math
import os
import sys
from itertools import compress
from types import SimpleNamespace

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
    _SMR_DEFAULTS,
    _TECHNOLOGY_DEFAULTS,
    _first_repeat,
    check_profile,
    default_registry,
    default_scenarios,
    default_smr_params,
)

CSV_COLUMNS = ("state", "electricity_usd_per_kwh", "gas_usd_per_mmbtu",
               "grid_ci_kg_per_kwh")

# The packaged 2020 reference dataset (50 states plus DC): the default
# --dataset file, so a zip-imported package cannot run.
REFERENCE_DATASET = os.path.join(os.path.dirname(__file__), "data",
                                 "state_profiles_2020.csv")


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


def _column_index(header: list[str]) -> list[int]:
    """The position in header of each of CSV_COLUMNS; SchemaError unless
    header names each of them once and nothing else."""
    for col in CSV_COLUMNS:
        if col not in header:
            raise SchemaError(f"missing required column {col!r}")
    unknown = [c for c in header if c not in CSV_COLUMNS]
    if unknown:
        raise SchemaError(f"unknown columns {unknown}")
    for col in CSV_COLUMNS:
        if header.count(col) > 1:
            raise SchemaError(f"column {col!r} appears more than once")
    return [header.index(c) for c in CSV_COLUMNS]


def _row_walk(text: str, path, strict: bool) -> tuple[list, ...]:
    """The state, electricity, gas and grid CI columns of the CSV text, read
    by the csv module and checked row by row: the first bad row raises, a
    csv.Error (a cell over csv.field_size_limit()) as a SchemaError naming
    path and line, and no usable rows as a ValidationError naming path."""
    import csv
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        index = _column_index(next(reader, []))
        rows = [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise SchemaError(f"{path}: line {reader.line_num}: {exc}") from exc
    columns: tuple[list, ...] = ([], [], [], [])
    for line, row in rows:
        row += [""] * len(index)  # a short row's missing cells read as blank
        state, *raw = (row[i].strip() for i in index)
        if not (state and all(raw)):
            if strict:
                raise SchemaError(f"row {line}: blank field (strict mode)")
            continue  # partial-vintage row, tolerated in non-strict mode
        values = [_parse_float(x, state, c) for x, c in zip(raw, CSV_COLUMNS[1:])]
        check_profile(state, *values)
        for column, value in zip(columns, (state, *values)):
            column.append(value)
    if not columns[0]:
        raise ValidationError(f"{path}: no usable rows")
    return columns


def _plain_split(text: str) -> tuple[list[int], list] | None:
    """The _column_index of text's header, and its non-empty data lines as
    columns of cells, for a text that csv.reader would split at each CR, LF
    or CRLF and "," alone: no '"' or NUL, no line over csv's default field
    limit and three commas on each non-empty data line; else None. One
    split at commas of all the lines, with a separator cell after each,
    both checks the commas and cuts the columns, with no call per line."""
    if '"' in text or "\0" in text:
        return None
    # A CRLF becomes a line end and an empty line, skipped as blank lines are.
    lines = text.replace("\r", "\n").split("\n")
    if len(text) > 131_072 and max(map(len, lines)) > 131_072:
        return None  # csv.reader may raise on a cell of the longest line
    index = _column_index(lines[0].split(","))
    rows = list(filter(None, lines[1:]))
    # The separator "\n" is a cell no line can hold, so each of the n rows
    # has three commas iff there are 5n + 1 cells and every fifth is a
    # separator; the last cell is the "" after the last separator.
    width = len(CSV_COLUMNS) + 1
    cells = ",\n,".join(rows + [""]).split(",")
    if (len(cells) != width * len(rows) + 1
            or cells[width - 1::width].count("\n") != len(rows)):
        return None  # a short or long row, which a flat split would shift
    return index, [cells[i:-1:width] for i in range(width - 1)]


def load_state_profiles(data: bytes, path: str | os.PathLike, strict: bool) -> Dataset:
    """The model.BASE_YEAR state dataset in data, the bytes of the CSV file
    at path (named in messages), in row order.

    Reads like csv.DictReader: column order is free, rows with no cells
    are skipped, a short row's missing cells read as blank and extra cells
    are ignored; but a header must name each column once. In strict mode a
    blank field is an error; otherwise its row is skipped. A plain file is
    split at line ends and commas and its columns parsed with one map each;
    any other file, or one with a blank state or a cell float() refuses,
    goes to _row_walk, which reads it with the csv module row by row.
    """
    path = shown_path(path)
    text = _text(data, path)
    split = _plain_split(text)
    if split is None:
        return Dataset(*_row_walk(text, path, strict))
    index, cells = split
    states = list(map(str.strip, cells[index[0]]))
    # Number cells stay unstripped: float() skips the same whitespace, and
    # a blank or whitespace-only cell fails float() and goes to the walk.
    numbers = [cells[i] for i in index[1:]]
    if not strict and not (all(states) and all(map(all, numbers))):
        keep = list(map(all, zip(states, *numbers)))
        states, *numbers = (list(compress(c, keep)) for c in (states, *numbers))
    if states and all(states) and all(map(_plain_ascii, map("".join, numbers))):
        try:
            values = [tuple(map(float, column)) for column in numbers]
        except ValueError:  # a blank or non-number cell, which the walk names
            pass
        else:  # Dataset names the first row that fails a check, as the walk does
            return Dataset(states, *values)
    return Dataset(*_row_walk(text, path, strict))


def shown_path(path: str | os.PathLike) -> str:
    """str(PurePosixPath(path)), as messages show a path and as h2cost opens
    it: no "." or empty part, a trailing "/" dropped, ".." and a leading
    "//" (but not "///") kept, "." for nothing."""
    path = os.fspath(path)
    root = "//" if path[:2] == "//" and path[2:3] != "/" else "/" * path.startswith("/")
    return root + "/".join(p for p in path.split("/") if p not in ("", ".")) or "."


def read_input(path: str | os.PathLike, what: str) -> bytes:
    """The bytes of an input file (no loader reads one); SchemaError if none.
    Any other error of open or read, a directory or a name too long, is the
    OSError it raises."""
    if path == "":   # Path("") is the current directory
        raise SchemaError(f"{what} path is empty")
    path = shown_path(path)
    try:
        with open(path, "rb") as file:
            return file.read()
    except (FileNotFoundError, NotADirectoryError, ValueError):   # ValueError: a NUL
        raise SchemaError(f"{what} file not found: {path}") from None


def _text(data: bytes, path) -> str:
    """data decoded as UTF-8 less a leading BOM; SchemaError naming path if
    it is not UTF-8. Excel's "CSV UTF-8" starts with a BOM."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from exc


# --- configuration -----------------------------------------------------

_TECH_FIELDS = set(TechnologyParams._fields) - {"name"}
_SCENARIO_KEYS = set(Scenario._fields)
_REQUIRED_KEYS = [f for f in Scenario._fields if f not in Scenario._defaults]
# By value: a dict lookup costs far less than calling the Enum class.
_TECHNOLOGIES = {t.value: t for t in Technology}
_LEARNING_CASES = {c.value: c for c in LearningCase}


def _member(members: dict, name, noun: str):
    """members[name], the enum member of that value; SchemaError if none."""
    try:
        return members[name]
    except (KeyError, TypeError) as exc:  # TypeError: a list or an object
        raise SchemaError(f"unknown {noun} {name!r}") from exc


def _known(obj: dict, allowed: set, message: str, *args) -> dict:
    """obj; SchemaError "<message % args> [its keys not in allowed, sorted]"
    if it has any. Only that path formats the message."""
    if allowed.issuperset(obj):
        return obj
    raise SchemaError(f"{message % args} {sorted(set(obj) - allowed)}")


def _unique_keys(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict; SchemaError if a key
    appears twice, where json.loads would keep the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        twice = _first_repeat(k for k, _ in pairs)
        raise SchemaError(f"key {twice!r} appears more than once in an object")
    return obj


# json.loads's decoder, as _json.make_scanner reads it: strict strings, no
# repeated key, and float(), int() and float() for numbers and constants.
_DECODER = SimpleNamespace(strict=True, object_hook=None, parse_float=float,
                           parse_int=int, parse_constant=float,
                           object_pairs_hook=_unique_keys)


def _load_json(text: str, path: str):
    """json.loads(text, object_pairs_hook=_unique_keys), parsed by the C
    scanner that json.loads runs. json is imported only where that fails,
    to raise its own error as a SchemaError naming path, or is missing."""
    body = text.strip(" \t\n\r")   # the whitespace json skips
    try:
        from _json import make_scanner
        value, end = make_scanner(_DECODER)(body, 0)
        if end == len(body):
            return value
    except (ImportError, StopIteration, ValueError, RecursionError):
        pass   # no C module, or an error that json.loads raises below
    import json
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: invalid JSON: nested too deeply") from exc
    except SchemaError as exc:  # from _unique_keys; a ValueError too
        raise SchemaError(f"{path}: {exc}") from exc
    except ValueError as exc:  # the only other: int() refuses too many digits
        raise SchemaError(f"{path}: invalid JSON: an integer has more than "
                          f"{sys.get_int_max_str_digits()} digits") from exc


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
    """A finite JSON number with no fractional part (2040 or 2040.0); an
    integer literal as the exact int, also beyond 2^53."""
    number = _number(value, key)
    if not number.is_integer():
        raise SchemaError(f"{key} must be an integer, got {_json_text(value)}")
    return value if type(value) is int else int(number)


def _tech_map(section, key: str) -> dict[Technology, float]:
    return {_member(_TECHNOLOGIES, k, "technology"): _number(v, f"{key}.{k}")
            for k, v in _object(section, key).items()}


# A scenario's {"kind", <value>} objects: the class, its unknown-key
# message and the parser of its value, whose key is the class's second field.
_KIND_OBJECTS = {
    "electricity_price_rule": (PriceRule, "unknown price rule keys", _number),
    "grid_trajectory": (GridTrajectory, "unknown trajectory keys", _integer)}


def _parse_kind(obj, key: str, field: str) -> PriceRule | GridTrajectory:
    """The scenario field's object at key; its kind defaults to the first
    of the class's KINDS."""
    cls, message, parse = _KIND_OBJECTS[field]
    value_key = cls._fields[1]
    _known(_object(obj, key), {"kind", value_key}, message)
    value = obj.get(value_key)
    if value is not None:
        value = parse(value, f"{key}.{value_key}")
    return cls(obj.get("kind", cls.KINDS[0]), value)


def _parse_scenario(obj, key: str) -> Scenario:
    name = _object(obj, key).get("name")
    named = isinstance(name, str) and name != ""
    label = name if named else key  # what each message starts with
    _known(obj, _SCENARIO_KEYS, "%s: unknown keys", label)
    for field in _REQUIRED_KEYS:
        if field not in obj:
            raise SchemaError(f"{label}: missing required key {field!r}")
    if not named:
        raise SchemaError(f"{key}.name must be a non-empty string, "
                          f"got {_json_text(name)}")
    try:  # name the scenario, as Scenario's own messages do
        kwargs = dict(
            name=name,
            learning_case=_member(_LEARNING_CASES, obj["learning_case"],
                                  "learning case"),
            target_year=_integer(obj["target_year"], f"{key}.target_year"),
            cumulative_production_target=_tech_map(
                obj["cumulative_production_target"],
                f"{key}.cumulative_production_target"),
        )
        if "capacity_factor" in obj:
            kwargs["capacity_factor"] = _number(obj["capacity_factor"],
                                                f"{key}.capacity_factor")
        for field in _KIND_OBJECTS:
            if field in obj:
                kwargs[field] = _parse_kind(obj[field], f"{key}.{field}", field)
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


def load_config(data: bytes | None, path: str | os.PathLike | None) -> tuple[
        list[TechnologyParams], SmrParams, list[Scenario]]:
    """Parse (registry, SMR params, scenarios) from data, the bytes of the
    JSON config file at path (named in messages); with no data, the
    built-in defaults.

    Missing sections fall back to the built-in defaults. The `technologies`
    section maps technology names to field overrides of the default entry;
    the `smr` section overrides surrogate fields; a provided `scenarios`
    list, which must not be empty, replaces the default scenario list.
    Unknown keys are rejected to catch typos, and so is a key named twice
    in one object.
    Numbers must be finite JSON numbers (-0 reads as 0), years integers and
    scenario names unique, and each scenario must pass validate_against.
    """
    if data is None:
        return default_registry(), default_smr_params(), default_scenarios()
    path = shown_path(path)
    # Newlines as a text-mode read gives them, so the positions in a JSON
    # error message count characters as before.
    text = _text(data, path).replace("\r\n", "\n").replace("\r", "\n")
    raw = _load_json(text, path)
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    _known(raw, {"technologies", "smr", "scenarios"}, "unknown config sections")

    # Each parameter object is built once, from its default fields and the
    # config's overrides, in the order the config names them.
    by_name = {}
    overrides = raw.get("technologies", {})
    if not isinstance(overrides, dict):
        raise SchemaError("'technologies' must map name -> field overrides")
    for name, fields in overrides.items():
        tech = _member(_TECHNOLOGIES, name, "technology")
        _known(_object(fields, f"technologies.{name}"), _TECH_FIELDS,
               "technology %s: unknown fields", name)
        by_name[tech] = TechnologyParams(name=tech, **_TECHNOLOGY_DEFAULTS[tech] | {
            k: _number(v, f"technologies.{name}.{k}") for k, v in fields.items()})
    registry = [by_name.get(t) or TechnologyParams(name=t, **_TECHNOLOGY_DEFAULTS[t])
                for t in Technology]

    fields = _known(_object(raw.get("smr", {}), "smr"), set(SmrParams._fields),
                    "smr section: unknown fields")
    smr_params = SmrParams(**_SMR_DEFAULTS | {
        k: _parse_anchors(v, f"smr.{k}") if k == "emissions_anchors"
        else _number(v, f"smr.{k}") for k, v in fields.items()})

    if "scenarios" in raw:
        if not isinstance(raw["scenarios"], list):
            raise SchemaError("'scenarios' must be a list")
        if not raw["scenarios"]:
            raise SchemaError("'scenarios' must list at least one scenario")
        scenarios = [_parse_scenario(obj, f"scenarios[{i}]")
                     for i, obj in enumerate(raw["scenarios"])]
        if (twice := _first_repeat(sc.name for sc in scenarios)) is not None:
            raise SchemaError(f"duplicate scenario name {twice!r}")
    else:
        scenarios = default_scenarios()
    for sc in scenarios:
        sc.validate_against(registry)
    return registry, smr_params, scenarios

