import codecs
import csv
import enum
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from h2cost import ingest
from h2cost.errors import SchemaError, ValidationError
from h2cost.ingest import (
    CSV_COLUMNS,
    REFERENCE_DATASET_NAME,
    Dataset,
    load_config,
    load_state_profiles,
    reference_bytes,
    reference_dataset,
)
from h2cost.model import (
    BASE_YEAR,
    LearningCase,
    StateEnergyProfile,
    Technology,
    default_registry,
    default_smr_params,
)

HEADER = "state,electricity_usd_per_kwh,gas_usd_per_mmbtu,grid_ci_kg_per_kwh\n"


def write_csv(tmp_path, body, name="states.csv"):
    path = tmp_path / name
    path.write_text(HEADER + body)
    return path


def test_load_two_rows(tmp_path):
    path = write_csv(tmp_path, "TX,0.0449,1.88,0.36\nOK,0.0415,2.04,0.32\n")
    ds = load_state_profiles(path)
    assert ds.states == ("TX", "OK")  # row order preserved
    assert ds.profiles[0].gas_price == 1.88


def test_missing_column_names_it(tmp_path):
    path = tmp_path / "states.csv"
    path.write_text("state,electricity_usd_per_kwh,grid_ci_kg_per_kwh\n"
                    "TX,0.0449,0.36\n")
    with pytest.raises(SchemaError, match="gas_usd_per_mmbtu"):
        load_state_profiles(path)


def test_negative_price_names_state(tmp_path):
    path = write_csv(tmp_path, "TX,-0.01,1.88,0.36\n")
    with pytest.raises(ValidationError, match="TX.*electricity_price"):
        load_state_profiles(path)


def test_duplicate_state_rejected(tmp_path):
    path = write_csv(tmp_path, "TX,0.0449,1.88,0.36\nTX,0.05,2.0,0.4\n")
    with pytest.raises(ValidationError, match="duplicate state code TX"):
        load_state_profiles(path)


def test_strict_mode_rejects_gaps_lenient_skips(tmp_path):
    path = write_csv(tmp_path, "TX,0.0449,1.88,0.36\nOK,,2.04,0.32\n")
    with pytest.raises(SchemaError):
        load_state_profiles(path, strict=True)
    ds = load_state_profiles(path, strict=False)
    assert ds.states == ("TX",)


def test_missing_file(tmp_path):
    with pytest.raises(SchemaError, match="not found"):
        load_state_profiles(tmp_path / "nope.csv")


def test_reference_dataset_sanity(dataset):
    assert len(dataset.profiles) == 51
    assert BASE_YEAR == 2020
    mean_ci = sum(p.grid_carbon_intensity for p in dataset.profiles) / 51
    assert 0.2 <= mean_ci <= 0.5


def test_dataset_requires_states():
    with pytest.raises(ValidationError):
        Dataset([], [], [], [])


def test_empty_config_yields_defaults(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{}")
    registry, smr_params, scenarios = load_config(path)
    assert registry == default_registry()
    assert smr_params == default_smr_params()
    assert [s.name for s in scenarios] == ["base-2020", "aps-2050"]


def test_config_overrides_one_field(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"technologies": {"SOEC": {"unit_system_cost": 2000}}}))
    registry, _, _ = load_config(path)
    by_name = {p.name: p for p in registry}
    assert by_name[Technology.SOEC].unit_system_cost == 2000
    assert by_name[Technology.SOEC].efficiency == 44  # untouched field
    assert by_name[Technology.ALKALINE] == default_registry()[0]


def test_config_range_check(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"technologies": {"PEM": {"learning_rate_aps": 1.5}}}))
    with pytest.raises(ValidationError):
        load_config(path)


def test_config_unknown_keys_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"technologeis": {}}))
    with pytest.raises(SchemaError, match="technologeis"):
        load_config(path)
    path.write_text(json.dumps({"technologies": {"PEM": {"efficency": 50}}}))
    with pytest.raises(SchemaError, match="efficency"):
        load_config(path)
    path.write_text(json.dumps({"smr": {"base_price": 1.0}}))
    with pytest.raises(SchemaError, match="base_price"):
        load_config(path)


def test_config_smr_and_scenarios_sections(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "smr": {"ccs_adder": 0.5},
        "scenarios": [{
            "name": "flat-2030",
            "target_year": 2030,
            "learning_case": "NZE",
            "cumulative_production_target": {"Alkaline": 40000, "PEM": 900, "SOEC": 20},
            "electricity_price_rule": {"kind": "multiplier", "value": 0.5},
            "grid_trajectory": {"kind": "linear_to_zero", "zero_year": 2035},
        }],
    }))
    registry, smr_params, scenarios = load_config(path)
    assert smr_params.ccs_adder == 0.5
    assert smr_params.base_cost == default_smr_params().base_cost
    assert [s.name for s in scenarios] == ["flat-2030"]
    sc = scenarios[0]
    assert sc.electricity_price_rule.value == 0.5
    assert sc.grid_trajectory.zero_year == 2035
    sc.validate_against(registry)


# --- the one-pass CSV reader against a csv.DictReader reference --------

def _dictreader_rows(text, strict):
    """The DictReader semantics the reader keeps: (state, elec, gas, ci)
    tuples of stripped strings, or the strict-mode error message."""
    reader = csv.DictReader(io.StringIO(text, newline=""))
    rows = []
    for row in reader:
        cells = tuple((row.get(c) or "").strip() for c in CSV_COLUMNS)
        if not all(cells):
            if strict:
                return f"row {reader.line_num}: blank field (strict mode)"
            continue
        rows.append(cells)
    return rows


def _loaded_rows(path, strict):
    try:
        ds = load_state_profiles(path, strict=strict)
    except SchemaError as exc:
        return str(exc)
    return [(p.state, repr(p.electricity_price), repr(p.gas_price),
             repr(p.grid_carbon_intensity)) for p in ds.profiles]


READER_CASES = {
    "shuffled columns": "gas_usd_per_mmbtu,state,grid_ci_kg_per_kwh,"
                        "electricity_usd_per_kwh\n1.88,TX,0.36,0.0449\n"
                        "2.04,OK,0.32,0.0415\n",
    "blank lines": HEADER + "\nTX,0.0449,1.88,0.36\n\n\nOK,0.0415,2.04,0.32\n\n",
    "short row": HEADER + "TX,0.0449,1.88,0.36\nOK,0.0415\nWA,0.05,3.1,0.09\n",
    "extra cells": HEADER + "TX,0.0449,1.88,0.36,junk,more\n",
    "padded whitespace": HEADER + "  TX , 0.0449 ,\t1.88,0.36  \n",
    "quoted cells": HEADER + '"TX","0.0449","1.88","0.36"\n'
                             '" OK",0.0415,"2.04 ","0.32"\n',
    "blank cell after blank line": HEADER + "TX,0.0449,1.88,0.36\n\n"
                                            "OK,,2.04,0.32\n",
    "whitespace-only cell": HEADER + "TX,0.0449,1.88,0.36\nOK, ,2.04,0.32\n",
    "commas only": HEADER + "TX,0.0449,1.88,0.36\n,,,\n",
    "crlf": HEADER.replace("\n", "\r\n") + "TX,0.0449,1.88,0.36\r\n\r\n",
}


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_reader_matches_dictreader(tmp_path, case, strict):
    text = READER_CASES[case]
    path = tmp_path / "states.csv"
    path.write_bytes(text.encode())
    want = _dictreader_rows(text, strict)
    if isinstance(want, list):
        want = [(s, repr(float(e)), repr(float(g)), repr(float(c)))
                for s, e, g, c in want]
    assert _loaded_rows(path, strict) == want


def test_short_row_strict_names_its_line(tmp_path):
    path = write_csv(tmp_path, "TX,0.0449,1.88,0.36\n\nOK,0.0415\n")
    with pytest.raises(SchemaError, match=r"^row 4: blank field \(strict mode\)$"):
        load_state_profiles(path)
    assert load_state_profiles(path, strict=False).states == ("TX",)


def test_duplicate_column_rejected(tmp_path):
    path = tmp_path / "states.csv"
    path.write_text(HEADER.rstrip("\n") + ",state\nTX,0.0449,1.88,0.36,TX\n")
    with pytest.raises(SchemaError, match="column 'state' appears more than once"):
        load_state_profiles(path)


def test_unknown_column_rejected(tmp_path):
    path = tmp_path / "states.csv"
    path.write_text(HEADER.rstrip("\n") + ",notes\nTX,0.0449,1.88,0.36,x\n")
    with pytest.raises(SchemaError, match="unknown columns \\['notes'\\]"):
        load_state_profiles(path)


@pytest.mark.parametrize("row, field", [
    ("TX,inf,1.88,0.36", "electricity_price"),
    ("TX,0.0449,nan,0.36", "gas_price"),
    ("TX,0.0449,1.88,Infinity", "grid_carbon_intensity"),
    ("TX,0.0449,1.88,-inf", "grid_carbon_intensity"),
    ("TX,1e999,1.88,0.36", "electricity_price"),
])
def test_non_finite_csv_value_names_state_and_field(tmp_path, row, field):
    path = write_csv(tmp_path, row + "\n")
    with pytest.raises(ValidationError, match=f"state TX: {field} must be finite"):
        load_state_profiles(path)


def test_non_numeric_csv_value_names_state_and_column(tmp_path):
    path = write_csv(tmp_path, "TX,0.0449,n/a,0.36\n")
    with pytest.raises(SchemaError,
                       match="state TX: column 'gas_usd_per_mmbtu' is not a number"):
        load_state_profiles(path)


# --- numbers are plain ASCII; a leading byte order mark is skipped -----

@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("cell", ["1_0", "0.0_5", "\u0660.05", "\uff11.5",
                                  "1.\u0665"])
@pytest.mark.parametrize("column", CSV_COLUMNS[1:])
def test_number_with_underscore_or_non_ascii_digit_is_rejected(
        tmp_path, column, cell, strict):
    # float() reads each of these cells ("1_0" as 10.0, an Arabic-Indic or
    # fullwidth digit as its ASCII twin); the loader must not.
    cells = {"state": "TX", "electricity_usd_per_kwh": "0.0449",
             "gas_usd_per_mmbtu": "1.88", "grid_ci_kg_per_kwh": "0.36",
             column: cell}
    path = write_csv(tmp_path, "OK,0.0415,2.04,0.32\n"
                     + ",".join(cells[c] for c in CSV_COLUMNS) + "\n")
    with pytest.raises(SchemaError) as info:
        load_state_profiles(path, strict=strict)
    assert str(info.value) == (f"state TX: column {column!r} is not a number: "
                               f"{cell!r}")


def test_plain_ascii_number_forms_are_accepted(tmp_path):
    path = write_csv(tmp_path, "TX,1e-3,+.5, 2E-1 \nOK,5.,1E+0,0\n")
    ds = load_state_profiles(path)
    assert ds.electricity_prices == (0.001, 5.0)
    assert ds.gas_prices == (0.5, 1.0)
    assert ds.grid_cis == (0.2, 0.0)


def test_byte_order_mark_is_skipped_in_dataset_and_config(tmp_path):
    body = "TX,0.0449,1.88,0.36\nOK,0.0415,2.04,0.32\n"
    plain = write_csv(tmp_path, body)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(codecs.BOM_UTF8 + (HEADER + body).encode())
    assert (load_state_profiles(marked, strict=False).profiles
            == load_state_profiles(plain).profiles)
    config = tmp_path / "config.json"
    config.write_bytes(codecs.BOM_UTF8 + b"{}")
    assert load_config(config) == load_config(None)


@pytest.mark.parametrize("which", ["dataset", "config"])
def test_byte_order_mark_does_not_make_other_text_utf8(tmp_path, which):
    path = tmp_path / "input"
    if which == "dataset":
        path.write_bytes(codecs.BOM_UTF8 + (HEADER + "T\xc9,0.1,1,1\n").encode("latin-1"))
        load = load_state_profiles
    else:
        path.write_bytes(codecs.BOM_UTF8 + '{"\xe9": 1}'.encode("latin-1"))
        load = load_config
    with pytest.raises(SchemaError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}: not UTF-8 text: 'utf-8' codec "
                                      f"can't decode byte ")


# --- the column loader against the row-by-row loader it replaced --------

def _profiles_from_csv(fh, strict):
    """The row-by-row reader the column loader replaced, as it was."""
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
            continue
        profiles.append(StateEnergyProfile(
            state,
            _reference_float(elec, state, "electricity_usd_per_kwh"),
            _reference_float(gas, state, "gas_usd_per_mmbtu"),
            _reference_float(ci, state, "grid_ci_kg_per_kwh"),
        ))
    return profiles


def _reference_float(raw, state, column):
    try:
        return float(raw)
    except ValueError as exc:
        raise SchemaError(
            f"state {state}: column {column!r} is not a number: {raw!r}") from exc


def _reference_load(text, path, strict):
    """What load_state_profiles returned or raised before the columns, but
    with a grid CI of -0.0 read as 0.0."""
    profiles = [StateEnergyProfile(p.state, p.electricity_price, p.gas_price,
                                   p.grid_carbon_intensity + 0.0)
                for p in _profiles_from_csv(io.StringIO(text, newline=""),
                                            strict)]
    if not profiles:
        raise ValidationError(f"{path}: no usable rows")
    seen = set()
    for p in profiles:
        if p.state in seen:
            raise ValidationError(f"duplicate state code {p.state}")
        seen.add(p.state)
    return tuple(profiles)


def _outcome(load, *args):
    try:
        return load(*args)
    except (SchemaError, ValidationError) as exc:
        return type(exc), str(exc)


# Cells the two loaders must read alike: none holds "_" or a non-ASCII
# digit, which only the column loader rejects. Good cells are listed many
# times so that most rows load; 1e308 makes sums overflow on finite values.
GOOD_STATES = ["TX", "OK", "WA", "AK", "NM", "CA", "ME", "VT", "ID", "NH",
               " OK ", '"TX"', "\u00c4\u00d6"]
BAD_STATES = ["tx", "Tx", "TXX", "T", "T1", "", "  ", "\u4e2d\u56fd"]
GOOD_NUMBERS = ["0.0449", "1.88", "0.36", " 2.04 ", '"0.0415"', '" 0.3"',
                "1e308", "1e308", "1e-3", "+.5", "5."]
BAD_NUMBERS = ["", "  ", "nan", "NaN", "inf", "-inf", "Infinity", "-0.0", "0",
               "-1", "1e999", "abc", "1e", "0x1"]
STATE_CELL = st.sampled_from(GOOD_STATES * 8 + BAD_STATES)
NUMBER_CELL = st.sampled_from(GOOD_NUMBERS * 12 + BAD_NUMBERS)


@st.composite
def state_csvs(draw):
    order = draw(st.permutations(range(len(CSV_COLUMNS))))
    lines = [",".join(CSV_COLUMNS[i] for i in order)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["empty", "short", "long"]))
        if kind == "empty":
            lines.append("")
            continue
        cells = [draw(STATE_CELL)] + [
            draw(NUMBER_CELL) for _ in CSV_COLUMNS[1:]]
        cells = [cells[i] for i in order]
        if kind == "short":
            cells = cells[:draw(st.integers(1, len(CSV_COLUMNS) - 1))]
        elif kind == "long":
            cells += draw(st.lists(st.sampled_from(["x", "", "1"]),
                                   min_size=1, max_size=2))
        lines.append(",".join(cells))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


def _cells(rows):
    """(state, electricity, gas, grid CI) rows with each float as its repr,
    so that -0.0 and nan compare as what they are."""
    return [(s, repr(e), repr(g), repr(c)) for s, e, g, c in rows]


@settings(max_examples=400, deadline=None)
@given(text=state_csvs(), strict=st.booleans())
def test_column_loader_equals_the_row_loader(tmp_path_factory, text, strict):
    path = tmp_path_factory.mktemp("csv") / "states.csv"
    want = _outcome(_reference_load, text, path, strict)
    got = _outcome(load_state_profiles, path, strict, text.encode())
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    # The columns themselves, since the profiles view checks each row again.
    assert _cells(zip(got.states, got.electricity_prices, got.gas_prices,
                      got.grid_cis)) == _cells(
        (p.state, p.electricity_price, p.gas_price, p.grid_carbon_intensity)
        for p in want)
    assert got.profiles == want


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("column, cell", [
    *((0, cell) for cell in BAD_STATES + ["\u00c4\u00d6", " OK "]),
    *((i, cell) for i in (1, 2, 3) for cell in BAD_NUMBERS + ["1e308"])])
def test_one_bad_cell_matches_the_row_loader(tmp_path, column, cell, strict):
    # Each cell in one column of the middle row of three good rows: here a
    # column check the walk does not repeat would show as a difference.
    rows = [["WA", "0.05", "3.1", "0.09"], ["TX", "0.0449", "1.88", "0.36"],
            ["AK", "1e308", "3.35", "0.41"]]
    rows[1][column] = cell
    text = HEADER + "".join(",".join(r) + "\n" for r in rows)
    path = tmp_path / "states.csv"
    want = _outcome(_reference_load, text, path, strict)
    got = _outcome(load_state_profiles, path, strict, text.encode())
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    else:
        assert _cells(zip(got.states, got.electricity_prices, got.gas_prices,
                          got.grid_cis)) == _cells(
            (p.state, p.electricity_price, p.gas_price, p.grid_carbon_intensity)
            for p in want)


def test_column_loader_equals_the_row_loader_on_the_packaged_data(dataset):
    text = reference_bytes().decode()
    assert dataset.profiles == _reference_load(text, REFERENCE_DATASET_NAME, True)
    assert len(dataset.states) == 51


# --- typed config numbers ----------------------------------------------

def _config_error(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SchemaError) as info:
        load_config(path)
    return str(info.value)


def _scenario(**changes):
    sc = {"name": "s", "target_year": 2030, "learning_case": "APS",
          "cumulative_production_target": {"Alkaline": 40000, "PEM": 900,
                                           "SOEC": 20}}
    sc.update(changes)
    return sc


def _named(key):
    """key as a config error names it: an error in a field of a scenario
    names the scenario, "s", first."""
    if key.startswith("scenarios[0]."):
        return f"s: {key}"
    return key


NOT_NUMBERS = ["n/a", "12", "", None, True, False, [], {}, [1.0],
               math.nan, math.inf, -math.inf,
               pytest.param(10 ** 400, id="int-beyond-float-range")]


@pytest.mark.parametrize("bad", NOT_NUMBERS)
@pytest.mark.parametrize("config, key", [
    (lambda v: {"technologies": {"PEM": {"efficiency": v}}},
     "technologies.PEM.efficiency"),
    (lambda v: {"smr": {"ccs_adder": v}}, "smr.ccs_adder"),
    (lambda v: {"smr": {"emissions_anchors": [[0.002, 10.0, 2.6], [0.08, v, 10.3]]}},
     "smr.emissions_anchors[1][1]"),
    (lambda v: {"scenarios": [_scenario(capacity_factor=v)]},
     "scenarios[0].capacity_factor"),
    (lambda v: {"scenarios": [_scenario(
        electricity_price_rule={"kind": "fixed", "value": v})]},
     "scenarios[0].electricity_price_rule.value"),
    (lambda v: {"scenarios": [_scenario(
        cumulative_production_target={"Alkaline": 40000, "PEM": v})]},
     "scenarios[0].cumulative_production_target.PEM"),
    (lambda v: {"scenarios": [_scenario(lifetime_override={"SOEC": v})]},
     "scenarios[0].lifetime_override.SOEC"),
    (lambda v: {"scenarios": [_scenario(unit_om_cost_override={"Alkaline": v})]},
     "scenarios[0].unit_om_cost_override.Alkaline"),
])
def test_config_number_must_be_finite_json_number(tmp_path, config, key, bad):
    if bad is None and key.endswith("price_rule.value"):
        # A null value reads as an absent one, which a fixed rule rejects.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config(bad)))
        with pytest.raises(ValidationError, match="fixed price rule needs"):
            load_config(path)
        return
    message = _config_error(tmp_path, config(bad))
    assert message.startswith(f"{_named(key)} must be a finite number, got ")


@pytest.mark.parametrize("bad", ["2040", 2040.7, True, None, math.inf, math.nan,
                                 pytest.param(10 ** 400, id="int-beyond-float-range")])
@pytest.mark.parametrize("config, key", [
    (lambda v: {"scenarios": [_scenario(target_year=v)]},
     "scenarios[0].target_year"),
    (lambda v: {"scenarios": [_scenario(
        grid_trajectory={"kind": "linear_to_zero", "zero_year": v})]},
     "scenarios[0].grid_trajectory.zero_year"),
])
def test_config_years_must_be_integers(tmp_path, config, key, bad):
    if bad is None and "zero_year" in key:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config(bad)))
        with pytest.raises(ValidationError, match="linear_to_zero needs zero_year"):
            load_config(path)
        return
    reason = "an integer" if bad == 2040.7 else "a finite number"
    assert _config_error(tmp_path, config(bad)).startswith(
        f"{_named(key)} must be {reason}, got ")


def test_config_integral_float_year_accepted(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenarios": [_scenario(target_year=2040.0)]}))
    (sc,) = load_config(path)[2]
    assert sc.target_year == 2040 and type(sc.target_year) is int


def test_config_duplicate_scenario_name_rejected(tmp_path):
    message = _config_error(tmp_path, {"scenarios": [
        _scenario(name="twin"), _scenario(name="other"),
        _scenario(name="twin", target_year=2040)]})
    assert message == "duplicate scenario name 'twin'"


@pytest.mark.parametrize("case, shown", [
    ("aps", "'aps'"), ("", "''"), (None, "None"), (1, "1"), (True, "True"),
    (["APS"], "['APS']"), ({"APS": 1}, "{'APS': 1}"), ({}, "{}"),
])
def test_config_unknown_learning_case_is_named(tmp_path, case, shown):
    message = _config_error(tmp_path, {"scenarios": [
        _scenario(learning_case=case)]})
    assert message == f"s: unknown learning case {shown}"


@pytest.mark.parametrize("config", [
    {"technologies": {"pem": {}}},
    {"scenarios": [_scenario(cumulative_production_target={"pem": 1})]},
    {"scenarios": [_scenario(lifetime_override={"SOEC ": 1})]},
])
def test_config_unknown_technology_is_named(tmp_path, config):
    prefix = "s: " if "scenarios" in config else ""
    assert _config_error(tmp_path, config).startswith(
        f"{prefix}unknown technology ")


def test_load_config_calls_no_enum_class(tmp_path, monkeypatch):
    calls = []
    real = enum.EnumType.__call__
    monkeypatch.setattr(enum.EnumType, "__call__",
                        lambda cls, *a, **k: calls.append(cls) or real(cls, *a, **k))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "technologies": {"PEM": {"efficiency": 50}, "SOEC": {}},
        "scenarios": [_scenario(learning_case="NZE",
                                lifetime_override={"SOEC": 50},
                                unit_om_cost_override={"Alkaline": 0})]}))
    (sc,) = load_config(path)[2]
    assert sc.learning_case is LearningCase.NZE
    assert list(sc.cumulative_production_target) == list(Technology)
    assert calls == []


@pytest.mark.parametrize("name", ["", None, 7, ["a"], {}])
def test_config_scenario_name_must_be_a_string(tmp_path, name):
    assert _config_error(tmp_path, {"scenarios": [_scenario(name=name)]}).startswith(
        "scenarios[0].name must be a non-empty string")


@pytest.mark.parametrize("config, key", [
    ({"technologies": {"PEM": []}}, "technologies.PEM"),
    ({"smr": [1]}, "smr"),
    ({"scenarios": [7]}, "scenarios[0]"),
    ({"scenarios": [_scenario(electricity_price_rule="fixed")]},
     "scenarios[0].electricity_price_rule"),
    ({"scenarios": [_scenario(grid_trajectory=None)]},
     "scenarios[0].grid_trajectory"),
    ({"scenarios": [_scenario(cumulative_production_target=[])]},
     "scenarios[0].cumulative_production_target"),
])
def test_config_sections_must_be_objects(tmp_path, config, key):
    assert _config_error(tmp_path, config).startswith(
        f"{_named(key)} must be a JSON object")


@pytest.mark.parametrize("anchors, key", [
    (5, "smr.emissions_anchors"),
    ([[0.002, 10.0, 2.6], [0.08, 17.9]], "smr.emissions_anchors[1]"),
    ([[0.002, 10.0, 2.6], "row"], "smr.emissions_anchors[1]"),
])
def test_config_anchor_rows_have_three_cells(tmp_path, anchors, key):
    assert _config_error(tmp_path, {"smr": {"emissions_anchors": anchors}}
                         ).startswith(f"{key} must be")


def test_a_csv_error_in_the_row_walk_is_a_schema_error(tmp_path, monkeypatch):
    # The column pass reads every cell; a bad price then sends the parser
    # back over the file, under a field limit the header's names exceed.
    # The error names the walk's line 1, not the column pass's last line.
    path = write_csv(tmp_path, "TX,0.0449,1.88,0.36\nOK,0.0415,2.04,0.32\n"
                     "LA,-1,2.5,0.4\n")
    walk = ingest._row_walk

    def narrow_walk(reader, *args):
        limit = csv.field_size_limit(4)
        try:
            return walk(reader, *args)
        finally:
            csv.field_size_limit(limit)

    monkeypatch.setattr(ingest, "_row_walk", narrow_walk)
    with pytest.raises(SchemaError) as info:
        load_state_profiles(path)
    assert str(info.value) == f"{path}: line 1: field larger than field limit (4)"
