"""The per-row and per-call types: plain classes with __slots__.

Each takes the same positional and keyword arguments and raises the same
messages as the frozen dataclass it replaced.
"""

import math

import pytest

from h2cost.analysis import StateResult
from h2cost.electrolysis import EmissionsResult
from h2cost.errors import DomainError, ValidationError
from h2cost.finance import AnnuityFactor
from h2cost.ingest import Dataset
from h2cost.model import BASE_YEAR, LcohBreakdown, StateEnergyProfile

PROFILE_ARGS = ("OK", 0.0415, 2.04, 0.32)
PROFILE_KWARGS = dict(state="OK", electricity_price=0.0415, gas_price=2.04,
                      grid_carbon_intensity=0.32)
LCOH_FIELDS = ("capital_cost", "om_cost", "electricity_cost",
               "hydrogen_production", "lcoh")


def fields_of(obj):
    return {name: getattr(obj, name) for name in type(obj).__slots__}


@pytest.mark.parametrize("cls, args, kwargs", [
    (StateEnergyProfile, PROFILE_ARGS, PROFILE_KWARGS),
    (LcohBreakdown, (1.0, 2.0, 3.0, 4.0, 1.5),
     dict(zip(LCOH_FIELDS, (1.0, 2.0, 3.0, 4.0, 1.5)))),
    (AnnuityFactor, (9.5,), dict(value=9.5)),
    (EmissionsResult, (12.9,), dict(carbon_intensity=12.9)),
    (StateResult, ("TX", "PEM", 4.5, 20.1),
     dict(state="TX", pathway="PEM", lcoh=4.5, carbon_intensity=20.1)),
])
def test_positional_and_keyword_construction_agree(cls, args, kwargs):
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert fields_of(by_position) == fields_of(by_keyword) == kwargs
    assert not hasattr(by_position, "__dict__")


COLUMNS = (["TX", "OK"], [0.0449, 0.0415], [1.88, 2.04], [0.36, 0.32])


def test_dataset_construction_and_states():
    by_position = Dataset(*COLUMNS)
    by_keyword = Dataset(states=COLUMNS[0], electricity_prices=COLUMNS[1],
                         gas_prices=COLUMNS[2], grid_cis=COLUMNS[3])
    for ds in (by_position, by_keyword):
        assert (ds.states, ds.electricity_prices, ds.gas_prices,
                ds.grid_cis) == tuple(map(tuple, COLUMNS))
        assert BASE_YEAR == 2020
        assert not hasattr(ds, "__dict__")


def test_dataset_profiles_round_trip_the_columns():
    ds = Dataset(*COLUMNS)
    assert ds.profiles == (StateEnergyProfile("TX", 0.0449, 1.88, 0.36),
                           StateEnergyProfile("OK", 0.0415, 2.04, 0.32))
    assert type(ds.profiles) is tuple
    again = Dataset(*zip(*((p.state, p.electricity_price, p.gas_price,
                            p.grid_carbon_intensity) for p in ds.profiles)))
    assert again.profiles == ds.profiles
    assert again.grid_cis == ds.grid_cis == (0.36, 0.32)


def test_state_profile_value_equality_and_hash():
    a, b = StateEnergyProfile(*PROFILE_ARGS), StateEnergyProfile(**PROFILE_KWARGS)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    for i in range(len(PROFILE_ARGS)):
        args = list(PROFILE_ARGS)
        args[i] = "TX" if i == 0 else args[i] * 2
        other = StateEnergyProfile(*args)
        assert a != other and not a == other
    assert a != PROFILE_ARGS
    assert a.__eq__(PROFILE_ARGS) is NotImplemented


# --- every message is the one the frozen dataclasses raised --------------

@pytest.mark.parametrize("args, message", [
    (("Oklahoma", 0.0415, 2.04, 0.32),
     "state code must be a two-letter postal code, got 'Oklahoma'"),
    (("ok", 0.0415, 2.04, 0.32),
     "state code must be a two-letter postal code, got 'ok'"),
    (("OK", math.inf, 2.04, 0.32), "state OK: electricity_price must be finite, got inf"),
    (("OK", 0.0415, math.nan, 0.32), "state OK: gas_price must be finite, got nan"),
    (("OK", 0.0415, 2.04, -math.inf),
     "state OK: grid_carbon_intensity must be finite, got -inf"),
    (("OK", -0.01, 2.04, 0.32), "OK: electricity_price must be > 0"),
    (("OK", 0.0415, 0.0, 0.32), "OK: gas_price must be > 0"),
    (("OK", 0.0415, 2.04, -0.1), "OK: grid_carbon_intensity must be >= 0"),
    # A Greek capital alpha: it prints as "AK" but is no postal code.
    (("\u0391K", 0.0415, 2.04, 0.32),
     "state code must be a two-letter postal code, got '\u0391K'"),
])
def test_state_profile_messages(args, message):
    with pytest.raises(ValidationError) as info:
        StateEnergyProfile(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("field", LCOH_FIELDS)
@pytest.mark.parametrize("bad", [-1.0, math.nan])
def test_lcoh_breakdown_messages(field, bad):
    values = dict.fromkeys(LCOH_FIELDS, 1.0)
    values[field] = bad
    with pytest.raises(ValidationError) as info:
        LcohBreakdown(**values)
    assert str(info.value) == f"{field} must be >= 0"


@pytest.mark.parametrize("args, message", [
    (("Oklahoma", 0.0415, 2.04, 0.32),
     "state code must be a two-letter postal code, got 'Oklahoma'"),
    (("OK", math.inf, 2.04, 0.32), "state OK: electricity_price must be finite, got inf"),
    (("OK", 0.0415, math.nan, 0.32), "state OK: gas_price must be finite, got nan"),
    (("OK", 0.0415, 2.04, -math.inf),
     "state OK: grid_carbon_intensity must be finite, got -inf"),
    (("OK", -0.01, 2.04, 0.32), "OK: electricity_price must be > 0"),
    (("OK", 0.0415, 0.0, 0.32), "OK: gas_price must be > 0"),
    (("OK", 0.0415, 2.04, -0.1), "OK: grid_carbon_intensity must be >= 0"),
    # A Greek capital alpha: it prints as "AK" but is no postal code.
    (("\u0391K", 0.0415, 2.04, 0.32),
     "state code must be a two-letter postal code, got '\u0391K'"),
])
def test_dataset_names_the_first_bad_row_as_state_profile_does(args, message):
    # The bad row between two good ones, and a later bad row that must not
    # be the one named.
    rows = [("TX", 0.0449, 1.88, 0.36), args, ("WA", 0.05, 3.1, 0.09),
            ("AK", -1.0, 3.35, 0.41)]
    with pytest.raises(ValidationError) as info:
        Dataset(*zip(*rows))
    assert str(info.value) == message


@pytest.mark.parametrize("columns", [
    ([], [], [], []),
    (["TX", "OK"], [0.0449], [1.88, 2.04], [0.36, 0.32]),
    (["TX"], [0.0449], [1.88], [0.36, 0.32]),
])
def test_dataset_rejects_no_states_and_ragged_columns(columns):
    with pytest.raises(ValidationError) as info:
        Dataset(*columns)
    assert str(info.value) == ("dataset needs one or more states and one "
                               "value per state in each column")


def test_dataset_rejects_a_repeated_state():
    with pytest.raises(ValidationError) as info:
        Dataset(["TX", "OK", "TX"], [0.0449, 0.0415, 0.05], [1.88, 2.04, 2.0],
                [0.36, 0.32, 0.4])
    assert str(info.value) == "duplicate state code TX"


def test_dataset_stores_a_negative_zero_grid_ci_as_zero():
    ds = Dataset(["TX", "OK"], [0.0449, 0.0415], [1.88, 2.04], [-0.0, 0.32])
    assert list(map(repr, ds.grid_cis)) == ["0.0", "0.32"]


def test_emissions_result_message():
    with pytest.raises(DomainError) as info:
        EmissionsResult(-0.1)
    assert str(info.value) == "carbon intensity must be >= 0"


@pytest.mark.parametrize("lcoh, ci", [(-1.0, 1.0), (1.0, -1.0), (math.inf, 1.0),
                                      (1.0, math.nan)])
def test_state_result_message(lcoh, ci):
    with pytest.raises(ValidationError) as info:
        StateResult("TX", "PEM", lcoh, ci)
    assert str(info.value) == "TX/PEM: metrics must be finite and >= 0"
