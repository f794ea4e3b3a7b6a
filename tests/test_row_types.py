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
from h2cost.model import LcohBreakdown, StateEnergyProfile

PROFILE_ARGS = ("OK", 0.0415, 2.04, 0.32, 2019)
PROFILE_KWARGS = dict(state="OK", electricity_price=0.0415, gas_price=2.04,
                      grid_carbon_intensity=0.32, vintage_year=2019)
LCOH_FIELDS = ("capital_cost", "om_cost", "electricity_cost",
               "hydrogen_production", "lcoh")


def fields_of(obj):
    return {name: getattr(obj, name) for name in type(obj).__slots__}


@pytest.mark.parametrize("cls, args, kwargs", [
    (StateEnergyProfile, PROFILE_ARGS, PROFILE_KWARGS),
    (LcohBreakdown, (1.0, 2.0, 3.0, 4.0, 1.5),
     dict(zip(LCOH_FIELDS, (1.0, 2.0, 3.0, 4.0, 1.5)))),
    (AnnuityFactor, (9.5, 0.07, 20.0), dict(value=9.5, rate=0.07, years=20.0)),
    (EmissionsResult, (12.9, "SMR", "TX"),
     dict(carbon_intensity=12.9, pathway="SMR", state="TX")),
    (StateResult, ("TX", "PEM", 4.5, 20.1),
     dict(state="TX", pathway="PEM", lcoh=4.5, carbon_intensity=20.1)),
])
def test_positional_and_keyword_construction_agree(cls, args, kwargs):
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert fields_of(by_position) == fields_of(by_keyword) == kwargs
    assert not hasattr(by_position, "__dict__")


def test_emissions_result_state_defaults_to_none():
    assert EmissionsResult(12.9, "SMR").state is None


def test_dataset_construction_and_states():
    a = StateEnergyProfile("TX", 0.0449, 1.88, 0.36)
    b = StateEnergyProfile("OK", 0.0415, 2.04, 0.32)
    by_position = Dataset([a, b], 2020)
    by_keyword = Dataset(profiles=[a, b], vintage_year=2020)
    for ds in (by_position, by_keyword):
        assert ds.profiles == (a, b)
        assert type(ds.profiles) is tuple
        assert ds.vintage_year == 2020
        assert ds.states == ("TX", "OK")


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


def test_dataset_messages():
    tx = StateEnergyProfile("TX", 0.0449, 1.88, 0.36)
    with pytest.raises(ValidationError) as info:
        Dataset(profiles=(), vintage_year=2020)
    assert str(info.value) == "dataset must contain at least one profile"
    with pytest.raises(ValidationError) as info:
        Dataset((tx, StateEnergyProfile("OK", 0.0415, 2.04, 0.32), tx), 2020)
    assert str(info.value) == "duplicate state code TX"


def test_emissions_result_message():
    with pytest.raises(DomainError) as info:
        EmissionsResult(-0.1, "PEM")
    assert str(info.value) == "carbon intensity must be >= 0"


@pytest.mark.parametrize("lcoh, ci", [(-1.0, 1.0), (1.0, -1.0), (math.inf, 1.0),
                                      (1.0, math.nan)])
def test_state_result_message(lcoh, ci):
    with pytest.raises(ValidationError) as info:
        StateResult("TX", "PEM", lcoh, ci)
    assert str(info.value) == "TX/PEM: metrics must be finite and >= 0"
