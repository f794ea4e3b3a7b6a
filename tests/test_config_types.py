"""The configuration types TechnologyParams, SmrParams, PriceRule,
GridTrajectory and Scenario: plain classes that compare and hash by value,
show their fields in repr and raise the same messages as the frozen
dataclasses they replaced. SmrParams also stays read-only and works with
dataclasses.replace, fields, is_dataclass and asdict.
"""

import dataclasses
import math

import pytest

from h2cost.errors import ValidationError
from h2cost.model import (
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

PEM = default_registry()[1]
PEM_FIELDS = dict(name=Technology.PEM, learning_rate_aps=0.14,
                  learning_rate_nze=0.135, cumulative_production_base=90.0,
                  capacity=10_000.0, lifetime=75.0, efficiency=51.0,
                  unit_system_cost=1_200.0, unit_om_cost=1_500.0,
                  discount_rate=0.07)
SCENARIO_ARGS = dict(name="s", target_year=2050,
                     learning_case=LearningCase.APS,
                     cumulative_production_target={Technology.PEM: 1000.0})


def test_fields_are_the_instance_dict():
    assert vars(PEM) == PEM_FIELDS
    assert TechnologyParams(**PEM_FIELDS) == PEM


@pytest.mark.parametrize("a, b, other", [
    (TechnologyParams(**PEM_FIELDS), TechnologyParams(**PEM_FIELDS),
     TechnologyParams(**{**PEM_FIELDS, "efficiency": 52.0})),
    (PriceRule("fixed", 0.02), PriceRule("fixed", 0.02), PriceRule("fixed", 0.03)),
    (PriceRule("dataset"), PriceRule("dataset"), PriceRule("multiplier", 1.0)),
    (GridTrajectory.linear_to_zero(2035), GridTrajectory("linear_to_zero", 2035),
     GridTrajectory.linear_to_zero(2040)),
    (GridTrajectory("constant"), GridTrajectory("constant"),
     GridTrajectory.linear_to_zero(2035)),
])
def test_value_equality_and_hash(a, b, other):
    assert a == b and not a != b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b, other}) == 2
    assert a != other and not a == other
    assert a.__eq__(vars(a)) is NotImplemented


def test_technology_params_differ_in_each_field():
    for name in PEM_FIELDS:
        if name == "name":
            changed = Technology.SOEC
        else:
            changed = PEM_FIELDS[name] / 2
        assert TechnologyParams(**{**PEM_FIELDS, name: changed}) != PEM


def test_scenario_compares_by_value_and_is_unhashable():
    a, b = Scenario(**SCENARIO_ARGS), Scenario(**SCENARIO_ARGS)
    assert a == b
    assert a != Scenario(**{**SCENARIO_ARGS, "capacity_factor": 0.5})
    assert a != Scenario(**{**SCENARIO_ARGS, "cumulative_production_target":
                            {Technology.PEM: 2000.0}})
    with pytest.raises(TypeError):
        hash(a)


def test_scenario_defaults_and_copies():
    targets = {Technology.PEM: 1000.0}
    lifetimes = {Technology.PEM: 100.0}
    sc = Scenario(**{**SCENARIO_ARGS, "cumulative_production_target": targets},
                  lifetime_override=lifetimes)
    assert sc.electricity_price_rule == PriceRule("dataset")
    assert sc.grid_trajectory == GridTrajectory("constant")
    assert sc.capacity_factor == 1.0
    assert sc.unit_om_cost_override is None
    targets[Technology.PEM] = -1.0
    lifetimes[Technology.PEM] = -1.0
    assert sc.cumulative_production_target == {Technology.PEM: 1000.0}
    assert sc.lifetime_override == {Technology.PEM: 100.0}
    other = Scenario(**SCENARIO_ARGS)
    assert other.electricity_price_rule is not sc.electricity_price_rule


def test_scenario_built_from_another_ones_fields():
    base = default_scenarios()[0]
    cf04 = Scenario(**{**vars(base), "name": "cf04", "capacity_factor": 0.4})
    assert (cf04.name, cf04.capacity_factor) == ("cf04", 0.4)
    assert cf04.cumulative_production_target == base.cumulative_production_target


def test_repr_shows_every_field():
    assert repr(PEM) == (
        "TechnologyParams(name=<Technology.PEM: 'PEM'>, learning_rate_aps=0.14, "
        "learning_rate_nze=0.135, cumulative_production_base=90.0, "
        "capacity=10000.0, lifetime=75.0, efficiency=51.0, "
        "unit_system_cost=1200.0, unit_om_cost=1500.0, discount_rate=0.07)")
    assert repr(PriceRule("fixed", 0.02)) == "PriceRule(kind='fixed', value=0.02)"
    assert (repr(GridTrajectory("constant"))
            == "GridTrajectory(kind='constant', zero_year=None)")
    assert repr(Scenario(**SCENARIO_ARGS)) == (
        "Scenario(name='s', target_year=2050, "
        "learning_case=<LearningCase.APS: 'APS'>, "
        "cumulative_production_target={<Technology.PEM: 'PEM'>: 1000.0}, "
        "electricity_price_rule=PriceRule(kind='dataset', value=None), "
        "capacity_factor=1.0, "
        "grid_trajectory=GridTrajectory(kind='constant', zero_year=None), "
        "lifetime_override=None, unit_om_cost_override=None)")
    assert repr(StateEnergyProfile("OK", 0.0415, 2.04, 0.32)) == (
        "StateEnergyProfile(state='OK', electricity_price=0.0415, "
        "gas_price=2.04, grid_carbon_intensity=0.32)")


def test_with_overrides_copies_and_revalidates():
    cheaper = with_overrides(PEM, unit_system_cost=600.0, lifetime=150.0)
    assert vars(cheaper) == {**PEM_FIELDS, "unit_system_cost": 600.0,
                             "lifetime": 150.0}
    assert vars(PEM) == PEM_FIELDS
    assert with_overrides(PEM) == PEM and with_overrides(PEM) is not PEM
    with pytest.raises(TypeError, match="efficency"):
        with_overrides(PEM, efficency=40.0)
    with pytest.raises(ValidationError) as info:
        with_overrides(PEM, efficiency=-1.0)
    assert str(info.value) == "PEM: efficiency must be > 0"


@pytest.mark.parametrize("value, changes", [
    (default_smr_params(), dict(leakage_rate=0.015)),
    (PriceRule("fixed", 0.02), dict(value=0.05)),
    (GridTrajectory.linear_to_zero(2040), dict(zero_year=2050)),
    (default_scenarios()[1], dict(name="t", capacity_factor=0.5)),
], ids=["SmrParams", "PriceRule", "GridTrajectory", "Scenario"])
def test_with_overrides_copies_every_config_type(value, changes):
    copy = with_overrides(value, **changes)
    assert type(copy) is type(value)
    assert vars(copy) == {**vars(value), **changes}
    assert with_overrides(value) == value and with_overrides(value) is not value
    with pytest.raises(TypeError, match="bogus"):
        with_overrides(value, bogus=1)


def test_with_overrides_rechecks_smr_params():
    with pytest.raises(ValidationError, match="^ccs_adder must be >= 0$"):
        with_overrides(default_smr_params(), ccs_adder=-0.1)


# --- every message is the one the frozen dataclasses raised --------------

@pytest.mark.parametrize("changes, message", [
    ({"capacity": math.inf}, "PEM: capacity must be finite, got inf"),
    ({"lifetime": math.nan, "learning_rate_aps": 2.0},
     "PEM: lifetime must be finite, got nan"),
    ({"unit_om_cost": -math.inf}, "PEM: unit_om_cost must be finite, got -inf"),
    ({"learning_rate_aps": 1.0}, "PEM: learning_rate_aps must be in (0, 1), got 1.0"),
    ({"learning_rate_nze": math.nan},
     "PEM: learning_rate_nze must be in (0, 1), got nan"),
    ({"discount_rate": 1.0, "unit_system_cost": -1.0},
     "PEM: discount_rate must be in [0, 1), got 1.0"),
    ({"unit_system_cost": -1.0, "unit_om_cost": -1.0},
     "PEM: unit_system_cost must be >= 0"),
    ({"unit_om_cost": -1.0, "capacity": 0.0}, "PEM: unit_om_cost must be >= 0"),
    ({"cumulative_production_base": 0.0, "efficiency": 0.0},
     "PEM: cumulative_production_base must be > 0"),
    ({"capacity": -5.0}, "PEM: capacity must be > 0"),
    ({"lifetime": 0.0}, "PEM: lifetime must be > 0"),
    ({"efficiency": 0.0}, "PEM: efficiency must be > 0"),
])
def test_technology_params_messages(changes, message):
    with pytest.raises(ValidationError) as info:
        TechnologyParams(**{**PEM_FIELDS, **changes})
    assert str(info.value) == message


@pytest.mark.parametrize("args, message", [
    (("spot",), "unknown price rule kind 'spot'"),
    (("dataset", 0.02), "dataset price rule takes no value"),
    (("fixed",), "fixed price rule needs a finite value >= 0"),
    (("fixed", -0.01), "fixed price rule needs a finite value >= 0"),
    (("multiplier", math.inf), "multiplier price rule needs a finite value >= 0"),
])
def test_price_rule_messages(args, message):
    with pytest.raises(ValidationError) as info:
        PriceRule(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("args, message", [
    (("linear",), "unknown trajectory kind 'linear'"),
    (("linear_to_zero",), "linear_to_zero needs zero_year"),
    (("linear_to_zero", 2020), "zero_year must be after base year 2020"),
    (("constant", 2035), "constant trajectory takes no zero_year"),
])
def test_grid_trajectory_messages(args, message):
    with pytest.raises(ValidationError) as info:
        GridTrajectory(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("changes, message", [
    ({"name": "", "capacity_factor": 0.0}, "scenario needs a name"),
    ({"capacity_factor": 0.0}, "s: capacity_factor must be in (0, 1], got 0.0"),
    ({"capacity_factor": 1.5, "cumulative_production_target":
      {Technology.PEM: -1.0}}, "s: capacity_factor must be in (0, 1], got 1.5"),
    ({"cumulative_production_target": {Technology.PEM: 0.0},
      "lifetime_override": {Technology.PEM: 0.0}},
     "s: cumulative target for PEM must be finite and > 0"),
    ({"lifetime_override": {Technology.SOEC: math.inf},
      "unit_om_cost_override": {Technology.PEM: -1.0}},
     "s: lifetime override for SOEC must be finite and > 0"),
    ({"unit_om_cost_override": {Technology.ALKALINE: -1.0}},
     "s: O&M override for Alkaline must be finite and >= 0"),
])
def test_scenario_messages(changes, message):
    with pytest.raises(ValidationError) as info:
        Scenario(**{**SCENARIO_ARGS, **changes})
    assert str(info.value) == message


# --- SmrParams: the dataclass functions, read-only fields, old messages ---

SMR = default_smr_params()
SMR_FIELDS = ("base_cost", "gas_sensitivity", "electricity_sensitivity",
              "ccs_adder", "emissions_anchors", "leakage_rate")


def test_smr_params_replace_copies_and_rechecks():
    at = dataclasses.replace(SMR, leakage_rate=0.015)
    assert vars(at) == {**vars(SMR), "leakage_rate": 0.015}
    assert SMR.leakage_rate == 0.03
    assert dataclasses.replace(SMR) == SMR and dataclasses.replace(SMR) is not SMR
    listed = dataclasses.replace(SMR, emissions_anchors=[[0.0, 1.0, 0.5],
                                                         [0.1, 2.0, 1.0]])
    assert listed.emissions_anchors == ((0.0, 1.0, 0.5), (0.1, 2.0, 1.0))
    with pytest.raises(ValidationError, match="^ccs_adder must be >= 0$"):
        dataclasses.replace(SMR, ccs_adder=-0.1)
    with pytest.raises(TypeError, match="bogus"):
        dataclasses.replace(SMR, bogus=1)


def test_smr_params_are_dataclass_fields():
    assert [f.name for f in dataclasses.fields(SmrParams)] == list(SMR_FIELDS)
    assert [f.name for f in dataclasses.fields(SMR)] == list(SMR_FIELDS)
    assert dataclasses.is_dataclass(SmrParams) and dataclasses.is_dataclass(SMR)
    assert dataclasses.asdict(SMR) == vars(SMR)
    assert list(vars(SMR)) == list(SMR_FIELDS)


@pytest.mark.parametrize("name", SMR_FIELDS + ("other",))
def test_smr_params_are_read_only(name):
    params = default_smr_params()
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(params, name, 1.0)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(params, name)
    assert params == SMR


def test_smr_params_equality_hash_and_repr():
    same = SmrParams(**vars(SMR))
    assert same == SMR and same is not SMR and hash(same) == hash(SMR)
    # A frozen dataclass hashes the tuple of its fields.
    assert hash(SMR) == hash(tuple(getattr(SMR, f) for f in SMR_FIELDS))
    for name in SMR_FIELDS:
        changed = (((0.0, 1.0, 0.5), (0.1, 2.0, 1.0))
                   if name == "emissions_anchors" else getattr(SMR, name) / 2)
        assert SmrParams(**{**vars(SMR), name: changed}) != SMR, name
    assert SMR.__eq__(vars(SMR)) is NotImplemented
    assert repr(SMR) == (
        "SmrParams(base_cost=0.32, gas_sensitivity=0.16, "
        "electricity_sensitivity=0.03, ccs_adder=0.4, "
        "emissions_anchors=((0.002, 10.0, 2.6), (0.015, 11.4, 3.8), "
        "(0.08, 17.9, 10.3)), leakage_rate=0.03)")


@pytest.mark.parametrize("changes, message", [
    ({"base_cost": math.inf}, "base_cost must be finite, got inf"),
    ({"gas_sensitivity": math.nan, "base_cost": -1.0},
     "gas_sensitivity must be finite, got nan"),
    ({"electricity_sensitivity": -math.inf},
     "electricity_sensitivity must be finite, got -inf"),
    ({"ccs_adder": math.nan}, "ccs_adder must be finite, got nan"),
    ({"leakage_rate": math.inf, "base_cost": -1.0},
     "leakage_rate must be finite, got inf"),
    ({"base_cost": -1.0, "ccs_adder": -1.0}, "base_cost must be >= 0"),
    ({"ccs_adder": -1.0, "gas_sensitivity": -1.0}, "ccs_adder must be >= 0"),
    ({"gas_sensitivity": -1.0, "electricity_sensitivity": -1.0},
     "gas_sensitivity must be >= 0"),
    ({"electricity_sensitivity": -1.0, "emissions_anchors": ()},
     "electricity_sensitivity must be >= 0"),
    ({"emissions_anchors": ((0.0, 1.0, 0.5),), "leakage_rate": -1.0},
     "need at least 2 emissions anchors"),
    ({"emissions_anchors": ((0.0, 1.0), (0.1, 2.0, math.nan))},
     "each anchor must be (leakage, ci_no_ccs, ci_ccs)"),
    ({"emissions_anchors": ((0.1, 1.0, 0.5), (0.0, 2.0, math.nan))},
     "emissions anchors must be finite"),
    ({"emissions_anchors": ((0.1, -1.0, 0.5), (0.0, 2.0, 1.0))},
     "emissions_anchors carbon intensities must be >= 0"),
    ({"emissions_anchors": ((0.1, 1.0, 0.5), (0.1, 2.0, 1.0)),
      "leakage_rate": -1.0},
     "anchor leakage values must be strictly increasing"),
    ({"leakage_rate": -0.01}, "leakage_rate must be >= 0"),
])
def test_smr_params_messages(changes, message):
    with pytest.raises(ValidationError) as info:
        SmrParams(**{**vars(SMR), **changes})
    assert str(info.value) == message

