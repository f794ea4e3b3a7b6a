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
    default_smr_params,
)


def test_default_registry_matches_parameter_table():
    reg = {p.name: p for p in default_registry()}
    alk = reg[Technology.ALKALINE]
    assert (alk.learning_rate_aps, alk.learning_rate_nze) == (0.145, 0.140)
    assert alk.cumulative_production_base == 20_000
    assert alk.capacity == 10_000
    assert alk.lifetime == 60
    assert alk.efficiency == 56
    assert alk.unit_system_cost == 750
    assert alk.unit_om_cost == 1_800
    assert alk.discount_rate == 0.07

    pem = reg[Technology.PEM]
    assert (pem.learning_rate_aps, pem.learning_rate_nze) == (0.140, 0.135)
    assert (pem.cumulative_production_base, pem.capacity) == (90, 10_000)
    assert (pem.lifetime, pem.efficiency) == (75, 51)
    assert (pem.unit_system_cost, pem.unit_om_cost) == (1_200, 1_500)

    soec = reg[Technology.SOEC]
    assert (soec.learning_rate_aps, soec.learning_rate_nze) == (0.105, 0.100)
    assert (soec.cumulative_production_base, soec.capacity) == (2, 1_000)
    assert (soec.lifetime, soec.efficiency) == (40, 44)
    assert (soec.unit_system_cost, soec.unit_om_cost) == (2_500, 20_000)
    assert soec.unit_om_cost == 20_000


def test_registry_has_three_distinct_names():
    names = [p.name for p in default_registry()]
    assert len(names) == len(set(names)) == 3


def test_technology_params_rejects_bad_values():
    base = default_registry()[0]
    with pytest.raises(ValidationError):
        TechnologyParams(**{**base.__dict__, "learning_rate_aps": 1.5})
    with pytest.raises(ValidationError):
        TechnologyParams(**{**base.__dict__, "efficiency": 0.0})
    with pytest.raises(ValidationError):
        TechnologyParams(**{**base.__dict__, "unit_system_cost": -1.0})


def test_state_profile_invariants():
    ok = StateEnergyProfile("OK", 0.0415, 2.04, 0.32)
    assert ok.vintage_year == 2020
    with pytest.raises(ValidationError):
        StateEnergyProfile("OK", -0.01, 2.04, 0.32)
    with pytest.raises(ValidationError):
        StateEnergyProfile("OK", 0.0415, 0.0, 0.32)
    with pytest.raises(ValidationError):
        StateEnergyProfile("Oklahoma", 0.0415, 2.04, 0.32)


def test_smr_params_invariants():
    with pytest.raises(ValidationError):
        SmrParams(base_cost=0.3, gas_sensitivity=0.16, electricity_sensitivity=0.03,
                  ccs_adder=-0.1, emissions_anchors=((0.0, 10, 3), (0.08, 18, 10)),
                  leakage_rate=0.03)
    with pytest.raises(ValidationError):
        SmrParams(base_cost=0.3, gas_sensitivity=0.16, electricity_sensitivity=0.03,
                  ccs_adder=0.4, emissions_anchors=((0.08, 18, 10), (0.0, 10, 3)),
                  leakage_rate=0.03)
    with pytest.raises(ValidationError):
        SmrParams(base_cost=0.3, gas_sensitivity=0.16, electricity_sensitivity=0.03,
                  ccs_adder=0.4, emissions_anchors=((0.03, 12.9, 5.3),),
                  leakage_rate=0.03)
    defaults = default_smr_params()
    assert defaults.ccs_adder == 0.4
    assert defaults.leakage_rate == 0.030


def test_scenario_invariants():
    targets = {Technology.PEM: 1000.0}
    with pytest.raises(ValidationError):
        Scenario(name="bad", target_year=2050, learning_case=LearningCase.APS,
                 cumulative_production_target=targets, capacity_factor=0.0)
    with pytest.raises(ValidationError):
        Scenario(name="bad", target_year=2050, learning_case=LearningCase.APS,
                 cumulative_production_target=targets, capacity_factor=1.5)
    sc = Scenario(name="ok", target_year=2050, learning_case=LearningCase.APS,
                  cumulative_production_target=targets, capacity_factor=0.5)
    assert sc.capacity_factor == 0.5

    # cross-checks against the registry and dataset vintage
    with pytest.raises(ValidationError):
        Scenario(name="low", target_year=2050, learning_case=LearningCase.APS,
                 cumulative_production_target={Technology.PEM: 10.0},
                 ).validate_against(default_registry(), 2020)
    with pytest.raises(ValidationError):
        Scenario(name="early", target_year=2019, learning_case=LearningCase.APS,
                 cumulative_production_target=targets,
                 ).validate_against(default_registry(), 2020)
    with pytest.raises(ValidationError):
        Scenario(name="zero", target_year=2050, learning_case=LearningCase.APS,
                 cumulative_production_target=targets,
                 grid_trajectory=GridTrajectory.linear_to_zero(2019),
                 ).validate_against(default_registry(), 2020)


def test_price_rule_and_trajectory_validation():
    with pytest.raises(ValidationError):
        PriceRule("fixed")
    with pytest.raises(ValidationError):
        PriceRule("multiplier", -0.5)
    with pytest.raises(ValidationError):
        PriceRule("hourly", 1.0)
    with pytest.raises(ValidationError):
        GridTrajectory("linear_to_zero")
    assert GridTrajectory.linear_to_zero(2035).zero_year == 2035


NON_FINITE = [math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("attr", [
    "learning_rate_aps", "learning_rate_nze", "cumulative_production_base",
    "capacity", "lifetime", "efficiency", "unit_system_cost", "unit_om_cost",
    "discount_rate"])
def test_technology_params_reject_non_finite(attr, value):
    base = default_registry()[1]
    with pytest.raises(ValidationError, match=f"^PEM: {attr} must be "):
        TechnologyParams(**{**base.__dict__, attr: value})


def test_technology_messages_name_technology_by_value():
    base = default_registry()[2]
    with pytest.raises(ValidationError, match="^SOEC: efficiency must be > 0$"):
        TechnologyParams(**{**base.__dict__, "efficiency": 0.0})
    targets = {Technology.PEM: 1000.0, Technology.SOEC: -1.0}
    with pytest.raises(ValidationError, match="^s: cumulative target for SOEC "):
        Scenario(name="s", target_year=2050, learning_case=LearningCase.APS,
                 cumulative_production_target=targets)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("attr", ["electricity_price", "gas_price",
                                  "grid_carbon_intensity"])
def test_state_profile_rejects_non_finite(attr, value):
    values = {"electricity_price": 0.0415, "gas_price": 2.04,
              "grid_carbon_intensity": 0.32, attr: value}
    with pytest.raises(ValidationError, match=f"^state OK: {attr} must be finite"):
        StateEnergyProfile("OK", **values)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("attr", ["base_cost", "gas_sensitivity",
                                  "electricity_sensitivity", "ccs_adder",
                                  "leakage_rate", "emissions_anchors"])
def test_smr_params_reject_non_finite(attr, value):
    fields = dict(default_smr_params().__dict__)
    fields[attr] = (((0.002, 10.0, 2.6), (0.08, value, 10.3))
                    if attr == "emissions_anchors" else value)
    with pytest.raises(ValidationError, match="finite"):
        SmrParams(**fields)


@pytest.mark.parametrize("value", NON_FINITE)
def test_price_rule_and_scenario_reject_non_finite(value):
    with pytest.raises(ValidationError, match="finite"):
        PriceRule("fixed", value)
    with pytest.raises(ValidationError, match="capacity_factor"):
        Scenario(name="s", target_year=2050, learning_case=LearningCase.APS,
                 cumulative_production_target={Technology.PEM: 1000.0},
                 capacity_factor=value)
    for override in ("cumulative_production_target", "lifetime_override",
                     "unit_om_cost_override"):
        kwargs = {"cumulative_production_target": {Technology.PEM: 1000.0},
                  override: {Technology.PEM: value}}
        with pytest.raises(ValidationError, match="PEM must be finite"):
            Scenario(name="s", target_year=2050, learning_case=LearningCase.APS,
                     **kwargs)


@pytest.mark.parametrize("attr, value, message", [
    ("base_cost", -1.0, "base_cost must be >= 0"),
    ("emissions_anchors", ((0.002, -10.0, 2.6), (0.08, 17.9, 10.3)),
     "emissions_anchors carbon intensities must be >= 0"),
    ("emissions_anchors", ((0.002, 10.0, 2.6), (0.08, 17.9, -0.1)),
     "emissions_anchors carbon intensities must be >= 0"),
])
def test_smr_params_reject_negative_cost_and_intensity(attr, value, message):
    fields = {**default_smr_params().__dict__, attr: value}
    with pytest.raises(ValidationError, match=f"^{message}$"):
        SmrParams(**fields)
    zero = {**fields, attr: 0.0 if attr == "base_cost"
            else ((0.002, 0.0, 0.0), (0.08, 17.9, 10.3))}
    assert SmrParams(**zero)
