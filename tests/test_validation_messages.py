"""One failing input per check in model.py, with the exact message.

Each constructor checks its arguments in a fixed order and raises
ValidationError with the first failing check's message; an input that
fails two checks pins which one comes first.
"""

import math

import pytest

from h2cost.errors import ValidationError
from h2cost.model import (
    GridTrajectory,
    LcohBreakdown,
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

PEM = Technology.PEM


def tech(**changes):
    return TechnologyParams(**{**vars(default_registry()[1]), **changes})


def smr(**changes):
    return SmrParams(**{**vars(default_smr_params()), **changes})


def scenario(**changes):
    fields = dict(name="s", target_year=2030, learning_case=LearningCase.APS,
                  cumulative_production_target={PEM: 100.0})
    return Scenario(**{**fields, **changes})


def validated(**changes):
    scenario(**changes).validate_against(default_registry())


CASES = [
    # TechnologyParams, in check order
    ("tech-finite", lambda: tech(capacity=math.inf),
     "PEM: capacity must be finite, got inf"),
    ("tech-finite-nan", lambda: tech(unit_om_cost=math.nan),
     "PEM: unit_om_cost must be finite, got nan"),
    ("tech-learning-rate", lambda: tech(learning_rate_nze=1.0),
     "PEM: learning_rate_nze must be in (0, 1), got 1.0"),
    ("tech-discount-rate", lambda: tech(discount_rate=-0.5),
     "PEM: discount_rate must be in [0, 1), got -0.5"),
    ("tech-system-cost", lambda: tech(unit_system_cost=-1.0),
     "PEM: unit_system_cost must be >= 0"),
    ("tech-om-cost", lambda: tech(unit_om_cost=-1.0),
     "PEM: unit_om_cost must be >= 0"),
    ("tech-positive", lambda: tech(lifetime=0.0), "PEM: lifetime must be > 0"),
    ("tech-order", lambda: tech(efficiency=0.0, learning_rate_aps=0.0,
                                capacity=math.inf),
     "PEM: capacity must be finite, got inf"),
    ("tech-order-2", lambda: tech(efficiency=0.0, unit_om_cost=-1.0),
     "PEM: unit_om_cost must be >= 0"),
    # check_profile, through StateEnergyProfile
    ("profile-state", lambda: StateEnergyProfile("tx", 0.05, 2.0, 0.4),
     "state code must be a two-letter postal code, got 'tx'"),
    ("profile-finite", lambda: StateEnergyProfile("TX", 0.05, math.inf, -1.0),
     "state TX: gas_price must be finite, got inf"),
    ("profile-electricity", lambda: StateEnergyProfile("TX", 0.0, 2.0, 0.4),
     "TX: electricity_price must be > 0"),
    ("profile-gas", lambda: StateEnergyProfile("TX", 0.05, -2.0, 0.4),
     "TX: gas_price must be > 0"),
    ("profile-grid", lambda: StateEnergyProfile("TX", 0.05, 2.0, -0.4),
     "TX: grid_carbon_intensity must be >= 0"),
    # LcohBreakdown
    ("breakdown", lambda: LcohBreakdown(1.0, 1.0, -1.0, 1.0, -1.0),
     "electricity_cost must be >= 0"),
    # SmrParams, in check order
    ("smr-finite", lambda: smr(leakage_rate=math.nan),
     "leakage_rate must be finite, got nan"),
    ("smr-base-cost", lambda: smr(base_cost=-1.0, ccs_adder=-1.0),
     "base_cost must be >= 0"),
    ("smr-ccs-adder", lambda: smr(ccs_adder=-1.0, gas_sensitivity=-1.0),
     "ccs_adder must be >= 0"),
    ("smr-gas", lambda: smr(gas_sensitivity=-1.0),
     "gas_sensitivity must be >= 0"),
    ("smr-electricity", lambda: smr(electricity_sensitivity=-1.0),
     "electricity_sensitivity must be >= 0"),
    ("smr-anchor-count", lambda: smr(emissions_anchors=[(0.01, 1.0, 1.0)]),
     "need at least 2 emissions anchors"),
    ("smr-anchor-shape", lambda: smr(emissions_anchors=[(0.01, 1.0), (0.02,)]),
     "each anchor must be (leakage, ci_no_ccs, ci_ccs)"),
    ("smr-anchor-finite",
     lambda: smr(emissions_anchors=[(0.01, 1.0, 1.0), (0.02, math.inf, 1.0)]),
     "emissions anchors must be finite"),
    ("smr-anchor-ci",
     lambda: smr(emissions_anchors=[(0.02, 1.0, 1.0), (0.01, 1.0, -1.0)]),
     "emissions_anchors carbon intensities must be >= 0"),
    ("smr-anchor-order",
     lambda: smr(emissions_anchors=[(0.02, 1.0, 1.0), (0.02, 2.0, 1.0)]),
     "anchor leakage values must be strictly increasing"),
    ("smr-leakage", lambda: smr(leakage_rate=-0.01),
     "leakage_rate must be >= 0"),
    # PriceRule
    ("price-kind", lambda: PriceRule("bogus", -1.0),
     "unknown price rule kind 'bogus'"),
    ("price-dataset-value", lambda: PriceRule("dataset", 1.0),
     "dataset price rule takes no value"),
    ("price-fixed-value", lambda: PriceRule("fixed"),
     "fixed price rule needs a finite value >= 0"),
    ("price-multiplier-value", lambda: PriceRule("multiplier", math.inf),
     "multiplier price rule needs a finite value >= 0"),
    # GridTrajectory
    ("grid-kind", lambda: GridTrajectory("bogus", 2040),
     "unknown trajectory kind 'bogus'"),
    ("grid-zero-year", lambda: GridTrajectory("linear_to_zero"),
     "linear_to_zero needs zero_year"),
    ("grid-constant-year", lambda: GridTrajectory("constant", 2040),
     "constant trajectory takes no zero_year"),
    # Scenario
    ("scenario-name", lambda: scenario(name="", capacity_factor=0.0),
     "scenario needs a name"),
    ("scenario-capacity-factor", lambda: scenario(capacity_factor=1.5),
     "s: capacity_factor must be in (0, 1], got 1.5"),
    ("scenario-target",
     lambda: scenario(cumulative_production_target={PEM: math.inf},
                      lifetime_override={PEM: 0.0}),
     "s: cumulative target for PEM must be finite and > 0"),
    ("scenario-lifetime",
     lambda: scenario(lifetime_override={Technology.SOEC: 0.0},
                      unit_om_cost_override={PEM: -1.0}),
     "s: lifetime override for SOEC must be finite and > 0"),
    ("scenario-om",
     lambda: scenario(unit_om_cost_override={Technology.ALKALINE: -1.0}),
     "s: O&M override for Alkaline must be finite and >= 0"),
    # Scenario: target year when built, then validate_against; the zero
    # year when its GridTrajectory is built
    ("against-target-year",
     lambda: validated(target_year=2019,
                       cumulative_production_target={PEM: 10.0}),
     "s: target_year 2019 before base year 2020"),
    ("against-base", lambda: validated(cumulative_production_target={PEM: 10.0}),
     "s: cumulative target 10.0 MW for PEM below 2020 base 90.0 MW"),
    ("against-zero-year",
     lambda: validated(grid_trajectory=GridTrajectory("linear_to_zero", 2020)),
     "zero_year must be after base year 2020"),
]


@pytest.mark.parametrize("make, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_each_check_raises_its_message(make, message):
    with pytest.raises(ValidationError) as info:
        make()
    assert str(info.value) == message
