"""Projection through time and breakeven/crossover solvers.

project_params rides the learning curve down to a scenario's cumulative
production target; grid_ci_at evaluates the grid decarbonization
trajectory; breakeven exploits the exact affinity of LCOH in electricity
price; crossover finds the first year dataset-average electrolysis
emissions drop below an SMR benchmark.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from . import electrolysis
from .errors import DomainError, ValidationError
from .finance import wright_capital_cost
from .ingest import Dataset
from .model import (
    GridTrajectory,
    PriceRule,
    Scenario,
    TechnologyParams,
    with_overrides,
)


def project_params(params: TechnologyParams, scenario: Scenario) -> TechnologyParams:
    """Technology parameters at the scenario's target year.

    Unit system cost follows Wright's law down to the scenario's cumulative
    production target; lifetime and O&M are replaced only if the scenario
    overrides them.
    """
    target = scenario.cumulative_production_target.get(
        params.name, params.cumulative_production_base)
    changes = {
        "unit_system_cost": wright_capital_cost(
            params.unit_system_cost,
            params.learning_rate(scenario.learning_case),
            params.cumulative_production_base,
            target,
        )
    }
    if scenario.lifetime_override and params.name in scenario.lifetime_override:
        changes["lifetime"] = scenario.lifetime_override[params.name]
    if (scenario.unit_om_cost_override
            and params.name in scenario.unit_om_cost_override):
        changes["unit_om_cost"] = scenario.unit_om_cost_override[params.name]
    return with_overrides(params, **changes)


def effective_electricity_price(prices: Sequence[float],
                                rule: PriceRule) -> list[float]:
    """The price paid under a scenario's rule for each dataset price."""
    if rule.kind == "dataset":
        return list(prices)
    if rule.kind == "fixed":
        return [rule.value] * len(prices)
    return [rule.value * price for price in prices]


def grid_ci_at(base_ci: float, trajectory: GridTrajectory, base_year: int,
               query_year: int) -> float:
    """Grid carbon intensity in query_year under a trajectory."""
    if query_year < base_year:
        raise DomainError(f"query year {query_year} before base year {base_year}")
    if trajectory.kind == "constant":
        return base_ci
    zero = trajectory.zero_year
    if zero <= base_year:
        raise DomainError(f"zero year {zero} must be after base year {base_year}")
    return base_ci * max(0.0, (zero - query_year) / (zero - base_year))


def breakeven_electricity_price(params: TechnologyParams, capacity_factor: float,
                                target_lcoh: float) -> Optional[float]:
    """Electricity price at which LCOH equals target_lcoh, or None.

    LCOH is affine in price with slope = efficiency, so the breakeven is the
    closed form (target - LCOH at zero price) / efficiency. Returns None
    when the target is below the zero-electricity LCOH (no non-negative
    solution).
    """
    floor = electrolysis.lcoh(params, 0.0, capacity_factor).lcoh
    if target_lcoh < floor:
        return None
    return (target_lcoh - floor) / params.efficiency


def _average_base_ci(dataset: Dataset,
                     techs: Sequence[TechnologyParams]) -> float:
    """Unweighted state x technology average hydrogen CI at the base year."""
    efficiencies = [t.efficiency for t in techs]
    total = 0.0
    for grid_ci in dataset.grid_cis:
        for efficiency in efficiencies:
            total += grid_ci * efficiency
    average = total / (len(dataset.grid_cis) * len(techs))
    if not average < math.inf:
        # the crossover search below would never end
        raise ValidationError("average hydrogen carbon intensity overflows "
                              "the float range")
    return average


def crossover_year(dataset: Dataset, tech: TechnologyParams,
                   trajectory: GridTrajectory,
                   smr_ci_target: float) -> Optional[int]:
    """First year the dataset-average CI of one technology drops strictly
    below smr_ci_target; None if it never does (constant trajectory)."""
    return average_crossover_year(dataset, [tech], trajectory, smr_ci_target)


def average_crossover_year(dataset: Dataset, techs: Sequence[TechnologyParams],
                           trajectory: GridTrajectory, smr_ci_target: float,
                           averages: Optional[dict] = None) -> Optional[int]:
    """Crossover year for the average over states and given technologies.

    Closed form: average CI scales with the trajectory factor, so the
    crossing year solves avg_ci * (zero - y)/(zero - base) < target for the
    smallest integer y. averages, if given, keeps each technology set's
    base-year average across calls on one dataset, so each is computed once.
    """
    if smr_ci_target <= 0.0:
        raise DomainError("SMR CI target must be > 0")
    base_year = dataset.vintage_year
    averages = {} if averages is None else averages
    key = tuple(techs)
    if key not in averages:
        averages[key] = _average_base_ci(dataset, techs)
    avg0 = averages[key]
    if avg0 < smr_ci_target:
        return base_year
    if trajectory.kind == "constant":
        return None
    zero = trajectory.zero_year
    if zero <= base_year:
        raise DomainError(f"zero year {zero} must be after base year {base_year}")
    # avg0*(zero - y)/(zero - base) < target  <=>  y > zero - target*(zero-base)/avg0
    bound = zero - smr_ci_target * (zero - base_year) / avg0
    year = max(base_year, math.floor(bound) + 1)

    def below(y: int) -> bool:
        return avg0 * max(0.0, (zero - y) / (zero - base_year)) < smr_ci_target

    # settle float rounding at the boundary against the direct inequality
    while year > base_year and below(year - 1):
        year -= 1
    while not below(year):
        year += 1
    return year
