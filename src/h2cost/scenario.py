"""Projection through time and breakeven/crossover solvers.

project_params rides the learning curve down to a scenario's cumulative
production target, and lcoh_line is a technology's affine LCOH line there;
grid_ci_at evaluates the grid decarbonization trajectory; breakeven solves
the line in closed form; average_crossover_year solves exactly for the
first year average electrolysis CI falls below an SMR benchmark.
"""

import math
from collections.abc import Sequence

from . import electrolysis
from .errors import DomainError, ValidationError
from .finance import wright_capital_cost
from .model import (
    BASE_YEAR,
    Dataset,
    GridTrajectory,
    PriceRule,
    Scenario,
    TechnologyParams,
    with_overrides,
)


def _learned(params: TechnologyParams,
             scenario: Scenario) -> tuple[float, float, float]:
    """Unit system cost, lifetime and unit O&M cost at the scenario's target.

    Unit system cost follows Wright's law down to the scenario's cumulative
    production target; lifetime and O&M are replaced only if the scenario
    overrides them.
    """
    target = scenario.cumulative_production_target.get(
        params.name, params.cumulative_production_base)
    return (wright_capital_cost(params.unit_system_cost,
                                params.learning_rate(scenario.learning_case),
                                params.cumulative_production_base, target),
            (scenario.lifetime_override or {}).get(params.name, params.lifetime),
            (scenario.unit_om_cost_override or {}).get(params.name,
                                                       params.unit_om_cost))


def project_params(params: TechnologyParams, scenario: Scenario) -> TechnologyParams:
    """Technology parameters at the scenario's target year (_learned)."""
    cost, lifetime, om = _learned(params, scenario)
    return with_overrides(params, unit_system_cost=cost, lifetime=lifetime,
                          unit_om_cost=om)


def lcoh_line(params: TechnologyParams,
              scenario: Scenario) -> tuple[str, float, float]:
    """(name, floor, slope) of the technology at the scenario's target:
    LCOH = floor + slope * electricity price, CI = slope * grid CI. The
    floor equals electrolysis.lcoh(project_params(params, scenario), 0.0,
    scenario.capacity_factor).lcoh; no TechnologyParams is built for it.
    """
    *_, floor = electrolysis.discounted_costs(
        params, *_learned(params, scenario), 0.0, scenario.capacity_factor)
    return params.name.value, floor, params.efficiency


def effective_electricity_price(prices: Sequence[float],
                                rule: PriceRule) -> list[float]:
    """The price paid under a scenario's rule for each dataset price."""
    if rule.kind == "dataset":
        return list(prices)
    if rule.kind == "fixed":
        return [rule.value] * len(prices)
    return [rule.value * price for price in prices]


def grid_ci_at(base_ci: float, trajectory: GridTrajectory, year: int) -> float:
    """Grid carbon intensity in year under a trajectory, from base_ci in
    BASE_YEAR; DomainError for a year before BASE_YEAR. The trajectory's
    zero year is after BASE_YEAR, as GridTrajectory checks."""
    if year < BASE_YEAR:
        raise DomainError(f"query year {year} before base year {BASE_YEAR}")
    if trajectory.kind == "constant":
        return base_ci
    zero = trajectory.zero_year
    return base_ci * max(0.0, (zero - year) / (zero - BASE_YEAR))


def breakeven_electricity_price(params: TechnologyParams, capacity_factor: float,
                                target_lcoh: float) -> float | None:
    """Electricity price at which LCOH equals target_lcoh, or None
    (line_breakeven of the line of params)."""
    return line_breakeven(
        (params.name.value, electrolysis.lcoh(params, 0.0, capacity_factor).lcoh,
         params.efficiency), target_lcoh)


def line_breakeven(line: tuple[str, float, float],
                   target_lcoh: float) -> float | None:
    """Electricity price at which the lcoh_line (name, floor, slope) meets
    target_lcoh: the closed form (target - floor) / slope; None when the
    target is below the floor (no non-negative solution); ValidationError
    naming the line when the price overflows the float range."""
    name, floor, slope = line
    if target_lcoh < floor:
        return None
    price = (target_lcoh - floor) / slope
    if not price < math.inf:
        raise ValidationError(f"{name}: breakeven electricity price overflows "
                              f"the float range")
    return price


def average_crossover_year(dataset: Dataset, techs: Sequence[TechnologyParams],
                           trajectory: GridTrajectory,
                           smr_ci_target: float) -> int | None:
    """Crossover year for the average over states and given technologies:
    the smallest integer y >= BASE_YEAR where avg_ci * (zero - y) /
    (zero - BASE_YEAR) < target, avg_ci being mean grid CI x mean
    efficiency, solved in exact rationals on the floats avg_ci and target;
    None if a constant grid never crosses.
    """
    if smr_ci_target <= 0.0:
        raise DomainError("SMR CI target must be > 0")
    avg0 = ((sum(dataset.grid_cis) / len(dataset.grid_cis))
            * (sum(t.efficiency for t in techs) / len(techs)))
    if not avg0 < math.inf:  # also nan, which has no integer ratio
        raise ValidationError("average hydrogen carbon intensity overflows "
                              "the float range")
    if avg0 < smr_ci_target:
        return BASE_YEAR
    if trajectory.kind == "constant":
        return None
    zero = trajectory.zero_year
    a, b = smr_ci_target.as_integer_ratio()
    c, d = avg0.as_integer_ratio()
    # avg0 (zero - y) / (zero - BASE_YEAR) < target  <=>  y > zero - q with
    # q = ad (zero - BASE_YEAR) / bc, so the year is floor(zero - q) + 1
    return max(BASE_YEAR, zero + 1 + (-(a * d * (zero - BASE_YEAR))) // (b * c))
