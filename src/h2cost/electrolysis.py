"""LCOH breakdown and hydrogen carbon intensity for one electrolysis
technology in one state.

All costs are discounted lifetime totals in USD; production is discounted
lifetime output in kg H2. LCOH is total cost over total production.
"""

from __future__ import annotations

import math

from .errors import DomainError, ValidationError
from .finance import lifetime_hours_to_years, pvifa
from .model import HOURS_PER_YEAR, EmissionsResult, LcohBreakdown, TechnologyParams


def discounted_costs(params: TechnologyParams, unit_system_cost: float,
                     lifetime: float, unit_om_cost: float, price: float,
                     capacity_factor: float
                     ) -> tuple[float, float, float, float, float]:
    """Capital, discounted O&M and electricity cost, discounted output and
    LCOH of params with the given unit costs and lifetime.

    The annuity runs over the calendar life implied by the stack's
    operating hours. Electricity is bought only while producing, so the
    annual energy draw scales with the capacity factor.
    """
    annuity = pvifa(params.discount_rate,
                    lifetime_hours_to_years(lifetime, capacity_factor)).value
    cap = unit_system_cost * params.capacity
    om = unit_om_cost * annuity
    if price < 0.0:
        raise DomainError("electricity price must be >= 0")
    elec = price * params.capacity * HOURS_PER_YEAR * capacity_factor * annuity
    prod = (params.capacity * HOURS_PER_YEAR * capacity_factor * annuity
            / params.efficiency)
    if not prod > 0.0:
        raise ValidationError(f"{params.name.value}: LCOH is undefined "
                              f"(hydrogen output underflows to zero)")
    value = (cap + om + elec) / prod
    if not (math.isfinite(value) and math.isfinite(prod)):
        # A config can push a cost or the output past the float range, and
        # inf / inf would otherwise surface as a nan LCOH.
        raise ValidationError(f"{params.name.value}: LCOH is undefined "
                              f"(costs or output overflow the float range)")
    return cap, om, elec, prod, value


def lcoh(params: TechnologyParams, price: float,
         capacity_factor: float = 1.0) -> LcohBreakdown:
    """Full levelized-cost pipeline for one technology at one price.

    LCOH is affine in the electricity price with slope equal to the
    technology's specific energy consumption (kWh/kg).
    """
    return LcohBreakdown(*discounted_costs(
        params, params.unit_system_cost, params.lifetime, params.unit_om_cost,
        price, capacity_factor))


def carbon_intensity(grid_ci: float, params: TechnologyParams) -> EmissionsResult:
    """Hydrogen carbon intensity: grid intensity times electricity per kg."""
    if grid_ci < 0.0:
        raise DomainError("grid carbon intensity must be >= 0")
    return EmissionsResult(grid_ci * params.efficiency)
