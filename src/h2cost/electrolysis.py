"""LCOH breakdown and hydrogen carbon intensity for one electrolysis
technology in one state.

All costs are discounted lifetime totals in USD; production is discounted
lifetime output in kg H2. LCOH is total cost over total production.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import DomainError, ValidationError
from .finance import AnnuityFactor, lifetime_hours_to_years, pvifa
from .model import HOURS_PER_YEAR, LcohBreakdown, TechnologyParams


class EmissionsResult:
    """Carbon intensity of one production pathway, kg CO2e per kg H2."""

    __slots__ = ("carbon_intensity", "pathway", "state")

    def __init__(self, carbon_intensity: float, pathway: str,
                 state: Optional[str] = None) -> None:
        if carbon_intensity < 0.0:
            raise DomainError("carbon intensity must be >= 0")
        self.carbon_intensity = carbon_intensity
        self.pathway = pathway
        self.state = state


def annuity_for(params: TechnologyParams, capacity_factor: float) -> AnnuityFactor:
    """PVIFA over the calendar life implied by the stack's operating hours."""
    years = lifetime_hours_to_years(params.lifetime, capacity_factor)
    return pvifa(params.discount_rate, years)


def capital_cost(params: TechnologyParams) -> float:
    """Up-front system cost in USD."""
    return params.unit_system_cost * params.capacity


def om_cost(params: TechnologyParams, annuity: AnnuityFactor) -> float:
    """Discounted lifetime fixed O&M in USD."""
    return params.unit_om_cost * annuity.value


def electricity_cost(price: float, params: TechnologyParams,
                     annuity: AnnuityFactor, capacity_factor: float) -> float:
    """Discounted lifetime electricity purchases in USD.

    Electricity is bought only while producing, so the annual energy draw
    scales with the capacity factor.
    """
    if price < 0.0:
        raise DomainError("electricity price must be >= 0")
    return price * params.capacity * HOURS_PER_YEAR * capacity_factor * annuity.value


def hydrogen_production(params: TechnologyParams, annuity: AnnuityFactor,
                        capacity_factor: float) -> float:
    """Discounted lifetime hydrogen output in kg."""
    energy = params.capacity * HOURS_PER_YEAR * capacity_factor * annuity.value
    return energy / params.efficiency


def lcoh(params: TechnologyParams, price: float,
         capacity_factor: float = 1.0) -> LcohBreakdown:
    """Full levelized-cost pipeline for one technology at one price.

    LCOH is affine in the electricity price with slope equal to the
    technology's specific energy consumption (kWh/kg).
    """
    annuity = annuity_for(params, capacity_factor)
    cap = capital_cost(params)
    om = om_cost(params, annuity)
    elec = electricity_cost(price, params, annuity, capacity_factor)
    prod = hydrogen_production(params, annuity, capacity_factor)
    value = (cap + om + elec) / prod
    if not (math.isfinite(value) and math.isfinite(prod)):
        # A config can push a cost or the output past the float range, and
        # inf / inf would otherwise surface as a nan LCOH.
        raise ValidationError(f"{params.name.value}: LCOH is undefined "
                              f"(costs or output overflow the float range)")
    return LcohBreakdown(
        capital_cost=cap,
        om_cost=om,
        electricity_cost=elec,
        hydrogen_production=prod,
        lcoh=value,
    )


def carbon_intensity(grid_ci: float, params: TechnologyParams,
                     state: Optional[str] = None) -> EmissionsResult:
    """Hydrogen carbon intensity: grid intensity times electricity per kg."""
    if grid_ci < 0.0:
        raise DomainError("grid carbon intensity must be >= 0")
    return EmissionsResult(
        carbon_intensity=grid_ci * params.efficiency,
        pathway=params.name.value,
        state=state,
    )
