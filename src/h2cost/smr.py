"""Steam-methane-reforming cost surrogate and leakage-adjusted emissions.

The cost side is an affine surrogate in the two prices that actually vary
across states (natural gas and electricity); the emissions side linearly
interpolates a methane-leakage anchor table, with separate columns for the
no-CCS and 90%-CCS plant configurations (CCS captures CO2 only, never the
leaked methane, which is why the CCS column is its own data series rather
than a 0.9 multiplier).
"""

from collections.abc import Sequence

from .model import EmissionsResult, SmrParams, StateEnergyProfile


def smr_lcoh(params: SmrParams, profile: StateEnergyProfile,
             with_ccs: bool) -> float:
    """Hydrogen cost in USD/kg for one state, with or without 90% capture."""
    cost = smr_costs(params, (profile.gas_price,), (profile.electricity_price,))[0]
    if with_ccs:
        cost += params.ccs_adder
    return cost


def smr_costs(params: SmrParams, gas_prices: Sequence[float],
              electricity_prices: Sequence[float]) -> list[float]:
    """Cost in USD/kg without capture for each state's gas and power price."""
    base, gas_k, elec_k = (params.base_cost, params.gas_sensitivity,
                           params.electricity_sensitivity)
    return [base + gas_k * gas + elec_k * elec
            for gas, elec in zip(gas_prices, electricity_prices)]


def smr_emissions(params: SmrParams, with_ccs: bool) -> EmissionsResult:
    """Lifecycle emissions at the configured methane leakage rate.

    Piecewise-linear interpolation of the anchor table; SmrParams rejects
    a leakage rate outside the anchor range, so there is no extrapolation.
    """
    anchors, leak = params.emissions_anchors, params.leakage_rate
    col = 2 if with_ccs else 1
    for (x0, *v0), (x1, *v1) in zip(anchors, anchors[1:]):
        if leak <= x1:  # the first such segment; the last at the latest
            break
    t = (leak - x0) / (x1 - x0)
    return EmissionsResult(v0[col - 1] + t * (v1[col - 1] - v0[col - 1]))
