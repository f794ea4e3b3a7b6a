"""Steam-methane-reforming cost surrogate and leakage-adjusted emissions.

smr_line is the SMR pathway's model.Line, with or without 90% capture;
smr_lines is the pair every report and command compares against.
Its cost is affine in the two prices that actually vary across states:
base_cost + gas_sensitivity * gas price + electricity_sensitivity *
dataset electricity price, added in that order, and with capture
+ ccs_adder * 1.0 after them (a last term, not folded into the floor, so
the sum rounds as it always has). Its CI is a constant, smr_emissions:
the emissions side linearly interpolates a methane-leakage anchor table,
with separate columns for the no-CCS and 90%-CCS plant configurations
(CCS captures CO2 only, never the leaked methane, which is why the CCS
column is its own data series rather than a 0.9 multiplier).
"""

from .model import EmissionsResult, Line, SmrParams, StateEnergyProfile


def smr_line(params: SmrParams, with_ccs: bool) -> Line:
    """The record named "SMR+CCS" with 90% capture and "SMR" without."""
    terms = ((params.gas_sensitivity, "gas_price"),
             (params.electricity_sensitivity, "electricity_price"))
    if with_ccs:
        terms += ((params.ccs_adder, "one"),)
    return Line("SMR+CCS" if with_ccs else "SMR", params.base_cost, terms,
                0.0, smr_emissions(params, with_ccs).carbon_intensity)


def smr_lines(params: SmrParams) -> list[Line]:
    """The two benchmark records: smr_line without and with capture, in
    that order."""
    return [smr_line(params, ccs) for ccs in (False, True)]


def smr_lcoh(params: SmrParams, profile: StateEnergyProfile,
             with_ccs: bool) -> float:
    """Hydrogen cost in USD/kg for one state, with or without 90% capture."""
    return smr_line(params, with_ccs).lcohs({
        "gas_price": (profile.gas_price,), "one": (1.0,),
        "electricity_price": (profile.electricity_price,)})[0]


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
