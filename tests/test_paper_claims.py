"""The checkable claims of the paper's abstract (PAPER.md), one test each.

Each test asserts the claim as the abstract states it, on the packaged 2020
dataset and the shipped scenarios. Where the reproduction deviates, the
test is a strict xfail that records the measured value, so a change that
makes the claim hold shows up as an unexpected pass. Tolerances are those
of the release gate in tests/test_acceptance.py; none is widened here.
"""

import pytest

from h2cost import analysis
from h2cost.scenario import breakeven_electricity_price, lcoh_line, project_params
from h2cost.smr import smr_line

TECHS = ("Alkaline", "PEM", "SOEC")


@pytest.fixture(scope="module")
def table_2020(dataset, registry, smr_params, base_scenario):
    lines = [lcoh_line(t, base_scenario) for t in registry]
    lines += [smr_line(smr_params, ccs) for ccs in (False, True)]
    return analysis.state_columns(dataset, lines, base_scenario)


@pytest.fixture(scope="module")
def table_2050(dataset, registry, smr_params, scenario_2050):
    lines = [lcoh_line(t, scenario_2050) for t in registry]
    lines += [smr_line(smr_params, ccs) for ccs in (False, True)]
    return analysis.state_columns(dataset, lines, scenario_2050)


def mean(table, pathway):
    return analysis.mean_point(pathway, len(table[0]), *table[2][pathway])


def ranked(table, pathway, metric):
    """State codes by ascending LCOH (metric 0) or CI (metric 1)."""
    states, columns, _ = table
    return [s for _, s in sorted(zip(columns[pathway][metric], states))]


def test_2020_smr_ccs_has_lower_mean_lcoh_than_soec(table_2020):
    # "In 2020, SMR with 90% CCUS has a lower average LCOH ... than
    # electrolysis by SOEC." Measured: 1.35 vs 5.94 USD/kg.
    assert mean(table_2020, "SMR+CCS")[0] < mean(table_2020, "SOEC")[0]


def test_2020_smr_ccs_has_lower_mean_carbon_intensity_than_soec(table_2020):
    # "... and carbon intensity ..." Measured: 5.3 vs 16.19 kg/kg.
    assert mean(table_2020, "SMR+CCS")[1] < mean(table_2020, "SOEC")[1]


def test_soec_beats_smr_ccs_on_carbon_in_cleaner_grid_states(dataset,
                                                             table_2020):
    # "For states with cleaner grids, hydrogen produced through SOEC has a
    # lower carbon intensity than ... SMR with 90% CCUS": the states where
    # it does are exactly the cleanest grids (measured: VT, ID, WA, NH, ME).
    states, columns, _ = table_2020
    ccs_ci = columns["SMR+CCS"][1][0]
    cleaner = {s for s, ci in zip(states, columns["SOEC"][1]) if ci < ccs_ci}
    by_grid = sorted(dataset.profiles, key=lambda p: p.grid_carbon_intensity)
    assert cleaner
    assert cleaner == {p.state for p in by_grid[:len(cleaner)]}


def test_washington_has_one_of_the_lowest_carbon_intensities(table_2020):
    # "Washington has one of the lowest carbon footprints": among the five
    # lowest electrolysis CIs of 51 (measured: 3rd, after VT and ID).
    for tech in TECHS:
        assert ranked(table_2020, tech, 1).index("WA") < 5


@pytest.mark.xfail(strict=True, reason="measured: WA is 2nd (3.3141 USD/kg) "
                   "after OK (3.2301 USD/kg) on the packaged 2020 prices")
def test_washington_has_the_lowest_alkaline_lcoh(table_2020):
    # "... and the lowest LCOH to produce hydrogen through electrolysis
    # (alkaline)."
    assert ranked(table_2020, "Alkaline", 0)[0] == "WA"


def test_2050_mean_lcoh_per_technology(table_2050):
    # "$3.2/kg for Alkaline, $3.1/kg for PEM, and $2.6/kg for SOEC by 2050
    # with constant electricity prices." Measured: 3.27 / 3.10 / 2.66.
    for tech, paper in zip(TECHS, (3.2, 3.1, 2.6)):
        assert mean(table_2050, tech)[0] == pytest.approx(paper, abs=0.1)


def test_2050_electrolysis_still_costs_more_than_smr_ccs(table_2050):
    # "These projected LCOHs are still higher than the LCOH for hydrogen
    # produced through SMR with 90% CCUS."
    smr_ccs = mean(table_2050, "SMR+CCS")[0]
    assert all(mean(table_2050, tech)[0] > smr_ccs for tech in TECHS)


def test_cost_parity_with_smr_ccs_near_2_cents_per_kwh(registry, table_2020,
                                                        scenario_2050):
    # "If electricity costs decrease to 2c/kWh, we expect to reach
    # cost-parity with SMR with 90% CCUS": the 2050 breakeven against the
    # 2020 SMR+CCS mean lies in the gate's 1.5-3 c/kWh band (measured:
    # 2.33 / 2.33 / 2.77 c/kWh).
    target = mean(table_2020, "SMR+CCS")[0]
    for tech in registry:
        price = breakeven_electricity_price(project_params(tech, scenario_2050),
                                            scenario_2050.capacity_factor,
                                            target)
        assert price is not None and 0.015 <= price <= 0.03
