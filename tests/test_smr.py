import pytest
from hypothesis import given, strategies as st

from h2cost.errors import DomainError
from h2cost.model import StateEnergyProfile, default_smr_params, SmrParams
from h2cost.smr import smr_emissions, smr_lcoh

from dataclasses import replace

PARAMS = default_smr_params()


def profile(elec=0.05, gas=3.0, state="TX"):
    return StateEnergyProfile(state, elec, gas, 0.3)


def test_ccs_adder_is_exact():
    for gas in (1.9, 3.0, 17.2):
        p = profile(gas=gas)
        assert (smr_lcoh(PARAMS, p, True) - smr_lcoh(PARAMS, p, False)
                == pytest.approx(0.4, abs=1e-12))


def test_intercept_at_tiny_prices():
    p = StateEnergyProfile("TX", 1e-12, 1e-12, 0.3)
    assert smr_lcoh(PARAMS, p, False) == pytest.approx(PARAMS.base_cost, abs=1e-9)
    assert smr_lcoh(PARAMS, p, True) == pytest.approx(
        PARAMS.base_cost + PARAMS.ccs_adder, abs=1e-9)


def test_reference_mean_near_one_dollar(dataset):
    mean = sum(smr_lcoh(PARAMS, p, False) for p in dataset.profiles) / len(dataset.profiles)
    assert mean == pytest.approx(1.0, abs=0.15)


@given(st.floats(1.0, 20.0), st.floats(0.01, 0.25), st.floats(0.1, 5.0))
def test_affine_finite_differences(gas, elec, dg):
    lo = smr_lcoh(PARAMS, profile(elec, gas), False)
    hi = smr_lcoh(PARAMS, profile(elec, gas + dg), False)
    assert (hi - lo) / dg == pytest.approx(PARAMS.gas_sensitivity, rel=1e-9)
    hi_e = smr_lcoh(PARAMS, profile(elec + 0.01, gas), False)
    assert (hi_e - lo) / 0.01 == pytest.approx(PARAMS.electricity_sensitivity, rel=1e-9)


def test_emissions_at_default_leakage():
    assert smr_emissions(PARAMS, False).carbon_intensity == pytest.approx(12.9, rel=1e-12)
    assert smr_emissions(PARAMS, True).carbon_intensity == pytest.approx(5.3, rel=1e-12)


def test_emissions_anchor_fixed_points():
    for leak, no_ccs, ccs in PARAMS.emissions_anchors:
        p = replace(PARAMS, leakage_rate=leak)
        assert smr_emissions(p, False).carbon_intensity == pytest.approx(no_ccs)
        assert smr_emissions(p, True).carbon_intensity == pytest.approx(ccs)


def test_emissions_no_extrapolation():
    with pytest.raises(DomainError):
        smr_emissions(replace(PARAMS, leakage_rate=0.001), False)
    with pytest.raises(DomainError):
        smr_emissions(replace(PARAMS, leakage_rate=0.09), True)


@given(st.floats(0.002, 0.080), st.floats(0.002, 0.080))
def test_emissions_monotone_in_leakage(l1, l2):
    lo, hi = sorted((l1, l2))
    for with_ccs in (False, True):
        a = smr_emissions(replace(PARAMS, leakage_rate=lo), with_ccs).carbon_intensity
        b = smr_emissions(replace(PARAMS, leakage_rate=hi), with_ccs).carbon_intensity
        assert b >= a - 1e-12


@given(st.floats(0.002, 0.080))
def test_ccs_never_dirtier(leak):
    p = replace(PARAMS, leakage_rate=leak)
    assert (smr_emissions(p, True).carbon_intensity
            <= smr_emissions(p, False).carbon_intensity)


def test_state_ranking_independent_of_intercept(dataset):
    def variable_part(p):
        return (PARAMS.gas_sensitivity * p.gas_price
                + PARAMS.electricity_sensitivity * p.electricity_price)

    by_cost = sorted(dataset.profiles, key=lambda p: (smr_lcoh(PARAMS, p, False), p.state))
    by_var = sorted(dataset.profiles, key=lambda p: (variable_part(p), p.state))
    assert [p.state for p in by_cost] == [p.state for p in by_var]
