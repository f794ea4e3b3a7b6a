import pytest
from hypothesis import given, settings, strategies as st

from h2cost import electrolysis as el
from h2cost.errors import ValidationError
from h2cost.finance import AnnuityFactor
from h2cost.model import Technology, default_registry, with_overrides

REG = {p.name: p for p in default_registry()}
ALK, PEM, SOEC = REG[Technology.ALKALINE], REG[Technology.PEM], REG[Technology.SOEC]


def annuity(value):
    return AnnuityFactor(value=value, rate=0.07, years=0.0)


def test_capital_cost():
    assert el.capital_cost(ALK) == 7_500_000
    assert el.capital_cost(SOEC) == 2_500_000
    assert el.capital_cost(with_overrides(ALK, unit_system_cost=0.0)) == 0


def test_om_cost():
    assert el.om_cost(SOEC, annuity(3.797)) == pytest.approx(75_940)
    assert el.om_cost(ALK, annuity(5.298)) == pytest.approx(9_536.4)
    assert el.om_cost(with_overrides(ALK, unit_om_cost=0.0), annuity(5.298)) == 0


def test_electricity_cost():
    assert el.electricity_cost(0.1, ALK, annuity(5.298), 1.0) == pytest.approx(46_410_480)
    assert el.electricity_cost(0.0, ALK, annuity(5.298), 1.0) == 0
    assert el.electricity_cost(0.1, SOEC, annuity(3.797), 1.0) == pytest.approx(3_326_172)


def test_hydrogen_production():
    assert el.hydrogen_production(ALK, annuity(5.298), 1.0) == pytest.approx(8_287_585.7, rel=1e-6)
    assert el.hydrogen_production(SOEC, annuity(3.797), 1.0) == pytest.approx(755_948.2, rel=1e-6)
    full = el.hydrogen_production(PEM, annuity(6.281), 1.0)
    half = el.hydrogen_production(PEM, annuity(6.281), 0.5)
    assert half == pytest.approx(full / 2)


def test_lcoh_matches_published_table():
    # worked example: 0.1 USD/kWh everywhere, table rounds to 7/6/8
    assert el.lcoh(ALK, 0.1).lcoh == pytest.approx(6.51, abs=0.01)
    assert el.lcoh(PEM, 0.1).lcoh == pytest.approx(6.21, abs=0.01)
    assert el.lcoh(SOEC, 0.1).lcoh == pytest.approx(7.81, abs=0.01)
    assert [round(el.lcoh(p, 0.1).lcoh) for p in (ALK, PEM, SOEC)] == [7, 6, 8]


def test_lcoh_zero_price_decomposition():
    b = el.lcoh(PEM, 0.0)
    assert b.electricity_cost == 0
    assert b.lcoh == pytest.approx(
        (b.capital_cost + b.om_cost) / b.hydrogen_production, rel=1e-15)


def test_carbon_intensity():
    assert el.carbon_intensity(0.2, ALK).carbon_intensity == pytest.approx(11.2)
    assert el.carbon_intensity(0.2, PEM).carbon_intensity == pytest.approx(10.2)
    assert el.carbon_intensity(0.2, SOEC).carbon_intensity == pytest.approx(8.8)
    assert el.carbon_intensity(0.0, SOEC).carbon_intensity == 0
    assert [round(el.carbon_intensity(0.2, p).carbon_intensity)
            for p in (ALK, PEM, SOEC)] == [11, 10, 9]


@given(st.sampled_from([ALK, PEM, SOEC]), st.floats(0.0, 1.0),
       st.floats(0.05, 1.0))
def test_lcoh_affine_in_price(params, price, cf):
    base = el.lcoh(params, 0.0, cf).lcoh
    full = el.lcoh(params, price, cf).lcoh
    assert full == pytest.approx(base + params.efficiency * price, rel=1e-12)


@given(st.sampled_from([ALK, PEM, SOEC]), st.floats(0.0, 0.5),
       st.floats(0.05, 1.0))
def test_breakdown_conservation(params, price, cf):
    b = el.lcoh(params, price, cf)
    assert b.lcoh * b.hydrogen_production == pytest.approx(b.total_cost, rel=1e-12)


@given(st.floats(0.0, 0.5), st.floats(0.05, 1.0), st.floats(0.05, 1.0))
def test_capacity_factor_invariance_at_zero_discount_zero_om(price, cf1, cf2):
    params = with_overrides(ALK, discount_rate=0.0, unit_om_cost=0.0)
    l1 = el.lcoh(params, price, cf1).lcoh
    l2 = el.lcoh(params, price, cf2).lcoh
    assert l1 == pytest.approx(l2, rel=1e-9)


def test_lcoh_strictly_decreasing_in_lifetime():
    for params in (ALK, PEM, SOEC):
        longer = with_overrides(params, lifetime=params.lifetime * 1.5)
        assert el.lcoh(longer, 0.1).lcoh < el.lcoh(params, 0.1).lcoh


@given(st.floats(0.0, 1.0), st.sampled_from([ALK, PEM, SOEC]))
def test_carbon_intensity_linear_in_grid_ci(g, params):
    one = el.carbon_intensity(1.0, params).carbon_intensity
    assert el.carbon_intensity(g, params).carbon_intensity == pytest.approx(
        g * one, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("fields", [
    {"unit_system_cost": 1e308, "capacity": 1e308},  # inf / inf
    {"unit_system_cost": 1e308, "capacity": 1e3},  # inf / finite
    {"unit_system_cost": 1e-300, "capacity": 1e306},  # finite / inf
])
def test_lcoh_overflow_names_the_technology(fields):
    with pytest.raises(ValidationError, match=r"^PEM: LCOH is undefined "
                       r"\(costs or output overflow the float range\)$"):
        el.lcoh(with_overrides(PEM, **fields), 0.05)
