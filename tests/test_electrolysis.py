import pytest
from hypothesis import given, settings, strategies as st

from h2cost import electrolysis as el
from h2cost.errors import DomainError, ValidationError
from h2cost.finance import lifetime_hours_to_years, pvifa
from h2cost.model import Technology, default_registry, with_overrides

REG = {p.name: p for p in default_registry()}
ALK, PEM, SOEC = REG[Technology.ALKALINE], REG[Technology.PEM], REG[Technology.SOEC]


def per_annuity(field, params, cf=1.0):
    """A discounted lcoh field over the annuity factor lcoh used, so the
    worked example's rounded factors (5.298 Alkaline, 6.281 PEM, 3.797
    SOEC) give the expected values."""
    years = lifetime_hours_to_years(params.lifetime, cf)
    return getattr(el.lcoh(params, 0.1, cf), field) / pvifa(
        params.discount_rate, years).value


def test_worked_example_annuity_factors():
    assert [round(pvifa(0.07, lifetime_hours_to_years(p.lifetime, 1.0)).value, 3)
            for p in (ALK, PEM, SOEC)] == [5.298, 6.281, 3.797]


def test_capital_cost():
    assert el.lcoh(ALK, 0.1).capital_cost == 7_500_000
    assert el.lcoh(SOEC, 0.1).capital_cost == 2_500_000
    assert el.lcoh(with_overrides(ALK, unit_system_cost=0.0), 0.1).capital_cost == 0


def test_om_cost():
    assert per_annuity("om_cost", SOEC) == pytest.approx(75_940 / 3.797)
    assert per_annuity("om_cost", ALK) == pytest.approx(9_536.4 / 5.298)
    assert el.lcoh(with_overrides(ALK, unit_om_cost=0.0), 0.1).om_cost == 0


def test_electricity_cost():
    assert per_annuity("electricity_cost", ALK) == pytest.approx(46_410_480 / 5.298)
    assert el.lcoh(ALK, 0.0).electricity_cost == 0
    assert per_annuity("electricity_cost", SOEC) == pytest.approx(3_326_172 / 3.797)


def test_hydrogen_production():
    assert per_annuity("hydrogen_production", ALK) == pytest.approx(
        8_287_585.7 / 5.298, rel=1e-6)
    assert per_annuity("hydrogen_production", SOEC) == pytest.approx(
        755_948.2 / 3.797, rel=1e-6)
    full = per_annuity("hydrogen_production", PEM, 1.0)
    half = per_annuity("hydrogen_production", PEM, 0.5)
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


def test_negative_price_and_grid_ci_are_domain_errors():
    with pytest.raises(DomainError) as info:
        el.lcoh(PEM, -0.01)
    assert str(info.value) == "electricity price must be >= 0"
    with pytest.raises(DomainError) as info:
        el.carbon_intensity(-0.1, PEM)
    assert str(info.value) == "grid carbon intensity must be >= 0"


def test_lcoh_underflowing_output_names_the_technology():
    # The discounted output underflows to zero, and costs / 0 would raise
    # ZeroDivisionError.
    with pytest.raises(ValidationError, match=r"^PEM: LCOH is undefined "
                       r"\(hydrogen output underflows to zero\)$"):
        el.lcoh(with_overrides(PEM, capacity=1e-300, efficiency=1e300), 0.05)
