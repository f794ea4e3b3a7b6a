import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from h2cost import electrolysis as el
from h2cost.errors import DomainError, ValidationError
from h2cost.model import (
    GridTrajectory,
    LearningCase,
    Line,
    PriceRule,
    Scenario,
    Technology,
    default_registry,
    with_overrides,
)
from h2cost.scenario import (
    average_crossover_year,
    breakeven_electricity_price,
    crossover_year,
    effective_electricity_price,
    grid_ci_at,
    lcoh_line,
    project_params,
)
from inputs import read_config

REG = {p.name: p for p in default_registry()}
EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "example_config.json"


def scenario_for(targets, case=LearningCase.APS, **kw):
    return Scenario(name="t", target_year=2050, learning_case=case,
                    cumulative_production_target=targets, **kw)


class TestProjectParams:
    def test_target_equals_base_is_identity(self):
        sc = scenario_for({t: REG[t].cumulative_production_base for t in Technology})
        for params in REG.values():
            assert project_params(params, sc) == params

    def test_soec_ten_doublings(self):
        sc = scenario_for({Technology.SOEC: 2048.0})
        projected = project_params(REG[Technology.SOEC], sc)
        assert projected.unit_system_cost == pytest.approx(2500 * 0.895 ** 10)
        assert projected.lifetime == 40  # untouched without an override

    def test_overrides_applied(self):
        sc = scenario_for({Technology.PEM: 90.0},
                          lifetime_override={Technology.PEM: 150.0},
                          unit_om_cost_override={Technology.PEM: 0.0})
        projected = project_params(REG[Technology.PEM], sc)
        assert projected.lifetime == 150
        assert projected.unit_om_cost == 0
        assert projected.unit_system_cost == 1200  # ratio 1

    def test_chained_doublings_multiply(self):
        one = project_params(REG[Technology.PEM], scenario_for({Technology.PEM: 180.0}))
        two = project_params(one, scenario_for({Technology.PEM: 360.0}))
        direct = project_params(
            REG[Technology.PEM],
            scenario_for({Technology.PEM: 360.0}))
        # the cumulative base is never rewritten, so the second projection
        # re-counts doublings from 90 MW: two applies 0.86^1 then 0.86^2
        assert one.unit_system_cost == pytest.approx(1200 * 0.86, rel=1e-12)
        assert two.unit_system_cost == pytest.approx(
            one.unit_system_cost * 0.86 ** 2, rel=1e-9)
        assert direct.unit_system_cost == pytest.approx(1200 * 0.86 ** 2, rel=1e-12)


def projected_floor(params, sc):
    """The floor as the full pipeline gives it: project, then LCOH at 0."""
    return el.lcoh(project_params(params, sc), 0.0, sc.capacity_factor).lcoh


@st.composite
def drawn_scenarios(draw):
    techs = st.sampled_from(list(Technology))
    return Scenario(
        name="drawn", target_year=2050,
        learning_case=draw(st.sampled_from(list(LearningCase))),
        cumulative_production_target={
            t: REG[t].cumulative_production_base * draw(st.floats(1.0, 1e9))
            for t in draw(st.sets(techs))},
        capacity_factor=draw(st.floats(0.01, 1.0)),
        lifetime_override=draw(st.none() | st.dictionaries(
            techs, st.floats(1.0, 1e4))),
        unit_om_cost_override=draw(st.none() | st.dictionaries(
            techs, st.floats(0.0, 1e6))))


class TestLcohLine:
    def test_floor_is_the_projected_lcoh_at_zero_price(self, registry,
                                                       scenarios):
        example_registry, _, example = read_config(EXAMPLE_CONFIG)
        for reg, covered in ((registry, scenarios), (example_registry, example)):
            for sc in covered:
                for params in reg:
                    assert lcoh_line(params, sc) == Line(
                        params.name.value, projected_floor(params, sc),
                        ((params.efficiency, "paid_price"),),
                        params.efficiency, 0.0), (sc.name, params.name)

    @given(drawn_scenarios(), st.sampled_from(list(Technology)),
           st.sampled_from([0.0, 0.07, 0.2]))
    def test_floor_on_drawn_scenarios(self, sc, tech, discount_rate):
        params = with_overrides(REG[tech], discount_rate=discount_rate)
        line = lcoh_line(params, sc)
        assert line.floor == projected_floor(params, sc)
        assert (line.name, line.terms, line.ci_slope, line.ci) == (
            tech.value, ((params.efficiency, "paid_price"),),
            params.efficiency, 0.0)

    @pytest.mark.parametrize("fields, override", [
        ({"unit_system_cost": 1e308, "capacity": 1e308}, None),
        ({"unit_system_cost": 1e308, "capacity": 1e3}, None),
        ({"unit_system_cost": 1e-300, "capacity": 1e306}, None),
        ({"discount_rate": 0.0}, {Technology.PEM: 1e306}),
    ])
    def test_overflow_is_the_lcoh_error(self, fields, override):
        params = with_overrides(REG[Technology.PEM], **fields)
        sc = scenario_for({}, lifetime_override=override)
        message = (r"^PEM: LCOH is undefined \(costs or output overflow the "
                   r"float range\)$")
        with pytest.raises(ValidationError, match=message):
            projected_floor(params, sc)
        with pytest.raises(ValidationError, match=message):
            lcoh_line(params, sc)


class TestEffectivePrice:
    PRICES = (0.05, 0.1)

    def test_rules(self):
        assert effective_electricity_price(self.PRICES, PriceRule("dataset")) == [0.05, 0.1]
        assert effective_electricity_price(self.PRICES, PriceRule("multiplier", 0.5)) == [0.025, 0.05]
        assert effective_electricity_price(self.PRICES, PriceRule("fixed", 0.02)) == [0.02, 0.02]
        assert effective_electricity_price(self.PRICES, PriceRule("multiplier", 1.0)) == [0.05, 0.1]
        assert effective_electricity_price((), PriceRule("fixed", 0.02)) == []


class TestGridCiAt:
    def test_linear_to_zero(self):
        traj = GridTrajectory.linear_to_zero(2035)
        assert grid_ci_at(0.3, traj, 2030) == pytest.approx(0.1)
        assert grid_ci_at(0.3, traj, 2035) == 0.0
        assert grid_ci_at(0.3, traj, 2050) == 0.0

    def test_constant(self):
        assert grid_ci_at(0.3, GridTrajectory("constant"), 2050) == 0.3

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            GridTrajectory.linear_to_zero(2020)
        with pytest.raises(DomainError):
            grid_ci_at(0.3, GridTrajectory("constant"), 2019)

    @given(st.integers(2020, 2060), st.integers(2020, 2060))
    def test_non_increasing_and_non_negative(self, y1, y2):
        traj = GridTrajectory.linear_to_zero(2035)
        lo, hi = sorted((y1, y2))
        a = grid_ci_at(0.4, traj, lo)
        b = grid_ci_at(0.4, traj, hi)
        assert 0.0 <= b <= a


class TestBreakeven:
    def test_published_order_of_magnitude(self):
        # PEM driven to a ~0.34 $/kg fixed-cost floor: breakeven with a
        # 1.4 $/kg target lands at ~2 cents/kWh
        pem = REG[Technology.PEM]
        cheap = with_overrides(pem, unit_system_cost=360.0, unit_om_cost=0.0,
                               lifetime=150.0)
        floor = el.lcoh(cheap, 0.0).lcoh
        price = breakeven_electricity_price(cheap, 1.0, 1.4)
        assert price == pytest.approx((1.4 - floor) / 51, rel=1e-12)
        assert 0.015 < price < 0.025

    def test_target_at_floor_gives_zero(self):
        alk = REG[Technology.ALKALINE]
        floor = el.lcoh(alk, 0.0).lcoh
        assert breakeven_electricity_price(alk, 1.0, floor) == 0.0

    def test_unattainable_target_is_none(self):
        alk = REG[Technology.ALKALINE]
        assert breakeven_electricity_price(alk, 1.0, 0.01) is None

    def test_an_overflowing_price_is_a_validation_error(self):
        tiny = with_overrides(REG[Technology.PEM], efficiency=1e-299)
        with pytest.raises(ValidationError, match="^PEM: breakeven electricity "
                           "price overflows the float range$"):
            breakeven_electricity_price(tiny, 1.0, 1e10)

    def test_round_trip_on_random_draws(self):
        rng = random.Random(20)
        for _ in range(20):
            params = with_overrides(
                REG[Technology.PEM],
                unit_system_cost=rng.uniform(100, 2000),
                unit_om_cost=rng.uniform(0, 50_000),
                lifetime=rng.uniform(30, 150),
                efficiency=rng.uniform(40, 60),
            )
            cf = rng.uniform(0.3, 1.0)
            target = el.lcoh(params, 0.0, cf).lcoh + rng.uniform(0.0, 5.0)
            price = breakeven_electricity_price(params, cf, target)
            assert el.lcoh(params, price, cf).lcoh == pytest.approx(target, abs=1e-9)


def crosses(avg_ci, target, zero, year):
    """The crossover inequality, exact on the two floats."""
    return Fraction(avg_ci) * (zero - year) / (zero - 2020) < Fraction(target)


def brute_force_crossover(avg_ci, target, base, zero):
    for year in range(base, zero + 1):
        if Fraction(avg_ci) * (zero - year) / (zero - base) < Fraction(target):
            return year
    return zero


class TestCrossover:
    def test_example_average_18(self):
        # a single pseudo-technology with the average efficiency gives the
        # documented 2025 crossing for an 18 kg/kg starting average
        slope = REG[Technology.ALKALINE].efficiency
        traj = GridTrajectory.linear_to_zero(2035)
        assert crossover_year([18.0 / slope] * 4, [slope], 12.9, traj) == 2025

    def test_already_below_returns_base_year(self):
        traj = GridTrajectory.linear_to_zero(2035)
        assert crossover_year([0.05] * 4, [REG[Technology.SOEC].efficiency],
                              12.9, traj) == 2020

    def test_soec_vs_ccs_by_2031(self, dataset):
        traj = GridTrajectory.linear_to_zero(2035)
        year = crossover_year(dataset.grid_cis, [REG[Technology.SOEC].efficiency],
                              5.3, traj)
        assert year <= 2031

    def test_constant_never_crosses(self):
        assert crossover_year([0.4] * 4, [REG[Technology.ALKALINE].efficiency],
                              12.9, GridTrajectory("constant")) is None

    @given(st.floats(0.05, 1.0), st.floats(1.0, 25.0), st.integers(2021, 2060))
    def test_matches_brute_force_scan(self, grid_ci, target, zero):
        slope = REG[Technology.PEM].efficiency
        closed = crossover_year([grid_ci] * 4, [slope], target,
                                GridTrajectory.linear_to_zero(zero))
        assert closed == brute_force_crossover(grid_ci * slope, target, 2020,
                                               zero)

    @given(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=60),
           st.sampled_from([[Technology.ALKALINE], [Technology.SOEC],
                            [Technology.PEM, Technology.SOEC], list(Technology)]),
           st.floats(1.0, 25.0), st.integers(2021, 2100))
    def test_year_is_the_state_by_technology_loops_year(self, cis, names,
                                                        target, zero):
        # The reference is the loop over every state x technology product
        # that the closed form replaced; the two averages round differently,
        # so the year may be either one of a 1e-12 relative band around it.
        slopes = [REG[name].efficiency for name in names]
        loop = (sum(g * k for g in cis for k in slopes)
                / (len(cis) * len(slopes)))
        year = crossover_year(cis, slopes, target,
                              GridTrajectory.linear_to_zero(zero))
        assert year in {brute_force_crossover(loop * f, target, 2020, zero)
                        for f in (1 - 1e-12, 1.0, 1 + 1e-12)}

    # A target within a few ulps of the trajectory's exact value in some
    # year is a near tie, where evaluating the inequality in floats can put
    # the year one off either way. The year is the scan's first year below
    # the target: the inequality holds there and not the year before. The
    # zero years reach far past the range where a float holds every year.
    @settings(max_examples=300)
    @given(st.floats(0.001, 2.0), st.sampled_from(list(Technology)),
           st.integers(2021, 2100) | st.integers(5000, 10 ** 30), st.data())
    def test_near_tie_targets_match_a_year_scan(self, grid_ci, name, zero,
                                                data):
        slope = REG[name].efficiency
        avg0 = grid_ci * slope
        tie = data.draw(st.integers(2020, zero - 1))
        target = float(Fraction(avg0) * (zero - tie) / (zero - 2020))
        ulps = data.draw(st.integers(-4, 4))
        for _ in range(abs(ulps)):
            target = math.nextafter(target, math.inf if ulps > 0 else 0.0)
        year = crossover_year([grid_ci], [slope], target,
                              GridTrajectory.linear_to_zero(zero))
        assert crosses(avg0, target, zero, year)
        assert year == 2020 or not crosses(avg0, target, zero, year - 1)

    # The release gate's criterion 7 scans years with its own float
    # expression; on the packaged data the exact year agrees with that scan
    # for every zero year of the century, each technology and the average.
    @pytest.mark.parametrize("target", [12.9, 5.3])
    def test_exact_year_equals_the_gate_scan(self, dataset, registry, target):
        mean_ci = sum(p.grid_carbon_intensity for p in dataset.profiles) / 51
        for techs in [[t] for t in registry] + [registry]:
            slopes = [p.efficiency for p in techs]
            mean_eff = sum(slopes) / len(slopes)
            for zero in range(2021, 2101):
                scan = next((year for year in range(2020, zero + 1)
                             if mean_ci * mean_eff * (zero - year)
                             / (zero - 2020) < target), zero)
                assert crossover_year(
                    dataset.grid_cis, slopes, target,
                    GridTrajectory.linear_to_zero(zero)) == scan, (techs, zero)

    # average_crossover_year, which the release gate calls, is crossover_year
    # of the dataset's grid CIs and the technologies' efficiencies.
    @pytest.mark.parametrize("target", [12.9, 5.3])
    def test_average_crossover_year_is_crossover_year_of_the_registry(
            self, dataset, registry, target):
        slopes = [p.efficiency for p in registry]
        trajectories = [GridTrajectory("constant")] + [
            GridTrajectory.linear_to_zero(zero) for zero in (2021, 2035, 2071)]
        for traj in trajectories:
            for techs in [[t] for t in registry] + [registry]:
                assert average_crossover_year(dataset, techs, traj, target) \
                    == crossover_year(dataset.grid_cis,
                                      [t.efficiency for t in techs], target, traj)
        mean_ci, mean_eff = sum(dataset.grid_cis) / 51, sum(slopes) / 3
        assert average_crossover_year(
            dataset, registry, GridTrajectory.linear_to_zero(2035), target) \
            == brute_force_crossover(mean_ci * mean_eff, target, 2020, 2035)
