import math
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from h2cost import analysis, electrolysis, smr
from h2cost.analysis import (
    StateResult,
    column_frontier,
    national_average,
    pareto_frontier,
    rank_states,
    state_columns,
    state_table,
)
from h2cost.errors import ValidationError
from h2cost.ingest import Dataset
from h2cost.model import (
    ELECTROLYSIS_PATHWAYS,
    PriceRule,
    Scenario,
    default_smr_params,
    with_overrides,
)
from h2cost.scenario import grid_ci_at, lcoh_line, project_params
from inputs import read_config

EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "example_config.json"
PATHWAYS = ("Alkaline", "PEM", "SOEC", "SMR", "SMR+CCS")


def rule_price(profile, rule):
    """The price rule as it was applied to one row before the columns."""
    if rule.kind == "dataset":
        return profile.electricity_price
    if rule.kind == "fixed":
        return rule.value
    return rule.value * profile.electricity_price


def lines_of(registry, smr_params, sc):
    return ([lcoh_line(p, sc) for p in registry]
            + [smr.smr_line(smr_params, ccs) for ccs in (False, True)])


def row_by_row(dataset, registry, smr_params, sc):
    """The row loop state_table used before the columns, with each cell's
    closed form written out: one line per technology, each cell a multiply
    and an add; SMR base + gas term + electricity term (dataset price),
    then + the CCS adder. (state, pathway, lcoh, ci) rows, states sorted."""
    lines = []
    for p in registry:
        tech = project_params(p, sc)
        floor = electrolysis.lcoh(tech, 0.0, sc.capacity_factor).lcoh
        lines.append((tech.name.value, floor, tech.efficiency))
    smr_ci = smr.smr_emissions(smr_params, False).carbon_intensity
    ccs_ci = smr.smr_emissions(smr_params, True).carbon_intensity
    want = []
    for profile in sorted(dataset.profiles, key=lambda p: p.state):
        price = rule_price(profile, sc.electricity_price_rule)
        grid_ci = grid_ci_at(profile.grid_carbon_intensity,
                             sc.grid_trajectory, sc.target_year)
        want += [(profile.state, name, floor + slope * price,
                  grid_ci * slope) for name, floor, slope in lines]
        cost = (smr_params.base_cost
                + smr_params.gas_sensitivity * profile.gas_price
                + smr_params.electricity_sensitivity
                * profile.electricity_price)
        want.append((profile.state, "SMR", cost, smr_ci))
        want.append((profile.state, "SMR+CCS", cost + smr_params.ccs_adder,
                     ccs_ci))
    return want


# SMR coefficients as a config may set them: zero, tiny, or up to 1e3.
SMR_COEFFICIENTS = st.one_of(st.just(0.0), st.floats(0.0, 1e3),
                             st.floats(0.0, 1e-300))
PRICE_RULES = st.one_of(
    st.just(PriceRule("dataset")),
    st.builds(PriceRule, st.just("fixed"), st.floats(0.0, 10.0)),
    st.builds(PriceRule, st.just("multiplier"), st.floats(0.0, 10.0)))


def point(state, lcoh, ci, pathway="PEM"):
    return StateResult(state=state, pathway=pathway, lcoh=lcoh, carbon_intensity=ci)


def brute_force_frontier(points):
    def dominates(a, b):
        return (a.lcoh <= b.lcoh and a.carbon_intensity <= b.carbon_intensity
                and (a.lcoh, a.carbon_intensity) != (b.lcoh, b.carbon_intensity))

    return [p for p in points if not any(dominates(q, p) for q in points)]


class TestStateTable:
    def test_five_pathways_per_state(self, registry, smr_params, base_scenario):
        ds = Dataset(["TX"], [0.0449], [1.88], [0.36])
        rows = state_table(ds, registry, smr_params, base_scenario)
        assert len(rows) == 5
        assert sorted(r.pathway for r in rows) == sorted(PATHWAYS)

    def test_reference_min_max_states(self, dataset, registry, smr_params,
                                      base_scenario):
        rows = state_table(dataset, registry, smr_params, base_scenario)
        for pathway in ("Alkaline", "PEM", "SOEC"):
            ranked = rank_states(rows, "lcoh", pathway)
            assert ranked[0].state in {"OK", "LA", "TX", "WA"}
            assert ranked[-1].state in {"HI", "AK", "RI", "MA", "CA"}

    def test_affine_line_matches_full_pipeline(self, dataset, registry,
                                               smr_params, scenarios,
                                               base_scenario):
        _, _, example = read_config(EXAMPLE_CONFIG)
        covered = [*scenarios, *example, Scenario(**{
            **vars(base_scenario), "name": "base-2020-cf04",
            "capacity_factor": 0.4})]
        assert {sc.name for sc in covered} == {
            "base-2020", "aps-2050", "offpeak-2020", "nze-2050", "base-2020-cf04"}
        for sc in covered:
            rows = state_table(dataset, registry, smr_params, sc)
            by_key = {(r.state, r.pathway): r for r in rows}
            techs = [project_params(p, sc) for p in registry]
            for profile in dataset.profiles:
                price = rule_price(profile, sc.electricity_price_rule)
                grid_ci = grid_ci_at(
                    profile.grid_carbon_intensity, sc.grid_trajectory,
                    sc.target_year)
                for tech in techs:
                    row = by_key[(profile.state, tech.name.value)]
                    want_lcoh = electrolysis.lcoh(tech, price,
                                                  sc.capacity_factor).lcoh
                    want_ci = electrolysis.carbon_intensity(
                        grid_ci, tech).carbon_intensity
                    assert row.lcoh == pytest.approx(want_lcoh, rel=1e-12), sc.name
                    assert row.carbon_intensity == pytest.approx(
                        want_ci, rel=1e-12), sc.name

    def test_view_equals_the_row_by_row_formulas(self, dataset, registry,
                                                 smr_params, scenarios):
        # The view must give the same floats as row_by_row, states sorted.
        _, _, example = read_config(EXAMPLE_CONFIG)
        covered = [*scenarios, *example]
        assert [sc.name for sc in covered] == [
            "base-2020", "aps-2050", "offpeak-2020", "nze-2050"]
        for sc in covered:
            rows = state_table(dataset, registry, smr_params, sc)
            assert [(r.state, r.pathway, r.lcoh, r.carbon_intensity)
                    for r in rows] == row_by_row(dataset, registry,
                                                 smr_params, sc), sc.name

    @given(SMR_COEFFICIENTS, SMR_COEFFICIENTS, SMR_COEFFICIENTS,
           SMR_COEFFICIENTS, PRICE_RULES)
    def test_view_equals_the_row_by_row_formulas_on_drawn_smr_terms(
            self, dataset, registry, base_scenario, base, gas_k, elec_k,
            adder, rule):
        smr_params = with_overrides(
            default_smr_params(), base_cost=base, gas_sensitivity=gas_k,
            electricity_sensitivity=elec_k, ccs_adder=adder)
        sc = with_overrides(base_scenario, electricity_price_rule=rule)
        rows = state_table(dataset, registry, smr_params, sc)
        assert [(r.state, r.pathway, r.lcoh, r.carbon_intensity)
                for r in rows] == row_by_row(dataset, registry, smr_params, sc)

    def test_column_means_equal_national_average(self, dataset, registry,
                                                 smr_params, scenarios):
        for sc in scenarios:
            _, columns = state_columns(
                dataset, lines_of(registry, smr_params, sc), sc)
            rows = state_table(dataset, registry, smr_params, sc)
            for pathway in PATHWAYS:
                assert (analysis.mean_point(pathway, *columns[pathway])
                        == national_average(rows, pathway))

    def test_bad_cell_is_named_for_its_first_state_in_dataset_order(
            self, registry, smr_params, base_scenario):
        # Both states overflow; WA comes first in the file, AK first sorted.
        ds = Dataset(["WA", "AK"], [1e308, 1e308],
                     [3.1, 3.35], [0.09, 0.41])
        with pytest.raises(ValidationError) as err:
            state_columns(ds, lines_of(registry, smr_params, base_scenario),
                          base_scenario)
        assert str(err.value) == ("state WA: WA/Alkaline: metrics must be "
                                  "finite and >= 0")

    def test_column_sum_overflow_alone_is_not_a_bad_cell(self, registry,
                                                         smr_params,
                                                         base_scenario):
        # Every cell is finite, but a column sum is not: no state is named.
        ds = Dataset(["WA", "AK"], [2e306, 2e306],
                     [3.1, 3.35], [0.09, 0.41])
        states, columns = state_columns(
            ds, lines_of(registry, smr_params, base_scenario), base_scenario)
        assert states == ["AK", "WA"]
        assert sum(columns["Alkaline"][0]) == math.inf
        with pytest.raises(ValidationError, match="Alkaline: national average "
                                                  "overflows"):
            analysis.mean_point("Alkaline", *columns["Alkaline"])

    def test_non_finite_metric_is_validation_error(self, registry, smr_params,
                                                   base_scenario):
        # A finite price whose electricity term overflows to inf.
        ds = Dataset(["TX"], [1e308], [1.88], [0.36])
        with pytest.raises(ValidationError, match="state TX: .*finite"):
            state_table(ds, registry, smr_params, base_scenario)

    @pytest.mark.parametrize("lcoh, ci", [(math.inf, 1.0), (1.0, math.inf),
                                          (math.nan, 1.0), (1.0, math.nan),
                                          (-1.0, 1.0)])
    def test_state_result_rejects_bad_metrics(self, lcoh, ci):
        with pytest.raises(ValidationError):
            point("AA", lcoh, ci)


class TestNationalAverage:
    def test_reference_2020_averages(self, dataset, registry, smr_params,
                                     base_scenario):
        rows = state_table(dataset, registry, smr_params, base_scenario)
        assert national_average(rows, "Alkaline")[0] == pytest.approx(4.6, abs=0.5)
        assert national_average(rows, "PEM")[0] == pytest.approx(4.5, abs=0.5)
        assert national_average(rows, "SOEC")[0] == pytest.approx(6.3, abs=0.5)
        assert national_average(rows, "SMR")[0] == pytest.approx(1.0, abs=0.15)

    def test_single_state_is_identity(self, registry, smr_params, base_scenario):
        ds = Dataset(["TX"], [0.0449], [1.88], [0.36])
        rows = state_table(ds, registry, smr_params, base_scenario)
        pem = next(r for r in rows if r.pathway == "PEM")
        assert national_average(rows, "PEM") == (pem.lcoh, pem.carbon_intensity)

    def test_permutation_invariance(self):
        pts = [point(s, lcoh, ci) for s, lcoh, ci in
               [("AA", 1.0, 3.0), ("AB", 2.5, 1.0), ("AC", 4.0, 0.5)]]
        fwd = national_average(pts, "PEM")
        rev = national_average(list(reversed(pts)), "PEM")
        assert fwd[0] == pytest.approx(rev[0], rel=1e-12)
        assert fwd[0] == pytest.approx(sum(p.lcoh for p in pts) / 3, rel=1e-12)

    def test_empty_selection_is_error(self):
        with pytest.raises(ValidationError):
            national_average([], "PEM")


class TestParetoFrontier:
    def test_worked_example(self):
        pts = [point("AA", 1, 1), point("AB", 2, 2), point("AC", 1.5, 0.5)]
        frontier = pareto_frontier(pts)
        assert {(p.lcoh, p.carbon_intensity) for p in frontier} == {(1, 1), (1.5, 0.5)}

    def test_single_point(self):
        pts = [point("AA", 3, 4)]
        assert pareto_frontier(pts) == pts

    def test_reference_membership(self, dataset, registry, smr_params,
                                  base_scenario):
        rows = state_table(dataset, registry, smr_params, base_scenario)
        frontier = pareto_frontier(analysis.electrolysis_results(rows))
        states = {r.state for r in frontier}
        assert "WA" in states and "ID" in states
        assert "MA" not in states and "RI" not in states

    def test_matches_brute_force_oracle(self):
        rng = random.Random(7)
        for trial in range(30):
            n = rng.choice([1, 2, 5, 20, 100, 1000])
            pts = [point(f"S{i}", rng.uniform(0, 10),
                         rng.choice([rng.uniform(0, 10), rng.randrange(4)]))
                   for i in range(n)]
            got = {id(p) for p in pareto_frontier(pts)}
            want = {id(p) for p in brute_force_frontier(pts)}
            assert got == want, f"trial {trial} n={n}"

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    min_size=1, max_size=40))
    def test_matches_brute_force_on_tie_heavy_grids(self, coords):
        pts = [point(f"S{i:02d}", float(c), float(ci))
               for i, (c, ci) in enumerate(coords)]
        got = [id(p) for p in pareto_frontier(pts)]
        want = [id(p) for p in sorted(brute_force_frontier(pts),
                                      key=lambda r: (r.lcoh, r.state))]
        assert got == want

    def test_all_cost_ties_keep_only_min_ci(self):
        rng = random.Random(13)
        pts = [point(a + b, 2.5, float(rng.randrange(5)) + 1.0)
               for a in "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
               for b in "ABCDEFGHIJKLMNOPQRSTUVWXYZ"]
        assert len(pts) == 676
        low = min(p.carbon_intensity for p in pts)
        want = sorted((p for p in pts if p.carbon_intensity == low),
                      key=lambda p: p.state)
        assert want and len(want) < len(pts)
        assert pareto_frontier(pts) == want

    def test_invariant_under_monotone_rescaling(self):
        rng = random.Random(11)
        pts = [point(f"S{i}", rng.uniform(0, 10), rng.uniform(0, 10))
               for i in range(200)]
        base_states = {p.state for p in pareto_frontier(pts)}
        rescaled = [point(p.state, math.exp(p.lcoh / 4), p.carbon_intensity ** 3)
                    for p in pts]
        assert {p.state for p in pareto_frontier(rescaled)} == base_states


class TestColumnFrontier:
    @staticmethod
    def check(states, columns):
        rows = [StateResult(s, p, columns[p][0][i], columns[p][1][i])
                for i, s in enumerate(states) for p in columns]
        want = sorted((r.state, r.pathway, r.lcoh, r.carbon_intensity)
                      for r in pareto_frontier(rows))
        got = column_frontier(states, columns)
        assert got == want
        assert {s for s, *_ in got} == {r.state for r in pareto_frontier(rows)}

    def test_matches_pareto_frontier_on_random_columns(self):
        rng = random.Random(5)
        for n in (1, 2, 7, 50, 676):
            states = [f"S{i:03d}" for i in range(n)]
            columns = {p: ([rng.uniform(1, 8) for _ in states],
                           [rng.choice([rng.uniform(0, 30), float(rng.randrange(4))])
                            for _ in states])
                       for p in ELECTROLYSIS_PATHWAYS}
            self.check(states, columns)

    def test_matches_pareto_frontier_when_everything_ties(self):
        states = [a + b for a in "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                  for b in "ABCDEFGHIJKLMNOPQRSTUVWXYZ"]
        for costs in ((2.5, 2.5, 2.5), (3.0, 2.5, 2.75)):
            columns = {p: ([cost] * len(states), [0.0] * len(states))
                       for p, cost in zip(ELECTROLYSIS_PATHWAYS, costs)}
            self.check(states, columns)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.integers(0, 3), st.integers(0, 3),
                              st.integers(0, 3), st.integers(0, 3)),
                    min_size=1, max_size=30))
    def test_matches_pareto_frontier_on_tie_heavy_columns(self, cells):
        states = [f"S{i:02d}" for i in range(len(cells))]
        columns = {p: ([float(c[2 * k]) for c in cells],
                       [float(c[2 * k + 1]) for c in cells])
                   for k, p in enumerate(ELECTROLYSIS_PATHWAYS)}
        self.check(states, columns)


class TestRankAndCount:
    def test_tie_broken_alphabetically(self):
        pts = [point("ZZ", 1.0, 2.0), point("AA", 1.0, 3.0)]
        assert [p.state for p in rank_states(pts, "lcoh", "PEM")] == ["AA", "ZZ"]

    def test_deterministic(self, dataset, registry, smr_params, base_scenario):
        rows = state_table(dataset, registry, smr_params, base_scenario)
        a = rank_states(rows, "carbon_intensity", "SOEC")
        b = rank_states(list(reversed(rows)), "carbon_intensity", "SOEC")
        assert [p.state for p in a] == [p.state for p in b]

    def test_unknown_metric(self):
        with pytest.raises(ValidationError) as info:
            rank_states([point("AA", 1.0, 2.0)], "cost", "PEM")
        assert str(info.value) == "unknown metric 'cost'"

    def test_descending_metric_reverses_order(self):
        pts = [point(f"S{i}", float(v), 0.0) for i, v in enumerate([3, 1, 2])]
        asc = [p.state for p in rank_states(pts, "lcoh", "PEM")]
        neg = sorted(pts, key=lambda r: (-r.lcoh, r.state))
        assert [p.state for p in neg] == asc[::-1]
