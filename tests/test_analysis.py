import math
import random
import string
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

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
    GridTrajectory,
    Line,
    PriceRule,
    Scenario,
    default_scenarios,
    default_smr_params,
    with_overrides,
)
from h2cost.scenario import (
    effective_electricity_price,
    grid_ci_at,
    lcoh_line,
    project_params,
)
from inputs import read_config

EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "example_config.json"
PATHWAYS = ("Alkaline", "PEM", "SOEC", "SMR", "SMR+CCS")
CODES = [a + b for a in string.ascii_uppercase for b in string.ascii_uppercase]


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


# SMR coefficients and dataset cells at the float edges: zeros of both
# signs (a price is > 0), subnormals and values near the largest double.
SMR_EDGES = st.one_of(SMR_COEFFICIENTS, st.just(-0.0), st.just(5e-324))
PRICE_EDGES = st.one_of(st.sampled_from([5e-324, 2.5e-310, 1.7e308,
                                         sys.float_info.max]),
                        st.floats(1e-3, 10.0))
GRID_EDGES = st.one_of(st.just(0.0), PRICE_EDGES)


# Record numbers of either sign, for hand-built records: zeros of both
# signs, small and large magnitudes, and nan for a floor.
SIGNED = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                   st.floats(-10.0, 10.0), st.floats(-1e-300, 1e-300))
SOURCES = st.sampled_from(["paid_price", "electricity_price", "gas_price", "one"])


@st.composite
def signed_lines(draw):
    """One to four hand-built records, any of whose numbers may be < 0."""
    return [Line(f"L{i}", draw(SIGNED | st.just(math.nan)),
                 tuple(draw(st.lists(st.tuples(SIGNED, SOURCES), min_size=1,
                                     max_size=3))),
                 draw(SIGNED), draw(SIGNED))
            for i in range(draw(st.integers(1, 4)))]


def cells_by_state(dataset, lines, sc):
    """Each state's (state, record name, lcoh, ci) in dataset order, then
    record order, each cell evaluated alone from its state's inputs."""
    factor = grid_ci_at(1.0, sc.grid_trajectory, sc.target_year)
    out = []
    for state, elec, gas, grid in zip(dataset.states, dataset.electricity_prices,
                                      dataset.gas_prices, dataset.grid_cis):
        (paid,) = effective_electricity_price([elec], sc.electricity_price_rule)
        inputs = {"paid_price": [paid], "electricity_price": [elec],
                  "gas_price": [gas], "one": [1.0]}
        out += [(state, line.name, *line.lcohs(inputs), *line.cis([grid * factor]))
                for line in lines]
    return out


def bad_cell_message(dataset, lines, sc):
    """state_columns' message for the first cell not finite and >= 0, in
    dataset order, or None if there is none."""
    for state, name, lcoh, ci in cells_by_state(dataset, lines, sc):
        if not (0.0 <= lcoh < math.inf and 0.0 <= ci < math.inf):
            return f"state {state}: {state}/{name}: metrics must be finite and >= 0"
    return None


def point(state, lcoh, ci, pathway="PEM"):
    return StateResult(state=state, pathway=pathway, lcoh=lcoh, carbon_intensity=ci)


def brute_force_frontier(points):
    def dominates(a, b):
        return (a.lcoh <= b.lcoh and a.carbon_intensity <= b.carbon_intensity
                and (a.lcoh, a.carbon_intensity) != (b.lcoh, b.carbon_intensity))

    return [p for p in points if not any(dominates(q, p) for q in points)]


@st.composite
def five_value_columns(draw):
    """(n, [(pathway, lcohs, cis), ...]): n states and some of the five
    pathways, each cell one of five values."""
    n = draw(st.integers(1, 30))
    column = st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0]),
                      min_size=n, max_size=n)
    pathways = draw(st.lists(st.sampled_from(PATHWAYS), unique=True))
    return n, [(p, draw(column), draw(column)) for p in pathways]


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

    @given(SMR_EDGES, SMR_EDGES, SMR_EDGES, SMR_EDGES,
           st.lists(st.tuples(PRICE_EDGES, PRICE_EDGES, GRID_EDGES),
                    min_size=1, max_size=6))
    # An adder folded into the floor would round these cells otherwise.
    @example(2.29, 0.01, 1.34, 2.16, [(0.19, 3.06, 0.0)])
    @example(-0.0, -0.0, 0.0, -0.0, [(5e-324, 1.7e308, 0.0)])
    def test_each_column_is_its_records_lcohs_bit_for_bit(
            self, registry, base_scenario, base, gas_k, elec_k, adder, cells):
        # SMR+CCS is evaluated from SMR's cells; it must read as if its
        # record had been evaluated alone, down to the sign of a zero.
        elec, gas, grid = map(list, zip(*cells))
        ds = Dataset([f"A{chr(65 + i)}" for i in range(len(cells))],
                     elec, gas, grid)
        smr_params = with_overrides(
            default_smr_params(), base_cost=base, gas_sensitivity=gas_k,
            electricity_sensitivity=elec_k, ccs_adder=adder)
        lines = lines_of(registry, smr_params, base_scenario)
        inputs = {"paid_price": elec, "electricity_price": elec,
                  "gas_price": gas, "one": [1.0] * len(elec)}
        want = {line.name: [x.hex() for x in line.lcohs(inputs)]
                for line in lines}
        try:
            _, columns, _ = state_columns(ds, lines, base_scenario)
        except ValidationError:
            assert not all(0.0 <= float.fromhex(x) < math.inf
                           for col in want.values() for x in col) or not all(
                0.0 <= x < math.inf for line in lines for x in line.cis(grid))
            return
        assert {name: [x.hex() for x in lcohs]
                for name, (lcohs, _) in columns.items()} == want

    def test_column_means_equal_national_average(self, dataset, registry,
                                                 smr_params, scenarios):
        for sc in scenarios:
            states, _, sums = state_columns(
                dataset, lines_of(registry, smr_params, sc), sc)
            rows = state_table(dataset, registry, smr_params, sc)
            for pathway in PATHWAYS:
                assert (analysis.mean_point(pathway, len(states), *sums[pathway])
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

    def test_the_file_order_of_the_rows_does_not_change_the_columns(
            self, registry, smr_params, scenarios):
        # Sorted, the file's columns are used as they are; shuffled or
        # reversed, they are permuted first. All three give the same bits.
        rng = random.Random(676)
        rows = [(code, rng.uniform(0.01, 0.2), rng.uniform(1.0, 9.0),
                 rng.choice([0.0, rng.uniform(0.0, 0.9)])) for code in CODES]
        shuffled = rng.sample(rows, len(rows))
        for sc in scenarios:
            lines = lines_of(registry, smr_params, sc)
            got = []
            for order in (rows, shuffled, rows[::-1]):
                states, columns, _ = state_columns(Dataset(*zip(*order)), lines, sc)
                got.append((states, {p: [[x.hex() for x in col] for col in pair]
                                     for p, pair in columns.items()}))
            assert got[0][0] == CODES
            assert got[1] == got[0] and got[2] == got[0]

    def test_a_bad_cell_of_a_shuffled_file_names_its_first_bad_state(
            self, registry, smr_params, base_scenario):
        # ZZ and AA overflow; ZZ comes first in the file, AA first sorted.
        rng = random.Random(34)
        rows = rng.sample([[code, 0.05, 4.5, 0.3] for code in CODES], 676)
        bad = sorted(i for i, row in enumerate(rows) if row[0] in ("AA", "ZZ"))
        rows[bad[0]][0], rows[bad[1]][0] = "ZZ", "AA"
        for i in bad:
            rows[i][1] = 1e308
        with pytest.raises(ValidationError) as err:
            state_columns(Dataset(*zip(*rows)),
                          lines_of(registry, smr_params, base_scenario),
                          base_scenario)
        assert str(err.value) == ("state ZZ: ZZ/Alkaline: metrics must be "
                                  "finite and >= 0")

    def test_column_sum_overflow_alone_is_not_a_bad_cell(self, registry,
                                                         smr_params,
                                                         base_scenario):
        # Every cell is finite, but a column sum is not: no state is named.
        ds = Dataset(["WA", "AK"], [2e306, 2e306],
                     [3.1, 3.35], [0.09, 0.41])
        states, columns, sums = state_columns(
            ds, lines_of(registry, smr_params, base_scenario), base_scenario)
        assert states == ["AK", "WA"]
        assert sum(columns["Alkaline"][0]) == math.inf == sums["Alkaline"][0]
        with pytest.raises(ValidationError, match="Alkaline: national average "
                                                  "overflows"):
            analysis.mean_point("Alkaline", len(states), *sums["Alkaline"])

    # A record that fails the sign test has its cells checked one by one.
    # TX comes first in the file and AK first sorted; both are bad cells,
    # but for the negative slope, which gives TX's zero grid CI -0.0 (>= 0)
    # and names WA, the next state in the file.
    @pytest.mark.parametrize("bad, named", [
        (Line("negative-k", 5.0, ((-10.0, "paid_price"),), 1.0, 0.0), "TX"),
        (Line("nan-floor", math.nan, ((1.0, "paid_price"),), 1.0, 0.0), "TX"),
        (Line("negative-ci", 1.0, ((1.0, "one"),), 0.0, -0.5), "TX"),
        (Line("negative-ci-slope", 1.0, ((1.0, "one"),), -1.0, 0.0), "WA"),
    ])
    def test_a_record_that_fails_the_sign_test_names_its_first_bad_state(
            self, registry, base_scenario, bad, named):
        ds = Dataset(["TX", "WA", "AK"], [0.7, 0.05, 0.9], [1.88, 3.1, 3.35],
                     [0.0, 0.09, 0.41])
        lines = [lcoh_line(registry[0], base_scenario), bad]
        with pytest.raises(ValidationError) as err:
            state_columns(ds, lines, base_scenario)
        assert str(err.value) == (f"state {named}: {named}/{bad.name}: "
                                  f"metrics must be finite and >= 0")
        assert str(err.value) == bad_cell_message(ds, lines, base_scenario)

    def test_a_record_that_fails_the_sign_test_may_still_pass(
            self, base_scenario):
        # A negative coefficient too small to take any cell below zero.
        ds = Dataset(["TX", "WA"], [0.7, 0.05], [1.88, 3.1], [0.0, 0.09])
        line = Line("small-negative-k", 5.0, ((-1e-9, "paid_price"),), -0.0, 2.0)
        states, columns, sums = state_columns(ds, [line], base_scenario)
        assert states == ["TX", "WA"]
        assert columns == {line.name: ([5.0 - 1e-9 * 0.7, 5.0 - 1e-9 * 0.05],
                                       [2.0, 2.0])}
        assert sums == {line.name: (sum(columns[line.name][0]), 4.0)}

    @given(st.lists(st.tuples(PRICE_EDGES, PRICE_EDGES, GRID_EDGES),
                    min_size=1, max_size=6),
           signed_lines(), st.sampled_from(default_scenarios()))
    @example([(0.5, 1.0, 0.2)],
             [Line("L0", 1.0, ((-0.0, "paid_price"),), -0.0, -0.0)],
             default_scenarios()[0])
    def test_accepts_exactly_the_records_whose_cells_are_finite_and_signed(
            self, cells, lines, sc):
        # Over records of either sign, the sign test and its fallback
        # accept what a scan of every cell accepts, and name the same cell.
        ds = Dataset([CODES[i] for i in range(len(cells))], *zip(*cells))
        want = bad_cell_message(ds, lines, sc)
        try:
            states, columns, sums = state_columns(ds, lines, sc)
        except ValidationError as exc:
            assert str(exc) == want
            return
        assert want is None
        got = {(s, name, columns[name][0][i], columns[name][1][i])
               for i, s in enumerate(states) for name in columns}
        assert got == set(cells_by_state(ds, lines, sc))
        assert sums == {name: (sum(lcohs), sum(cis))
                        for name, (lcohs, cis) in columns.items()}

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

    def test_a_zero_ci_grid_cuts_each_staircase_at_its_cheapest_cell(
            self, monkeypatch, dataset, registry, smr_params, scenario_2050):
        # Dataset prices and a grid at zero CI by the target year: every
        # electrolysis cell ties at the least CI, at many costs.
        sc = Scenario(**{**vars(scenario_2050), "name": "zero-grid",
                         "grid_trajectory": GridTrajectory.linear_to_zero(2035)})
        states, columns, _ = state_columns(dataset,
                                           lines_of(registry, smr_params, sc), sc)
        rows = [point(s, columns[p][0][i], columns[p][1][i], p)
                for p in ELECTROLYSIS_PATHWAYS for i, s in enumerate(states)]
        assert {r.carbon_intensity for r in rows} == {0.0}
        assert len({r.lcoh for r in rows}) > len(ELECTROLYSIS_PATHWAYS)
        passed = []
        real = analysis._undominated
        monkeypatch.setattr(analysis, "_undominated",
                            lambda points: passed.append(len(points)) or real(points))
        want = sorted((r.state, r.pathway, r.lcoh, r.carbon_intensity)
                      for r in brute_force_frontier(rows))
        assert column_frontier(states, columns) == want
        # No more than each pathway's cheapest cell reaches _undominated.
        assert passed and passed[0] <= len(ELECTROLYSIS_PATHWAYS)

    # Some of the five pathways, each cell one of five values, so that
    # hypothesis meets every kind of tie; the examples pin them in this
    # order: equal costs within a pathway with CIs in either order,
    # duplicates across pathways, all-equal columns, a cleanest cell whose
    # cost is the staircases' cap, cleanest cells of which the first (whose
    # cost is cap) is not the cheapest, a cell that costs exactly cap, a
    # later pathway whose cells cost between a lowered cap and the first,
    # SMR columns (not electrolysis, so no part of the frontier) and no
    # columns at all.
    @given(five_value_columns())
    @example((3, [("PEM", [1.0, 1.0, 2.0], [2.0, 1.0, 0.0]),
                  ("SOEC", [1.0, 1.0, 2.0], [1.0, 2.0, 0.0])]))
    @example((1, [("PEM", [1.0], [1.0]), ("SOEC", [1.0], [1.0]),
                  ("Alkaline", [1.0], [1.0])]))
    @example((4, [(p, [2.0] * 4, [1.5] * 4) for p in ELECTROLYSIS_PATHWAYS]))
    @example((2, [("Alkaline", [2.0, 1.0], [0.0, 3.0]),
                  ("PEM", [2.0, 2.0], [1.0, 0.0]),
                  ("SOEC", [3.0, 0.0], [0.0, 4.0])]))
    @example((3, [("Alkaline", [1.5, 2.0, 1.5], [1.0, 1.5, 3.0]),
                  ("PEM", [3.0, 1.0, 2.0], [0.0, 0.0, 1.0]),
                  ("SOEC", [1.0, 3.0, 1.0], [1.5, 0.0, 0.0])]))
    @example((3, [("Alkaline", [2.0, 1.0, 2.0], [0.0, 3.0, 0.0]),
                  ("PEM", [2.0, 3.0, 2.0], [1.0, 0.0, 0.0])]))
    @example((2, [("Alkaline", [3.0, 1.0], [0.0, 0.0]),
                  ("PEM", [2.0, 4.0], [0.5, 0.0]),
                  ("SOEC", [1.5, 3.5], [1.0, 0.0])]))
    @example((2, [("SMR", [1.0, 2.0], [3.0, 0.0]),
                  ("SMR+CCS", [0.0, 0.0], [0.0, 0.0])]))
    @example((1, []))
    def test_matches_pareto_frontier_on_tie_heavy_columns(self, drawn):
        n, cols = drawn
        states = [f"S{i:02d}" for i in range(n)]
        columns = {p: (lcohs, cis) for p, lcohs, cis in cols}
        rows = [point(s, lcohs[i], cis[i], p)
                for p, (lcohs, cis) in columns.items()
                if p in ELECTROLYSIS_PATHWAYS for i, s in enumerate(states)]
        want = sorted((r.state, r.pathway, r.lcoh, r.carbon_intensity)
                      for r in brute_force_frontier(rows))
        assert column_frontier(states, columns) == want
        assert want or not rows


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
