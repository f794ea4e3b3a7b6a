"""An exact oracle for the JSON report: every printed figure recomputed.

Each figure of `lcoh --format json` is recomputed from the model's closed
forms in 60-digit decimal arithmetic on the exact values of the parsed
input floats: Wright's law, the annuity, each technology's LCOH line and
CI, the SMR cost and anchor interpolation, the means and the breakevens.
A figure passes if it is that value correctly rounded to the printed
places or, where the value lies within 4 ulps of a half-way point between
two such decimals, either neighbour: the float pipeline rounds on the way,
so at a near tie it may land on either side. A crossover year passes if
the exact inequality holds in that year and not in the year before.
"""

import json
import math
from decimal import ROUND_FLOOR, ROUND_HALF_EVEN, Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from h2cost.cli import main
from h2cost.ingest import load_config, load_state_profiles, reference_dataset
from h2cost.model import BASE_YEAR, ELECTROLYSIS_PATHWAYS, HOURS_PER_YEAR

EXAMPLE_CONFIG = str(Path(__file__).resolve().parents[1] / "configs"
                     / "example_config.json")
D = Decimal


def exact_line(params, sc):
    """(floor, slope) of a technology's LCOH line under scenario sc."""
    target = sc.cumulative_production_target.get(
        params.name, params.cumulative_production_base)
    doublings = (D(target) / D(params.cumulative_production_base)).ln() / D(2).ln()
    rate = D(params.learning_rate(sc.learning_case))
    unit_cost = D(params.unit_system_cost) * ((1 - rate).ln() * doublings).exp()
    lifetime = (sc.lifetime_override or {}).get(params.name, params.lifetime)
    om = (sc.unit_om_cost_override or {}).get(params.name, params.unit_om_cost)
    hours = D(HOURS_PER_YEAR) * D(sc.capacity_factor)
    years = D(lifetime) * 1000 / hours
    r = D(params.discount_rate)
    annuity = years if r == 0 else (1 - (1 + r) ** -years) / r
    output = D(params.capacity) * hours * annuity / D(params.efficiency)
    return ((unit_cost * D(params.capacity) + D(om) * annuity) / output,
            D(params.efficiency))


def exact_smr_ci(smr_params, with_ccs):
    """The anchor table interpolated at the leakage rate."""
    leak, anchors = smr_params.leakage_rate, smr_params.emissions_anchors
    col = 2 if with_ccs else 1
    for lo, hi in zip(anchors, anchors[1:]):
        if leak <= hi[0]:
            break
    t = (D(leak) - D(lo[0])) / (D(hi[0]) - D(lo[0]))
    return D(lo[col]) + t * (D(hi[col]) - D(lo[col]))


def grid_factor(trajectory, year):
    if trajectory.kind == "constant":
        return D(1)
    zero = trajectory.zero_year
    return max(D(0), D(zero - year) / D(zero - BASE_YEAR))


def crosses(avg_ci, target, zero, year):
    """avg_ci * (zero - year) / (zero - BASE_YEAR) < target, exactly."""
    return avg_ci * (zero - year) < target * (zero - BASE_YEAR)


def undominated(points):
    """The states of the (lcoh, ci, state) points no other point beats in
    one metric without losing in the other."""
    return {s for c, g, s in points
            if not any(c2 <= c and g2 <= g and (c2 < c or g2 < g)
                       for c2, g2, _ in points)}


def exact_report(dataset, registry, smr_params, sc):
    """{(section, ..., field): exact value} for the figures of the report
    of sc, and its frontier states."""
    states = sorted(range(len(dataset.states)), key=dataset.states.__getitem__)
    elec = [D(dataset.electricity_prices[i]) for i in states]
    gas = [D(dataset.gas_prices[i]) for i in states]
    factor = grid_factor(sc.grid_trajectory, sc.target_year)
    grid = [D(dataset.grid_cis[i]) * factor for i in states]
    rule = sc.electricity_price_rule
    prices = (elec if rule.kind == "dataset"
              else [D(rule.value)] * len(elec) if rule.kind == "fixed"
              else [D(rule.value) * p for p in elec])
    lines = {t.name.value: exact_line(t, sc) for t in registry}
    columns = {name: ([floor + slope * p for p in prices],
                      [g * slope for g in grid])
               for name, (floor, slope) in lines.items()}
    smr = [D(smr_params.base_cost) + D(smr_params.gas_sensitivity) * g
           + D(smr_params.electricity_sensitivity) * e
           for g, e in zip(gas, elec)]
    columns["SMR"] = (smr, [exact_smr_ci(smr_params, False)] * len(smr))
    columns["SMR+CCS"] = ([c + D(smr_params.ccs_adder) for c in smr],
                          [exact_smr_ci(smr_params, True)] * len(smr))
    figures = {}
    for pathway, (lcohs, cis) in columns.items():
        for i, k in enumerate(states):
            row = ("rows", dataset.states[k], pathway)
            figures[row + ("lcoh_usd_per_kg",)] = lcohs[i]
            figures[row + ("carbon_intensity_kg_per_kg",)] = cis[i]
        figures[("averages", pathway, "lcoh")] = sum(lcohs) / len(lcohs)
        figures[("averages", pathway, "carbon_intensity")] = sum(cis) / len(cis)
    ccs_mean = figures[("averages", "SMR+CCS", "lcoh")]
    for name, (floor, slope) in lines.items():
        figures[("breakeven", name)] = (None if ccs_mean < floor
                                        else (ccs_mean - floor) / slope)
    frontier = undominated(
        [(c, g, dataset.states[k]) for pathway in ELECTROLYSIS_PATHWAYS
         for c, g, k in zip(*columns[pathway], states)])
    return figures, frontier


def printed_figures(report):
    """{key: printed Decimal} for the keys exact_report uses."""
    summary = report["summary"]
    figures = {("rows", r["state"], r["pathway"], field): r[field]
               for r in report["rows"]
               for field in ("lcoh_usd_per_kg", "carbon_intensity_kg_per_kg")}
    for pathway, point in summary["averages"].items():
        for field, value in point.items():
            figures[("averages", pathway, field)] = value
    for name, price in summary["breakeven_vs_smr_ccs_usd_per_kwh"].items():
        figures[("breakeven", name)] = price
    return figures


def rounds_from(printed, exact, places):
    """printed is exact rounded to places, or at a near tie either
    neighbour."""
    if printed is None or exact is None:
        return printed is exact
    step = D(1).scaleb(-places)
    below = (exact / step).to_integral_value(ROUND_FLOOR) * step
    if abs(exact - (below + step / 2)) <= 4 * D(math.ulp(float(exact))):
        return printed in (below, below + step)
    return printed == exact.quantize(step, ROUND_HALF_EVEN)


def check_report(capsys, argv, dataset, config, name):
    assert main(["lcoh", "--format", "json", "--scenario", name, *argv]) == 0
    report = json.loads(capsys.readouterr().out, parse_float=Decimal)
    registry, smr_params, scenarios = load_config(config)
    sc = next(s for s in scenarios if s.name == name)
    with localcontext() as ctx:
        ctx.prec = 60
        exact, frontier = exact_report(dataset, registry, smr_params, sc)
        printed = printed_figures(report)
        assert printed.keys() == exact.keys()
        wrong = [(key, printed[key], exact[key]) for key in exact
                 if not rounds_from(printed[key], exact[key],
                                    6 if key[0] == "breakeven" else 4)]
        assert wrong == []
        assert set(report["summary"]["frontier_states"]) == frontier
        years = report["summary"]["crossover_years"]
        if sc.grid_trajectory.kind == "constant":
            assert years == {}
            return
        zero = sc.grid_trajectory.zero_year
        avg = (sum(map(D, dataset.grid_cis)) / len(dataset.grid_cis)
               * sum(D(t.efficiency) for t in registry) / len(registry))
        for label, with_ccs in (("SMR", False), ("SMR+CCS", True)):
            target = exact_smr_ci(smr_params, with_ccs)
            year = years[f"avg_electrolysis_vs_{label}"]
            assert crosses(avg, target, zero, year)
            assert year == BASE_YEAR or not crosses(avg, target, zero, year - 1)


@pytest.mark.parametrize("config, name", [
    (None, "base-2020"), (None, "aps-2050"),
    (EXAMPLE_CONFIG, "offpeak-2020"), (EXAMPLE_CONFIG, "nze-2050"),
], ids=["base-2020", "aps-2050", "offpeak-2020", "nze-2050"])
def test_shipped_report_figures_are_exact_values_rounded(capsys, config, name):
    argv = [] if config is None else ["--config", config]
    check_report(capsys, argv, reference_dataset(), config, name)


PRICE_RULES = st.one_of(
    st.just({"kind": "dataset"}),
    st.builds(lambda v: {"kind": "fixed", "value": v}, st.floats(0.0, 0.5)),
    st.builds(lambda v: {"kind": "multiplier", "value": v}, st.floats(0.0, 3.0)))
TRAJECTORIES = st.one_of(
    st.just({"kind": "constant"}),
    st.builds(lambda z: {"kind": "linear_to_zero", "zero_year": z},
              st.integers(2021, 2100)))


# Small datasets under configs that cover every price rule and trajectory.
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.floats(0.005, 0.5), st.floats(0.5, 20.0),
                          st.floats(0.0, 1.5)), min_size=1, max_size=6),
       PRICE_RULES, TRAJECTORIES, st.integers(2020, 2060),
       st.sampled_from(["APS", "NZE"]), st.floats(0.05, 1.0),
       st.floats(1.0, 1e4))
def test_generated_report_figures_are_exact_values_rounded(
        tmp_path, capsys, rows, rule, trajectory, target_year, case,
        capacity_factor, scale):
    dataset = tmp_path / "states.csv"
    dataset.write_text(
        "state,electricity_usd_per_kwh,gas_usd_per_mmbtu,grid_ci_kg_per_kwh\n"
        + "".join(f"A{chr(65 + i)},{e!r},{g!r},{c!r}\n"
                  for i, (e, g, c) in enumerate(rows)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenarios": [{
        "name": "g", "target_year": target_year, "learning_case": case,
        "cumulative_production_target": {"Alkaline": 20000 * scale,
                                         "PEM": 90 * scale, "SOEC": 2 * scale},
        "electricity_price_rule": rule, "capacity_factor": capacity_factor,
        "grid_trajectory": trajectory}]}))
    check_report(capsys, ["--dataset", str(dataset), "--config", str(config)],
                 load_state_profiles(dataset), config, "g")
