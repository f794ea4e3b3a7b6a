"""Cross-state, cross-technology analytics: result tables, averages,
rankings and the cost-carbon Pareto frontier."""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import product, repeat

from . import smr
from .errors import ValidationError
from .model import (
    ELECTROLYSIS_PATHWAYS,
    PATHWAY_SMR,
    PATHWAY_SMR_CCS,
    Dataset,
    Scenario,
    SmrParams,
    TechnologyParams,
)
from .scenario import effective_electricity_price, grid_ci_at, lcoh_line


class StateResult:
    """One (state, pathway) cell of the results grid: lcoh in USD/kg H2,
    carbon_intensity in kg CO2e/kg H2."""

    __slots__ = ("state", "pathway", "lcoh", "carbon_intensity")

    def __init__(self, state: str, pathway: str, lcoh: float,
                 carbon_intensity: float) -> None:
        if not (0.0 <= lcoh < math.inf and 0.0 <= carbon_intensity < math.inf):
            raise ValidationError(
                f"{state}/{pathway}: metrics must be finite and >= 0")
        self.state = state
        self.pathway = pathway
        self.lcoh = lcoh
        self.carbon_intensity = carbon_intensity


def state_columns(dataset: Dataset, lines: Sequence[tuple[str, float, float]],
                  smr_params: SmrParams, scenario: Scenario
                  ) -> tuple[list[str], dict[str, tuple[list[float], list[float]]]]:
    """The state codes sorted, and per pathway (the technologies of lines
    in their order, then SMR and SMR+CCS) its LCOH and CI lists in that
    state order.

    lines are the technologies' scenario.lcoh_line values: each LCOH cell
    is floor + slope * price and each CI cell grid CI * slope. Each column
    is checked once; a bad cell is reported for its first state in dataset
    order.
    """
    smr_ci = smr.smr_emissions(smr_params, with_ccs=False).carbon_intensity
    ccs_ci = smr.smr_emissions(smr_params, with_ccs=True).carbon_intensity
    factor = grid_ci_at(1.0, scenario.grid_trajectory, scenario.target_year)
    order = sorted(range(len(dataset.states)), key=dataset.states.__getitem__)
    states, elec, gas, grid = (
        list(map(column.__getitem__, order)) for column in (
            dataset.states, dataset.electricity_prices, dataset.gas_prices,
            dataset.grid_cis))
    prices = effective_electricity_price(elec, scenario.electricity_price_rule)
    grids = [g * factor for g in grid]
    columns = {name: ([floor + slope * x for x in prices],
                      [g * slope for g in grids])
               for name, floor, slope in lines}
    costs = smr.smr_costs(smr_params, gas, elec)
    columns[PATHWAY_SMR] = (costs, [smr_ci] * len(costs))
    columns[PATHWAY_SMR_CCS] = ([c + smr_params.ccs_adder for c in costs],
                                [ccs_ci] * len(costs))
    # min finds a negative cell and sum a nan or inf one; sum also overflows
    # on finite cells, and then no state is named below.
    if not all(min(col) >= 0.0 and sum(col) < math.inf
               for pair in columns.values() for col in pair):
        row = {state: i for i, state in enumerate(states)}
        for state, pathway in product(dataset.states, columns):
            lcohs, cis = columns[pathway]
            try:
                StateResult(state, pathway, lcohs[row[state]], cis[row[state]])
            except ValidationError as exc:
                raise ValidationError(f"state {state}: {exc}") from exc
    return states, columns


def state_table(dataset: Dataset, registry: Sequence[TechnologyParams],
                smr_params: SmrParams, scenario: Scenario) -> list[StateResult]:
    """state_columns as one StateResult per state x pathway, states sorted."""
    states, columns = state_columns(
        dataset, [lcoh_line(p, scenario) for p in registry], smr_params,
        scenario)
    return [StateResult(state, pathway, lcohs[i], cis[i])
            for i, state in enumerate(states)
            for pathway, (lcohs, cis) in columns.items()]


def _select(results: Iterable[StateResult], pathway: str) -> list[StateResult]:
    return [r for r in results if r.pathway == pathway]


def mean_point(pathway: str, lcohs: Sequence[float],
               cis: Sequence[float]) -> tuple[float, float]:
    """Unweighted means of one pathway's LCOH and CI cells, in given order."""
    if not lcohs:
        raise ValidationError(f"no results for pathway {pathway!r}")
    cost, ci = sum(lcohs) / len(lcohs), sum(cis) / len(cis)
    if not (cost < math.inf and ci < math.inf):
        raise ValidationError(f"{pathway}: national average overflows the "
                              f"float range")
    return cost, ci


def national_average(results: Iterable[StateResult],
                     pathway: str) -> tuple[float, float]:
    """Unweighted means of (LCOH, carbon intensity) over states."""
    rows = _select(results, pathway)
    return mean_point(pathway, [r.lcoh for r in rows],
                      [r.carbon_intensity for r in rows])


def _undominated(points: list[tuple]) -> list[tuple]:
    """The (lcoh, carbon intensity, ...) tuples no other point beats in both,
    in sorted order: in that order a point is undominated iff its CI is below
    all earlier CIs or it ties the last undominated point on both."""
    frontier: list[tuple] = []
    best_ci = math.inf
    for point in sorted(points):
        if point[1] < best_ci or (point[1] == best_ci
                                  and point[0] == frontier[-1][0]):
            frontier.append(point)
            best_ci = point[1]
    return frontier


def pareto_frontier(results: Sequence[StateResult]) -> list[StateResult]:
    """Points not dominated in (LCOH, carbon intensity), minimizing both,
    ordered by (lcoh, carbon_intensity, state, pathway)."""
    return [results[p[4]] for p in _undominated(
        [(r.lcoh, r.carbon_intensity, r.state, r.pathway, i)
         for i, r in enumerate(results)])]


def column_frontier(states: Sequence[str], columns: dict
                    ) -> list[tuple[str, str, float, float]]:
    """pareto_frontier of state_columns' electrolysis cells, as (state,
    pathway, lcoh, carbon intensity) rows sorted by state and pathway."""
    points: list[tuple] = []
    for pathway, (lcohs, cis) in columns.items():
        if pathway in ELECTROLYSIS_PATHWAYS:
            points += zip(lcohs, cis, states, repeat(pathway))
    return sorted((s, p, cost, ci) for cost, ci, s, p in _undominated(points))


def rank_states(results: Iterable[StateResult], metric: str,
                pathway: str) -> list[StateResult]:
    """Ascending stable sort by a metric; ties broken by state code."""
    if metric not in ("lcoh", "carbon_intensity"):
        raise ValidationError(f"unknown metric {metric!r}")
    rows = _select(results, pathway)
    return sorted(rows, key=lambda r: (getattr(r, metric), r.state))


def electrolysis_results(results: Iterable[StateResult]) -> list[StateResult]:
    """Just the electrolysis pathway rows (frontier input in the figures)."""
    return [r for r in results if r.pathway in ELECTROLYSIS_PATHWAYS]
