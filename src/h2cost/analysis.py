"""Cross-state, cross-technology analytics: result tables, averages,
rankings, threshold counts and the cost-carbon Pareto frontier."""

from __future__ import annotations

import math
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Sequence

from . import electrolysis, smr
from .errors import DomainError, H2CostError, ValidationError
from .ingest import Dataset
from .model import (
    ELECTROLYSIS_PATHWAYS,
    PATHWAY_SMR,
    PATHWAY_SMR_CCS,
    Scenario,
    SmrParams,
    TechnologyParams,
)
from .scenario import effective_electricity_price, grid_ci_at, project_params


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


def state_table(dataset: Dataset, registry: Sequence[TechnologyParams],
                smr_params: SmrParams, scenario: Scenario) -> list[StateResult]:
    """One StateResult per state x pathway under a scenario.

    Pathways: the three electrolysis technologies plus SMR and SMR+CCS.
    Electrolysis LCOH is affine in the electricity price with slope equal
    to the efficiency (kWh/kg), and carbon intensity is grid CI times the
    same slope, so each technology's line is evaluated once and every row
    is a multiply and an add. SMR emissions depend only on the leakage
    assumption, not the state.
    """
    lines = []
    for p in registry:
        tech = project_params(p, scenario)
        floor = electrolysis.lcoh(tech, 0.0, scenario.capacity_factor).lcoh
        lines.append((tech.name.value, floor, tech.efficiency))
    smr_ci = smr.smr_emissions(smr_params, with_ccs=False).carbon_intensity
    ccs_ci = smr.smr_emissions(smr_params, with_ccs=True).carbon_intensity
    results: list[StateResult] = []
    for profile in dataset.profiles:
        state = profile.state
        try:
            price = effective_electricity_price(
                profile, scenario.electricity_price_rule)
            if price < 0.0:
                raise DomainError("electricity price must be >= 0")
            grid_ci = grid_ci_at(profile.grid_carbon_intensity,
                                 scenario.grid_trajectory,
                                 dataset.vintage_year, scenario.target_year)
            if grid_ci < 0.0:
                raise DomainError("grid carbon intensity must be >= 0")
            for pathway, floor, slope in lines:
                results.append(StateResult(
                    state=state, pathway=pathway, lcoh=floor + slope * price,
                    carbon_intensity=grid_ci * slope))
            results.append(StateResult(
                state=state, pathway=PATHWAY_SMR,
                lcoh=smr.smr_lcoh(smr_params, profile, with_ccs=False),
                carbon_intensity=smr_ci))
            results.append(StateResult(
                state=state, pathway=PATHWAY_SMR_CCS,
                lcoh=smr.smr_lcoh(smr_params, profile, with_ccs=True),
                carbon_intensity=ccs_ci))
        except H2CostError as exc:
            raise type(exc)(f"state {state}: {exc}") from exc
    return results


def _select(results: Iterable[StateResult], pathway: str) -> list[StateResult]:
    return [r for r in results if r.pathway == pathway]


def national_average(results: Iterable[StateResult],
                     pathway: str) -> tuple[float, float]:
    """Unweighted means of (LCOH, carbon intensity) over states."""
    rows = _select(results, pathway)
    if not rows:
        raise ValidationError(f"no results for pathway {pathway!r}")
    n = len(rows)
    cost = sum(r.lcoh for r in rows) / n
    ci = sum(r.carbon_intensity for r in rows) / n
    if not (cost < math.inf and ci < math.inf):
        raise ValidationError(f"{pathway}: national average overflows the "
                              f"float range")
    return cost, ci


def pareto_frontier(results: Sequence[StateResult]) -> list[StateResult]:
    """Points not dominated in (LCOH, carbon intensity), minimizing both.

    Sort by cost then sweep over blocks of equal cost: within a block only
    the minimum-CI points are undominated, and they join the frontier iff
    that minimum beats the best carbon intensity of all cheaper points.
    """
    order = sorted(results, key=lambda r: (r.lcoh, r.carbon_intensity,
                                           r.state, r.pathway))
    frontier: list[StateResult] = []
    best_ci = math.inf
    for _, group in groupby(order, key=attrgetter("lcoh")):
        block = list(group)
        block_best = block[0].carbon_intensity
        if block_best < best_ci:
            frontier += [r for r in block if r.carbon_intensity == block_best]
            best_ci = block_best
    return frontier


def rank_states(results: Iterable[StateResult], metric: str,
                pathway: str) -> list[StateResult]:
    """Ascending stable sort by a metric; ties broken by state code."""
    if metric not in ("lcoh", "carbon_intensity"):
        raise ValidationError(f"unknown metric {metric!r}")
    rows = _select(results, pathway)
    return sorted(rows, key=lambda r: (getattr(r, metric), r.state))


def count_below(results: Iterable[StateResult], pathway: str,
                threshold_ci: float) -> int:
    """Number of states whose pathway carbon intensity is below threshold."""
    return sum(1 for r in _select(results, pathway)
               if r.carbon_intensity < threshold_ci)


def electrolysis_results(results: Iterable[StateResult]) -> list[StateResult]:
    """Just the electrolysis pathway rows (frontier input in the figures)."""
    return [r for r in results if r.pathway in ELECTROLYSIS_PATHWAYS]
