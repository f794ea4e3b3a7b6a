"""Cross-state, cross-technology analytics: result tables, averages,
rankings and the cost-carbon Pareto frontier.

state_columns evaluates model.Line records, one per pathway, in one loop:
each record's LCOH cells (floor and terms added left to right) and CI
cells over the states' inputs, so no pathway has a case of its own here.
It sums each column once. That sum is the column's finite check and the
numerator of its mean, and the JSON report bounds the column by it. No
cell is scanned for its sign: a record whose floor, coefficients and CI
are >= 0 makes cells >= 0 from inputs >= 0.

The frontier keeps the points no other point beats in both cost and CI.
Every exact duplicate of a frontier point is listed with it; a point that
ties a frontier point in one coordinate and loses in the other is not.
column_frontier passes _undominated only each pathway's staircase, which
drops no point that _undominated would keep.
"""

import math
from collections.abc import Iterable, Sequence
from itertools import compress, product

from . import smr
from .errors import ValidationError
from .model import (
    ELECTROLYSIS_PATHWAYS,
    Dataset,
    Line,
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


def state_columns(dataset: Dataset, lines: Sequence[Line], scenario: Scenario
                  ) -> tuple[list[str], dict[str, tuple[list[float], list[float]]],
                             dict[str, tuple[float, float]]]:
    """The state codes sorted; per record of lines, in their order, its
    LCOH and CI lists in that state order (Line.lcohs and Line.cis); and
    per record the sums of those two lists, which mean_point reads.

    The inputs are each state's dataset electricity and gas prices, its
    price paid under the scenario's rule and its grid CI in the scenario's
    target year. The input columns are permuted into sorted state order
    only when the file order is not already that order. Each column is
    summed once, and the sum finds a nan or inf cell. The sign of a cell
    is read from its record: every input is >= 0, so a record whose
    numbers are all >= 0 makes no cell < 0. A record that fails that test
    (only a hand-built one can) has its cells checked one by one. A bad
    cell is reported for its first state in dataset order.
    """
    factor = grid_ci_at(1.0, scenario.grid_trajectory, scenario.target_year)
    states = sorted(dataset.states)
    elec, gas, grid = (dataset.electricity_prices, dataset.gas_prices,
                       dataset.grid_cis)
    if states != list(dataset.states):   # the file order is not sorted
        order = sorted(range(len(states)), key=dataset.states.__getitem__)
        elec, gas, grid = ([column[i] for i in order]
                           for column in (elec, gas, grid))
    prices = effective_electricity_price(elec, scenario.electricity_price_rule)
    inputs = {"paid_price": prices, "electricity_price": elec,
              "gas_price": gas, "one": [1.0] * len(elec)}
    grids = [g * factor for g in grid]
    # A record whose floor and leading terms repeat an evaluated one's (as
    # SMR+CCS repeats SMR) adds its last term to that record's cells: the
    # same sums in the same order. The keys are repr, which tells -0.0 from
    # 0.0; a record of one term finds nothing, as every key holds a term.
    columns, sums, done = {}, {}, {}
    for line in lines:
        *head, (k, source) = line.terms
        cells = done.get(repr((line.floor, *head)))
        cells = done[repr((line.floor, *line.terms))] = (
            line.lcohs(inputs) if cells is None
            else [c + k * x for c, x in zip(cells, inputs[source])])
        columns[line.name] = lcohs, cis = cells, line.cis(grids)
        sums[line.name] = sum(lcohs), sum(cis)
    # The sign test: every input is >= 0 (Dataset's prices are > 0 and its
    # grid CIs >= 0, a rule's value and the grid factor >= 0), and float +
    # and * of values >= 0 give >= 0 or +inf. nan fails it. The sums find
    # an inf or nan cell; a sum overflows on finite cells too, and then no
    # state is named below.
    signed = all(x >= 0.0 for line in lines for x in (
        line.floor, line.ci_slope, line.ci, *(k for k, _ in line.terms)))
    if not (signed and all(total < math.inf for pair in sums.values()
                           for total in pair)):
        row = {state: i for i, state in enumerate(states)}
        for state, pathway in product(dataset.states, columns):
            lcohs, cis = columns[pathway]
            try:
                StateResult(state, pathway, lcohs[row[state]], cis[row[state]])
            except ValidationError as exc:
                raise ValidationError(f"state {state}: {exc}") from exc
    return states, columns, sums


def state_table(dataset: Dataset, registry: Sequence[TechnologyParams],
                smr_params: SmrParams, scenario: Scenario) -> list[StateResult]:
    """state_columns of the registry's records, then SMR's and SMR+CCS's,
    as one StateResult per state x pathway, states sorted."""
    states, columns, _ = state_columns(
        dataset, [lcoh_line(p, scenario) for p in registry]
        + smr.smr_lines(smr_params), scenario)
    return [StateResult(state, pathway, lcohs[i], cis[i])
            for i, state in enumerate(states)
            for pathway, (lcohs, cis) in columns.items()]


def _select(results: Iterable[StateResult], pathway: str) -> list[StateResult]:
    return [r for r in results if r.pathway == pathway]


def mean_point(pathway: str, count: int, cost_sum: float,
               ci_sum: float) -> tuple[float, float]:
    """Unweighted means of one pathway's LCOH and CI cells over count
    states, from the sums of its cells in state order."""
    if not count:
        raise ValidationError(f"no results for pathway {pathway!r}")
    cost, ci = cost_sum / count, ci_sum / count
    if not (cost < math.inf and ci < math.inf):
        raise ValidationError(f"{pathway}: national average overflows the "
                              f"float range")
    return cost, ci


def national_average(results: Iterable[StateResult],
                     pathway: str) -> tuple[float, float]:
    """Unweighted means of (LCOH, carbon intensity) over states."""
    rows = _select(results, pathway)
    return mean_point(pathway, len(rows), sum(r.lcoh for r in rows),
                      sum(r.carbon_intensity for r in rows))


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
    pathway, lcoh, carbon intensity) rows sorted by state and pathway.

    Only each pathway's staircase reaches _undominated: its cells in cost
    order (ties in state order), each kept if no cell before it has less
    CI, up to the first kept cell that costs more than cap, the cost of a
    cell of the least CI of all pathways, lowered to each kept cell of that
    CI. A cell left out is dominated by one that costs no more with less
    CI, or by the cell at cap, which costs less with no more CI;
    _undominated would drop it too. As cap only falls, a cell that costs
    more than cap when its pathway's turn starts never enters a staircase,
    so only the others are sorted, stably, in the same order.
    """
    cols = [(p, *columns[p]) for p in ELECTROLYSIS_PATHWAYS if p in columns]
    clean = min((min(cis) for _, _, cis in cols), default=0.0)
    cap = min((lcohs[cis.index(clean)] for _, lcohs, cis in cols
               if clean in cis), default=0.0)
    points: list[tuple] = []
    for pathway, lcohs, cis in cols:
        best_ci = math.inf
        for i in sorted(compress(range(len(states)), map(cap.__ge__, lcohs)),
                        key=lcohs.__getitem__):
            if cis[i] <= best_ci:
                if lcohs[i] > cap:
                    break
                best_ci = cis[i]
                points.append((lcohs[i], best_ci, states[i], pathway))
                if best_ci == clean:   # later cells cost more, no less CI
                    cap = lcohs[i]
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
