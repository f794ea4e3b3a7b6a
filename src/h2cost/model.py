"""Domain types and the built-in technology registry.

The configuration types (TechnologyParams, SmrParams, PriceRule,
GridTrajectory, Scenario) are plain classes, far cheaper to define at
import than generated dataclass code. They keep their fields in the
instance __dict__ and, like the slotted StateEnergyProfile, compare and
hash by value and show their fields in repr (_Value). TechnologyParams,
SmrParams and Scenario are built by keyword only, through _Value's one
constructor: a type names its fields once, in _fields, the optional ones
with their values in _defaults (only Scenario has any), and its checks
in _check. PriceRule and GridTrajectory keep their two-argument
positional constructors: a rule is built for every scenario, and the
shared constructor would cost more than the one line it saves on each.
with_overrides copies any of the five through its constructor; SmrParams
is read-only, and dataclasses.replace copies it too. Line, slotted and
compared by value too, is the one record of a pathway, electrolysis or
SMR: LCOH floor + k1 * x1 + k2 * x2 + ... over a state's inputs, added
left to right so that each pathway keeps the float order of its closed
form, and CI ci_slope * grid CI or a constant. scenario.lcoh_line builds it for a
projected technology without building the projected TechnologyParams,
and smr.smr_line for SMR with and without capture. The other slotted
types (Dataset, LcohBreakdown, EmissionsResult, and
finance.AnnuityFactor and analysis.StateResult next to the code that
builds them) compare by identity and have no field repr. Every
constructor enforces the invariants (Line's builders pass it checked
values), so any instance that exists is valid; Dataset has one
constructor, over columns, and checks its own rows. BASE_YEAR, the year
of the state data, is written only here; GridTrajectory rejects a zero
year at or before it, and Scenario a target year before it. A check
formats its ValidationError message only when it fails. _first_repeat,
one pass, names a repeated state code here and a repeated JSON key or
scenario name in ingest. Nothing here reads a file: ingest parses, and
the compute modules import no parser.
"""

import math
from collections.abc import Mapping, Sequence
from enum import Enum

from .errors import DomainError, ValidationError

HOURS_PER_YEAR = 8760.0
BASE_YEAR = 2020  # of the state data; projections and trajectories start here


class Technology(str, Enum):
    """Electrolysis technology identifiers (closed enumeration)."""

    ALKALINE = "Alkaline"
    PEM = "PEM"
    SOEC = "SOEC"


class LearningCase(str, Enum):
    """Which learning-rate column a projection scenario uses."""

    APS = "APS"
    NZE = "NZE"


# The electrolysis pathway labels of result tables: the Technology values.
ELECTROLYSIS_PATHWAYS = tuple(t.value for t in Technology)


class _Value:
    """Value __eq__, __hash__ and a field __repr__ over the names in _fields,
    and the keyword constructor of TechnologyParams, SmrParams and Scenario
    (the other subclasses define their own __init__).

    The constructor puts each name of _fields, given or left out and in
    _defaults, into the instance __dict__ (not through __setattr__), and
    then the type's _check validates the fields and normalizes them in
    place. A TypeError names every unknown or missing field; a positional
    argument is Python's own TypeError. _names, the set of _fields, makes
    the check one comparison with no set built.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        cls._names = frozenset(cls._fields)

    def __init__(self, **values) -> None:
        values = {**self._defaults, **values}
        if values.keys() != self._names:
            unknown = [name for name in values if name not in self._fields]
            missing = [name for name in self._fields if name not in values]
            raise TypeError(f"{type(self).__name__}: unknown fields {unknown}, "
                            f"missing fields {missing}")
        vars(self).update(values)
        self._check()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields))


class TechnologyParams(_Value):
    """Economic and physical parameters of one electrolysis technology.

    Units: cumulative_production_base MW, capacity kW, lifetime in
    thousands of operating hours, efficiency kWh per kg H2, unit_system_cost
    USD/kW, unit_om_cost USD/yr. Rates are dimensionless fractions.
    """

    _fields = ("name", "learning_rate_aps", "learning_rate_nze",
               "cumulative_production_base", "capacity", "lifetime",
               "efficiency", "unit_system_cost", "unit_om_cost",
               "discount_rate")

    def _check(self) -> None:
        tech = self.name.value
        # The rate bounds below also reject NaN and infinity; these do not.
        for attr in ("cumulative_production_base", "capacity", "lifetime",
                     "efficiency", "unit_system_cost", "unit_om_cost"):
            v = getattr(self, attr)
            if not math.isfinite(v):
                raise ValidationError(f"{tech}: {attr} must be finite, got {v}")
        for attr in ("learning_rate_aps", "learning_rate_nze"):
            v = getattr(self, attr)
            if not 0.0 < v < 1.0:
                raise ValidationError(f"{tech}: {attr} must be in (0, 1), got {v}")
        # Unit costs and the discount rate may be zero: scenario projections
        # drive O&M to zero and the zero-discount limit is meaningful.
        if not 0.0 <= self.discount_rate < 1.0:
            raise ValidationError(f"{tech}: discount_rate must be in [0, 1), "
                                  f"got {self.discount_rate}")
        for attr in ("unit_system_cost", "unit_om_cost"):
            if not getattr(self, attr) >= 0.0:
                raise ValidationError(f"{tech}: {attr} must be >= 0")
        for attr in ("cumulative_production_base", "capacity", "lifetime", "efficiency"):
            if not getattr(self, attr) > 0.0:
                raise ValidationError(f"{tech}: {attr} must be > 0")

    def learning_rate(self, case: LearningCase) -> float:
        return self.learning_rate_aps if case is LearningCase.APS else self.learning_rate_nze


def check_profile(state: str, electricity_price: float, gas_price: float,
                  grid_carbon_intensity: float) -> None:
    """ValidationError unless the values make a valid StateEnergyProfile;
    a message is formatted only on the path that raises."""
    if not (len(state) == 2 and state.isascii() and state.isalpha()
            and state.isupper()):
        raise ValidationError(
            f"state code must be a two-letter postal code, got {state!r}")
    if not (0.0 < electricity_price < math.inf
            and 0.0 < gas_price < math.inf
            and 0.0 <= grid_carbon_intensity < math.inf):
        for attr, v in (("electricity_price", electricity_price),
                        ("gas_price", gas_price),
                        ("grid_carbon_intensity", grid_carbon_intensity)):
            if not math.isfinite(v):
                raise ValidationError(
                    f"state {state}: {attr} must be finite, got {v}")
        for attr, v in (("electricity_price", electricity_price),
                        ("gas_price", gas_price)):
            if not v > 0.0:
                raise ValidationError(f"{state}: {attr} must be > 0")
        if not grid_carbon_intensity >= 0.0:
            raise ValidationError(f"{state}: grid_carbon_intensity must be >= 0")


def _columns_ok(states: Sequence[str], electricity_prices: Sequence[float],
                gas_prices: Sequence[float],
                grid_carbon_intensities: Sequence[float]) -> bool:
    """True if check_profile passes every row, tested a column at a time.

    False also on some valid rows (no rows, a sum that overflows on finite
    values): check those row by row. min finds a value below its bound and
    sum a nan or inf one.
    """
    codes = "".join(states)
    return (set(map(len, states)) == {2} and codes.isascii()
            and codes.isalpha() and codes.isupper()
            and 0.0 < min(electricity_prices)
            and sum(electricity_prices) < math.inf
            and 0.0 < min(gas_prices) and sum(gas_prices) < math.inf
            and 0.0 <= min(grid_carbon_intensities)
            and sum(grid_carbon_intensities) < math.inf)


class StateEnergyProfile(_Value):
    """One state's industrial energy prices and grid carbon intensity.

    Units: electricity_price USD/kWh, gas_price USD/MMBtu,
    grid_carbon_intensity kg CO2e/kWh.
    """

    __slots__ = _fields = ("state", "electricity_price", "gas_price",
                           "grid_carbon_intensity")

    def __init__(self, state: str, electricity_price: float, gas_price: float,
                 grid_carbon_intensity: float) -> None:
        values = (state, electricity_price, gas_price, grid_carbon_intensity)
        check_profile(*values)
        for attr, v in zip(self.__slots__, values):
            setattr(self, attr, v)


def _first_repeat(items):
    """The first item that equals an earlier one, or None; one pass."""
    seen = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)
    return None


class Dataset:
    """The BASE_YEAR states as four tuples in file order: the state codes,
    electricity prices (USD/kWh), gas prices (USD/MMBtu) and grid carbon
    intensities (kg CO2e/kWh). The constructor checks each row as
    StateEnergyProfile does, rejects no rows and a repeated state, and
    stores a grid CI of -0.0 as 0.0. The package never mutates a Dataset."""

    __slots__ = ("states", "electricity_prices", "gas_prices", "grid_cis")

    def __init__(self, states: Sequence[str], electricity_prices: Sequence[float],
                 gas_prices: Sequence[float], grid_cis: Sequence[float]) -> None:
        columns = states, elec, gas, ci = tuple(map(tuple, (
            states, electricity_prices, gas_prices, grid_cis)))
        if not states or set(map(len, columns)) != {len(states)}:
            raise ValidationError("dataset needs one or more states and one "
                                  "value per state in each column")
        if not _columns_ok(*columns):
            for row in zip(*columns):
                check_profile(*row)
        if len(set(states)) < len(states):
            raise ValidationError(f"duplicate state code {_first_repeat(states)}")
        self.states, self.electricity_prices, self.gas_prices = states, elec, gas
        self.grid_cis = tuple(map(abs, ci)) if 0.0 in ci else ci

    @property
    def profiles(self) -> tuple[StateEnergyProfile, ...]:
        """The rows as StateEnergyProfiles, in file order."""
        return tuple(map(StateEnergyProfile, self.states,
                         self.electricity_prices, self.gas_prices,
                         self.grid_cis))


class LcohBreakdown:
    """Discounted lifetime costs, hydrogen output, and the resulting $/kg.

    Units: the three costs USD, hydrogen_production kg H2, lcoh USD/kg H2.
    """

    __slots__ = ("capital_cost", "om_cost", "electricity_cost",
                 "hydrogen_production", "lcoh")

    def __init__(self, capital_cost: float, om_cost: float,
                 electricity_cost: float, hydrogen_production: float,
                 lcoh: float) -> None:
        for attr, v in zip(self.__slots__, (capital_cost, om_cost,
                                            electricity_cost,
                                            hydrogen_production, lcoh)):
            if not v >= 0.0:
                raise ValidationError(f"{attr} must be >= 0")
            setattr(self, attr, v)

    @property
    def total_cost(self) -> float:
        return self.capital_cost + self.om_cost + self.electricity_cost


class EmissionsResult:
    """Carbon intensity of one production pathway, kg CO2e per kg H2."""

    __slots__ = ("carbon_intensity",)

    def __init__(self, carbon_intensity: float) -> None:
        if carbon_intensity < 0.0:
            raise DomainError("carbon intensity must be >= 0")
        self.carbon_intensity = carbon_intensity


class Line(_Value):
    """One pathway's LCOH and carbon intensity as affine forms in a state's
    inputs: the record every pathway of a report is computed from.

    terms are (coefficient, input) pairs, each input a column of inputs:
    "paid_price" (USD/kWh under the scenario's price rule),
    "electricity_price" (the dataset's USD/kWh), "gas_price" (USD/MMBtu)
    and "one" (the constant 1.0). A state's LCOH is floor + k1 * x1 +
    k2 * x2 + ..., added left to right, so a term after another is never
    folded into the floor. Its CI is ci_slope * grid CI, or the constant ci
    when ci_slope is 0. The builders (scenario.lcoh_line, smr.smr_line) pass
    checked values, so the record checks nothing.
    """

    __slots__ = _fields = ("name", "floor", "terms", "ci_slope", "ci")

    def __init__(self, name: str, floor: float, terms: tuple,
                 ci_slope: float, ci: float) -> None:
        self.name, self.floor, self.terms = name, floor, terms
        self.ci_slope, self.ci = ci_slope, ci

    def lcohs(self, inputs: Mapping[str, Sequence[float]]) -> list[float]:
        """The LCOH of each state, one pass per term over the columns."""
        (k, source), *rest = self.terms
        floor = self.floor
        cells = [floor + k * x for x in inputs[source]]
        for k, source in rest:
            cells = [c + k * x for c, x in zip(cells, inputs[source])]
        return cells

    def cis(self, grids: Sequence[float]) -> list[float]:
        """The CI of each state from its grid CI (kg CO2e/kWh)."""
        slope = self.ci_slope
        return [g * slope for g in grids] if slope else [self.ci] * len(grids)


class _DataclassFields:
    """The __dataclass_fields__ of a _Value class, built on first read and
    then stored on the class: dataclasses.replace, fields, is_dataclass and
    asdict work on it, and only their callers import dataclasses."""

    def __get__(self, obj, cls):
        import dataclasses

        fields = dataclasses.make_dataclass(cls.__name__,
                                            cls._fields).__dataclass_fields__
        cls.__dataclass_fields__ = fields
        return fields


class SmrParams(_Value):
    """Affine SMR cost surrogate (USD/kg H2, and USD/kg per USD/MMBtu of gas
    and per USD/kWh) plus the leakage emissions anchor table: rows of
    (methane leakage fraction, kg CO2e/kg H2 without CCS, with 90% CCS),
    strictly increasing in leakage, whose range holds the leakage rate."""

    _fields = ("base_cost", "gas_sensitivity", "electricity_sensitivity",
               "ccs_adder", "emissions_anchors", "leakage_rate")
    __dataclass_fields__ = _DataclassFields()

    def _check(self) -> None:
        for attr in ("base_cost", "gas_sensitivity", "electricity_sensitivity",
                     "ccs_adder", "leakage_rate"):
            v = getattr(self, attr)
            if not math.isfinite(v):
                raise ValidationError(f"{attr} must be finite, got {v}")
        for attr in ("base_cost", "ccs_adder", "gas_sensitivity",
                     "electricity_sensitivity"):
            if not getattr(self, attr) >= 0.0:
                raise ValidationError(f"{attr} must be >= 0")
        # In the __dict__: SmrParams refuses setattr.
        anchors = vars(self)["emissions_anchors"] = tuple(
            tuple(a) for a in self.emissions_anchors)
        if len(anchors) < 2:
            raise ValidationError("need at least 2 emissions anchors")
        if not all(len(a) == 3 for a in anchors):
            raise ValidationError("each anchor must be (leakage, ci_no_ccs, ci_ccs)")
        if not all(math.isfinite(x) for a in anchors for x in a):
            raise ValidationError("emissions anchors must be finite")
        if not all(a[1] >= 0.0 and a[2] >= 0.0 for a in anchors):
            raise ValidationError("emissions_anchors carbon intensities must be >= 0")
        leaks = [a[0] for a in anchors]
        if not all(x < y for x, y in zip(leaks, leaks[1:])):
            raise ValidationError("anchor leakage values must be strictly increasing")
        if not self.leakage_rate >= 0.0:
            raise ValidationError("leakage_rate must be >= 0")
        if not leaks[0] <= self.leakage_rate <= leaks[-1]:  # no extrapolation
            raise ValidationError(f"leakage rate {self.leakage_rate} outside "
                                  f"anchor range [{leaks[0]}, {leaks[-1]}]")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PriceRule(_Value):
    """How a scenario maps a state's dataset electricity price to the price
    actually paid: pass through, fix a value, or scale by a multiplier."""

    _fields = ("kind", "value")
    KINDS = ("dataset", "fixed", "multiplier")

    def __init__(self, kind: str, value: float | None = None) -> None:
        self.kind = kind  # "dataset" | "fixed" | "multiplier"
        self.value = value
        if kind not in self.KINDS:
            raise ValidationError(f"unknown price rule kind {kind!r}")
        if kind == "dataset":
            if value is not None:
                raise ValidationError("dataset price rule takes no value")
        elif not (value is not None and 0.0 <= value < math.inf):
            raise ValidationError(f"{kind} price rule needs a finite value >= 0")


class GridTrajectory(_Value):
    """Grid carbon intensity through time: constant, or linear from its
    BASE_YEAR value to zero by zero_year, a year after BASE_YEAR."""

    _fields = ("kind", "zero_year")
    KINDS = ("constant", "linear_to_zero")

    def __init__(self, kind: str, zero_year: int | None = None) -> None:
        self.kind = kind  # "constant" | "linear_to_zero"
        self.zero_year = zero_year
        if kind not in self.KINDS:
            raise ValidationError(f"unknown trajectory kind {kind!r}")
        if kind == "linear_to_zero":
            if zero_year is None:
                raise ValidationError("linear_to_zero needs zero_year")
            if not zero_year > BASE_YEAR:
                raise ValidationError(
                    f"zero_year must be after base year {BASE_YEAR}")
        elif zero_year is not None:
            raise ValidationError("constant trajectory takes no zero_year")

    @classmethod
    def linear_to_zero(cls, zero_year: int) -> "GridTrajectory":
        return cls("linear_to_zero", zero_year)


class Scenario(_Value):
    """A named projection case: target year (BASE_YEAR or later), learning
    assumptions, price rule, capacity factor and grid trajectory.

    cumulative_production_target maps each technology to its assumed
    installed capacity (MW) at target_year. lifetime_override (thousand
    hours) and unit_om_cost_override (USD/yr) optionally replace the base
    values during projection; the shipped 2050 scenario uses them to make
    fixed costs negligible. The maps are stored as copies. A rule or
    trajectory left out is a new PriceRule("dataset") or
    GridTrajectory("constant").
    """

    _fields = ("name", "target_year", "learning_case",
               "cumulative_production_target", "electricity_price_rule",
               "capacity_factor", "grid_trajectory", "lifetime_override",
               "unit_om_cost_override")

    _defaults = {"electricity_price_rule": None, "capacity_factor": 1.0,
                 "grid_trajectory": None, "lifetime_override": None,
                 "unit_om_cost_override": None}

    def _check(self) -> None:
        self.cumulative_production_target = dict(self.cumulative_production_target)
        self.electricity_price_rule = (self.electricity_price_rule
                                       or PriceRule("dataset"))
        self.grid_trajectory = self.grid_trajectory or GridTrajectory("constant")
        for attr in ("lifetime_override", "unit_om_cost_override"):
            if getattr(self, attr) is not None:
                setattr(self, attr, dict(getattr(self, attr)))
        if not self.name:
            raise ValidationError("scenario needs a name")
        if not 0.0 < self.capacity_factor <= 1.0:
            raise ValidationError(f"{self.name}: capacity_factor must be in "
                                  f"(0, 1], got {self.capacity_factor}")
        for tech, mw in self.cumulative_production_target.items():
            if not 0.0 < mw < math.inf:
                raise ValidationError(f"{self.name}: cumulative target for "
                                      f"{tech.value} must be finite and > 0")
        for tech, khr in (self.lifetime_override or {}).items():
            if not 0.0 < khr < math.inf:
                raise ValidationError(f"{self.name}: lifetime override for "
                                      f"{tech.value} must be finite and > 0")
        for tech, om in (self.unit_om_cost_override or {}).items():
            if not 0.0 <= om < math.inf:
                raise ValidationError(f"{self.name}: O&M override for "
                                      f"{tech.value} must be finite and >= 0")
        if not self.target_year >= BASE_YEAR:
            raise ValidationError(f"{self.name}: target_year {self.target_year} "
                                  f"before base year {BASE_YEAR}")

    def validate_against(self, registry: Sequence[TechnologyParams]) -> None:
        """The check that needs the registry: no cumulative target below the
        technology's BASE_YEAR cumulative production."""
        by_name = {p.name: p for p in registry}
        for tech, mw in self.cumulative_production_target.items():
            base = by_name[tech].cumulative_production_base
            if not mw >= base:
                raise ValidationError(
                    f"{self.name}: cumulative target {mw} MW for "
                    f"{tech.value} below {BASE_YEAR} base {base} MW")


# The fields of each built-in TechnologyParams but its name, and of the
# built-in SmrParams: a config's overrides are merged into them.
_TECHNOLOGY_DEFAULTS = {
    Technology.ALKALINE: dict(
        learning_rate_aps=0.145, learning_rate_nze=0.140,
        cumulative_production_base=20_000.0, capacity=10_000.0,
        lifetime=60.0, efficiency=56.0,
        unit_system_cost=750.0, unit_om_cost=1_800.0, discount_rate=0.07),
    Technology.PEM: dict(
        learning_rate_aps=0.140, learning_rate_nze=0.135,
        cumulative_production_base=90.0, capacity=10_000.0,
        lifetime=75.0, efficiency=51.0,
        unit_system_cost=1_200.0, unit_om_cost=1_500.0, discount_rate=0.07),
    Technology.SOEC: dict(
        learning_rate_aps=0.105, learning_rate_nze=0.100,
        cumulative_production_base=2.0, capacity=1_000.0,
        lifetime=40.0, efficiency=44.0,
        unit_system_cost=2_500.0, unit_om_cost=20_000.0, discount_rate=0.07),
}
_SMR_DEFAULTS = dict(
    base_cost=0.32, gas_sensitivity=0.16, electricity_sensitivity=0.03,
    ccs_adder=0.4,
    emissions_anchors=((0.002, 10.0, 2.6), (0.015, 11.4, 3.8), (0.080, 17.9, 10.3)),
    leakage_rate=0.030,
)


def default_registry() -> list[TechnologyParams]:
    """The built-in technology parameter set (IRENA/IEA/company data)."""
    return [TechnologyParams(name=name, **fields)
            for name, fields in _TECHNOLOGY_DEFAULTS.items()]


def default_smr_params() -> SmrParams:
    """Surrogate SMR cost coefficients and the leakage emissions table.

    The cost coefficients are a calibrated affine stand-in for the NREL H2A
    model (only gas and electricity prices vary in this analysis), chosen so
    the reference-dataset mean lands near $1/kg without CCS. The anchor rows
    sit at the 0.2%/1.5%/8% leakage rates of the underlying LCA study;
    interpolating at the default 3.0% leakage gives 12.9 (no CCS) and
    5.3 (90% CCS) kg CO2e per kg H2.
    """
    return SmrParams(**_SMR_DEFAULTS)


def default_scenarios() -> list[Scenario]:
    """The two shipped scenarios: the 2020 snapshot and the 2050 projection.

    The 2050 cumulative-production targets, doubled lifetimes and zeroed O&M
    are calibration values (documented in the README), not measured data:
    they are set so the projected national averages land on the published
    2050 cost benchmarks with fixed costs near zero.
    """
    base_targets = {Technology.ALKALINE: 20_000.0, Technology.PEM: 90.0,
                    Technology.SOEC: 2.0}
    return [
        Scenario(
            name="base-2020",
            target_year=2020,
            learning_case=LearningCase.APS,
            cumulative_production_target=base_targets,
        ),
        Scenario(
            name="aps-2050",
            target_year=2050,
            learning_case=LearningCase.APS,
            cumulative_production_target={
                Technology.ALKALINE: 1.3e9,
                Technology.PEM: 8.0e4,
                Technology.SOEC: 4.0e7,
            },
            lifetime_override={Technology.ALKALINE: 120.0, Technology.PEM: 150.0,
                               Technology.SOEC: 80.0},
            unit_om_cost_override={t: 0.0 for t in Technology},
        ),
    ]


def with_overrides(params, **changes):
    """A copy of a config type's instance (TechnologyParams, SmrParams,
    PriceRule, GridTrajectory, Scenario) with fields replaced, built by its
    constructor: it re-validates, and a non-field is a TypeError."""
    return type(params)(**{**vars(params), **changes})
