"""Time-value-of-money and learning-curve primitives.

Pure functions; everything here is shared by the electrolysis and SMR
pathways and by the scenario projections.
"""

import math

from .errors import DomainError
from .model import HOURS_PER_YEAR


class AnnuityFactor:
    """Discounted-years factor: sum of 1/(1+r)^t for t = 1..n."""

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = value


def pvifa(discount_rate: float, lifetime_years: float) -> AnnuityFactor:
    """Present value interest factor of annuity.

    (1 - (1+r)^-n) / r for r > 0; the analytic limit n at r = 0.
    """
    if discount_rate < 0.0:
        raise DomainError(f"discount rate must be >= 0, got {discount_rate}")
    if lifetime_years <= 0.0:
        raise DomainError(f"lifetime must be > 0 years, got {lifetime_years}")
    if discount_rate == 0.0:
        value = lifetime_years
    else:
        value = (1.0 - (1.0 + discount_rate) ** -lifetime_years) / discount_rate
    return AnnuityFactor(value)


def lifetime_hours_to_years(lifetime_thousand_hours: float,
                            capacity_factor: float) -> float:
    """Calendar years over which a stack rated in operating hours lasts.

    A plant running at a partial capacity factor takes proportionally longer
    to exhaust its operating-hour lifetime.
    """
    if lifetime_thousand_hours <= 0.0:
        raise DomainError("lifetime must be > 0")
    if not 0.0 < capacity_factor <= 1.0:
        raise DomainError(f"capacity factor must be in (0, 1], got {capacity_factor}")
    return lifetime_thousand_hours * 1000.0 / (HOURS_PER_YEAR * capacity_factor)


def wright_capital_cost(base_unit_cost: float, learning_rate: float,
                        cumulative_base: float, cumulative_target: float) -> float:
    """Wright's-law unit cost after scaling cumulative production.

    Each doubling of cumulative installed capacity multiplies unit cost by
    (1 - learning_rate).
    """
    if base_unit_cost < 0.0:
        raise DomainError("base unit cost must be >= 0")
    if not 0.0 <= learning_rate < 1.0:
        raise DomainError(f"learning rate must be in [0, 1), got {learning_rate}")
    if cumulative_base <= 0.0:
        raise DomainError("cumulative base must be > 0")
    if cumulative_target < cumulative_base:
        raise DomainError(
            f"cumulative target {cumulative_target} below base {cumulative_base}: "
            "no forgetting")
    doublings = math.log2(cumulative_target / cumulative_base)
    return base_unit_cost * (1.0 - learning_rate) ** doublings
