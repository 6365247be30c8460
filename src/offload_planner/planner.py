"""CPU:device resource ratio and budget-constrained allocation sizing.

The ratio equalizes the order of the measured CPU-side and device-side
processing times: the slower side gets proportionally more units, rounded
half-up to an integer against the other side's single unit, so one side of
every ratio is 1. The allocation keeps that ratio if any whole multiple of
it fits the monthly budget (taking the largest); otherwise it takes the
feasible unit pair nearest the ratio, (max_cpu, 1) for a ratio (u, 1) and
(1, max_dev) for (1, u), in closed form. Budgets and prices must be finite,
and no side gets 2**53 units or more, past the counts binary64 holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

UNIT_LIMIT = 2**53  # the first unit count refused


class NonPositiveTime(Exception):
    pass


class Infeasible(Exception):
    pass


@dataclass(frozen=True)
class ResourceRatio:
    cpu: int
    dev: int

    def __post_init__(self):
        if min(self.cpu, self.dev) != 1:
            raise ValueError("a ratio has one side 1 and the other positive, "
                             f"got {self.cpu}:{self.dev}")


class CpuOnly:
    """Marker for the degenerate nothing-offloaded case."""

    __slots__ = ()

    def __repr__(self):
        return "CPU_ONLY"


CPU_ONLY = CpuOnly()


@dataclass(frozen=True)
class PriceBook:
    cpu_unit_price: float
    dev_unit_price: float

    def __post_init__(self):
        for side, price in (("CPU", self.cpu_unit_price), ("device", self.dev_unit_price)):
            if not 0 < price < math.inf:
                raise ValueError(f"the {side} unit price must be positive and finite, "
                                 f"got {price}")


@dataclass(frozen=True)
class Allocation:
    cpu_units: int
    dev_units: int
    monthly_cost: float
    ratio_kept: bool

    def to_json(self) -> dict:
        return asdict(self)


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def compute_ratio(t_cpu: float, t_dev: float) -> ResourceRatio | CpuOnly:
    """Integer ratio from the measured time split, with one side 1.
    t_dev = 0 means nothing was offloaded."""
    if not (math.isfinite(t_cpu) and math.isfinite(t_dev)):
        raise ValueError(f"times must be finite, got t_cpu={t_cpu}, t_dev={t_dev}")
    if t_cpu <= 0:
        raise NonPositiveTime(f"t_cpu must be positive, got {t_cpu}")
    if t_dev < 0:
        raise NonPositiveTime(f"t_dev must be non-negative, got {t_dev}")
    if t_dev == 0:
        return CPU_ONLY
    big, small = max(t_cpu, t_dev), min(t_cpu, t_dev)
    if not math.isfinite(big / small):
        raise ValueError(f"the time split {t_cpu}:{t_dev} has no finite ratio")
    units = max(round_half_up(big / small), 1)
    return ResourceRatio(units, 1) if t_cpu >= t_dev else ResourceRatio(1, units)


def plan_device_bound(prices: PriceBook, budget: float) -> Allocation:
    """Allocation when the measured CPU part is zero and the device part
    positive: the device does all the measured work, so one CPU unit hosts
    the program and the rest of the budget buys device units. There is no
    CPU side to keep a ratio with."""
    return _one_and_most(prices, budget, grow_cpu=False)


def _one_and_most(prices: PriceBook, budget: float, grow_cpu: bool) -> Allocation:
    """One unit on one side and the most units the rest of the budget buys
    on the other: (n, 1) if ``grow_cpu``, else (1, n)."""
    p_c, p_g = prices.cpu_unit_price, prices.dev_unit_price
    price, fixed = (p_c, p_g) if grow_cpu else (p_g, p_c)
    units = _affordable(budget, prices, lambda n: n * price + fixed)
    if units < 1:
        raise Infeasible(
            f"budget {budget} cannot cover one CPU ({p_c}) plus one device "
            f"({p_g}) unit per month")
    cpu_units, dev_units = (units, 1) if grow_cpu else (1, units)
    return Allocation(cpu_units, dev_units, units * price + fixed, ratio_kept=False)


def _affordable(budget: float, prices: PriceBook, cost, per: int = 1) -> int:
    """Most counts whose monthly ``cost(count)`` fits in ``budget``, tested
    with the expression the Allocation reports, by bisection: ``cost``
    never falls as the count grows, though neighbouring counts can cost the
    same float. A count buys ``per`` units of its larger side."""
    if not math.isfinite(budget):
        raise ValueError(f"budget must be finite, got {budget}")
    low, high = 0, -(-UNIT_LIMIT // per)  # high: the first count refused
    if cost(high) <= budget:
        raise ValueError(f"budget {budget} buys 2**53 units or more at {prices.cpu_unit_price} "
                         f"a CPU and {prices.dev_unit_price} a device unit")
    while high - low > 1:  # low fits, or is 0; high does not fit
        mid = (low + high) // 2
        low, high = (mid, high) if cost(mid) <= budget else (low, mid)
    return low


def plan_amount(ratio: ResourceRatio | CpuOnly, prices: PriceBook,
                budget: float) -> Allocation:
    """Largest whole multiple of the ratio within budget; else the feasible
    pair nearest the ratio in log space, which is (max_cpu, 1) for a ratio
    (u, 1) and (1, max_dev) for (1, u): no multiple fits, so the budget is
    below one multiple's cost, and every count the growing side affords is
    below u."""
    if budget <= 0:
        raise Infeasible(f"budget must be positive, got {budget}")
    p_c, p_g = prices.cpu_unit_price, prices.dev_unit_price
    if isinstance(ratio, CpuOnly):
        cpu_units = _affordable(budget, prices, lambda n: n * p_c)
        if cpu_units < 1:
            raise Infeasible(
                f"budget {budget} cannot buy one CPU unit at {p_c}/month")
        return Allocation(cpu_units, 0, cpu_units * p_c, ratio_kept=True)

    def multiple_cost(k: int) -> float:
        return k * ratio.cpu * p_c + k * ratio.dev * p_g

    k = _affordable(budget, prices, multiple_cost, max(ratio.cpu, ratio.dev))
    if k >= 1:
        return Allocation(k * ratio.cpu, k * ratio.dev, multiple_cost(k), ratio_kept=True)
    return _one_and_most(prices, budget, grow_cpu=ratio.dev == 1)
