"""CPU:device resource ratio and budget-constrained allocation sizing.

The ratio equalizes the order of the measured CPU-side and device-side
processing times: the slower side gets proportionally more units, rounded
half-up to an integer against the other side's single unit. The allocation
keeps that ratio if any whole multiple of it fits the monthly budget
(taking the largest); otherwise it picks the feasible unit pair closest
to the ratio in log space, scoring two device counts per CPU count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass


class NonPositiveTime(Exception):
    pass


class Infeasible(Exception):
    pass


class CapExceeded(Exception):
    pass


ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class ResourceRatio:
    cpu: int
    dev: int

    def __post_init__(self):
        if self.cpu < 1 or self.dev < 1:
            raise ValueError("ratio sides must be positive")
        if math.gcd(self.cpu, self.dev) != 1:
            raise ValueError("ratio must be coprime")


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
        if self.cpu_unit_price <= 0 or self.dev_unit_price <= 0:
            raise ValueError("unit prices must be positive")


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
    """Coprime integer ratio from the measured time split; one side is
    always 1 by construction. t_dev = 0 means nothing was offloaded."""
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
    p_c, p_g = prices.cpu_unit_price, prices.dev_unit_price
    dev_units = _affordable(budget, lambda n: p_c + n * p_g, (budget - p_c) / p_g)
    if dev_units < 1:
        raise Infeasible(
            f"budget {budget} cannot cover one CPU ({p_c}) plus one device "
            f"({p_g}) unit per month")
    return Allocation(1, dev_units, p_c + dev_units * p_g, ratio_kept=False)


def _affordable(budget: float, cost, quotient: float, limit=math.inf) -> int:
    """Most units (at most ``limit``) whose monthly ``cost(units)`` fits in
    ``budget``, tested with the expression the Allocation reports. The
    float ``quotient`` that estimates it can round to one unit too many or
    too few, so it is corrected by that test."""
    units = max(0, min(limit, math.floor(quotient)))
    while units >= 1 and cost(units) > budget:
        units -= 1
    while units < limit and cost(units + 1) <= budget:
        units += 1
    return units


def ratio_distance(cpu_units: int, dev_units: int, ratio: ResourceRatio) -> float:
    """Log-space distance of a unit pair from the ideal ratio; 0 on it."""
    return abs(math.log((cpu_units * ratio.dev) / (dev_units * ratio.cpu)))


def plan_amount(ratio: ResourceRatio | CpuOnly, prices: PriceBook,
                budget: float) -> Allocation:
    """Largest whole multiple of the ratio within budget; else the feasible
    (cpu>=1, dev>=1) pair minimizing ratio_distance with ties broken by more
    total units, then more CPU units."""
    if budget <= 0:
        raise Infeasible(f"budget must be positive, got {budget}")
    p_c, p_g = prices.cpu_unit_price, prices.dev_unit_price
    if isinstance(ratio, CpuOnly):
        cpu_units = _affordable(budget, lambda n: n * p_c, budget / p_c)
        if cpu_units < 1:
            raise Infeasible(
                f"budget {budget} cannot buy one CPU unit at {p_c}/month")
        return Allocation(cpu_units, 0, cpu_units * p_c, ratio_kept=True)

    def multiple_cost(k: int) -> float:
        return k * ratio.cpu * p_c + k * ratio.dev * p_g

    k = _affordable(budget, multiple_cost, budget / (ratio.cpu * p_c + ratio.dev * p_g))
    if k >= 1:
        return Allocation(k * ratio.cpu, k * ratio.dev, multiple_cost(k), ratio_kept=True)

    if p_c + p_g > budget:
        raise Infeasible(
            f"budget {budget} cannot cover one CPU ({p_c}) plus one device "
            f"({p_g}) unit per month")

    max_cpu = _affordable(budget, lambda n: n * p_c + p_g, (budget - p_g) / p_c)
    max_dev = _affordable(budget, lambda n: p_c + n * p_g, (budget - p_c) / p_g)
    if max_cpu * max_dev > ENUMERATION_CAP:
        raise CapExceeded(
            f"{max_cpu} x {max_dev} candidate allocations exceed the "
            f"{ENUMERATION_CAP} enumeration cap")
    # For a fixed CPU count the distance falls as the device count nears
    # cpu_units * dev / cpu and rises past it, so only the whole counts on
    # either side, clipped to what the budget leaves, can be best.
    best = None
    best_key = None
    for cpu_units in range(1, max_cpu + 1):
        cpu_cost = cpu_units * p_c
        top = _affordable(budget, lambda n: cpu_cost + n * p_g,
                          (budget - cpu_cost) / p_g, max_dev)
        ideal = cpu_units * ratio.dev
        for dev_units in (ideal // ratio.cpu, -(-ideal // ratio.cpu)):
            dev_units = min(max(dev_units, 1), top)
            key = (ratio_distance(cpu_units, dev_units, ratio),
                   -(cpu_units + dev_units), -cpu_units)
            if best_key is None or key < best_key:
                best_key = key
                best = Allocation(cpu_units, dev_units, cpu_cost + dev_units * p_g,
                                  ratio_kept=False)
    return best
