"""Resource ratio and allocation tests, including exhaustive-enumeration
oracle equivalence and the balance/scale-invariance properties."""

import math
import random

import pytest

from offload_planner.planner import (
    CPU_ONLY,
    Allocation,
    CpuOnly,
    Infeasible,
    NonPositiveTime,
    PriceBook,
    ResourceRatio,
    compute_ratio,
    plan_amount,
    plan_device_bound,
    round_half_up,
)

from conftest import ratio_distance


def oracle_plan(ratio, prices, budget):
    """Brute force over every affordable unit pair under the stated
    objective and tie-breaks."""
    p_c, p_g = prices.cpu_unit_price, prices.dev_unit_price
    best = None
    best_key = None
    limit_c = int(budget // p_c) + 1
    limit_g = int(budget // p_g) + 1
    for c in range(1, limit_c + 1):
        for g in range(1, limit_g + 1):
            if c * p_c + g * p_g > budget:
                continue
            kept = (c % ratio.cpu == 0 and g % ratio.dev == 0
                    and c // ratio.cpu == g // ratio.dev)
            # ratio-kept multiples win; among them the largest
            key = (0, -(c // ratio.cpu)) if kept else (
                1, ratio_distance(c, g, ratio), -(c + g), -c)
            if best_key is None or key < best_key:
                best_key = key
                best = (c, g, kept)
    return best


def test_ratio_paper_example():
    assert compute_ratio(10.0, 5.0) == ResourceRatio(2, 1)


def test_ratio_equal_times():
    assert compute_ratio(7.0, 7.0) == ResourceRatio(1, 1)


def test_ratio_device_heavier_rounds_half_up():
    # 12/5 = 2.4 rounds down to 2
    assert compute_ratio(5.0, 12.0) == ResourceRatio(1, 2)
    # 12.5/5 = 2.5 rounds up to 3
    assert compute_ratio(5.0, 12.5) == ResourceRatio(1, 3)


def test_ratio_cpu_only():
    assert compute_ratio(4.2, 0.0) is CPU_ONLY


def test_ratio_rejects_non_positive_times():
    with pytest.raises(NonPositiveTime):
        compute_ratio(0.0, 1.0)
    with pytest.raises(NonPositiveTime):
        compute_ratio(-1.0, 1.0)
    with pytest.raises(NonPositiveTime):
        compute_ratio(1.0, -0.5)


def test_ratio_floor_of_one():
    # times nearly equal with t_cpu slightly larger: 1.2 rounds to 1
    assert compute_ratio(1.2, 1.0) == ResourceRatio(1, 1)


def test_scale_invariance():
    rng = random.Random(17)
    for _ in range(300):
        t_cpu = rng.uniform(1e-6, 100.0)
        t_dev = rng.uniform(0.0, 100.0)
        scale = rng.uniform(1e-3, 1e3)
        a = compute_ratio(t_cpu, t_dev)
        b = compute_ratio(t_cpu * scale, t_dev * scale)
        if isinstance(a, CpuOnly):
            assert isinstance(b, CpuOnly)
        else:
            assert a == b


def test_amount_paper_budget_10000():
    alloc = plan_amount(ResourceRatio(2, 1), PriceBook(1000, 4000), 10000)
    assert (alloc.cpu_units, alloc.dev_units) == (2, 1)
    assert alloc.monthly_cost == 6000
    assert alloc.ratio_kept


def test_amount_paper_budget_5000_fallback():
    alloc = plan_amount(ResourceRatio(2, 1), PriceBook(1000, 4000), 5000)
    assert (alloc.cpu_units, alloc.dev_units) == (1, 1)
    assert alloc.monthly_cost == 5000
    assert not alloc.ratio_kept


def test_amount_budget_13000_takes_largest_multiple():
    alloc = plan_amount(ResourceRatio(2, 1), PriceBook(1000, 4000), 13000)
    assert (alloc.cpu_units, alloc.dev_units) == (4, 2)
    assert alloc.monthly_cost == 12000
    assert alloc.ratio_kept


def test_amount_infeasible():
    with pytest.raises(Infeasible):
        plan_amount(ResourceRatio(2, 1), PriceBook(1000, 4000), 4500)
    with pytest.raises(Infeasible):
        plan_amount(ResourceRatio(1, 1), PriceBook(1000, 4000), 0)


def test_amount_cpu_only():
    alloc = plan_amount(CPU_ONLY, PriceBook(1000, 4000), 10500)
    assert (alloc.cpu_units, alloc.dev_units) == (10, 0)
    assert alloc.monthly_cost == 10000
    with pytest.raises(Infeasible):
        plan_amount(CPU_ONLY, PriceBook(1000, 4000), 999)


def test_budget_safety_and_maximality():
    rng = random.Random(23)
    for _ in range(300):
        ratio = compute_ratio(rng.uniform(0.1, 20), rng.uniform(0.1, 20))
        prices = PriceBook(rng.uniform(100, 5000), rng.uniform(100, 5000))
        budget = rng.uniform(200, 60000)
        try:
            alloc = plan_amount(ratio, prices, budget)
        except Infeasible:
            assert prices.cpu_unit_price + prices.dev_unit_price > budget
            continue
        assert alloc.monthly_cost <= budget
        if alloc.ratio_kept:
            grown = ((alloc.cpu_units + ratio.cpu) * prices.cpu_unit_price
                     + (alloc.dev_units + ratio.dev) * prices.dev_unit_price)
            assert grown > budget


def float_edge_case(rng, ratio):
    """Prices with up to four decimals and a budget at, or one float step
    beside, the cost of some multiple or unit pair: where budget / price
    can round to one unit too many or too few."""
    p_c, p_g = (max(1.0, round(rng.uniform(1, 50), rng.randint(0, 4)))
                for _ in range(2))
    k, c, g = rng.randint(1, 6), rng.randint(1, 30), rng.randint(1, 30)
    edge = rng.choice((k * ratio.cpu * p_c + k * ratio.dev * p_g,
                       c * p_c + g * p_g, c * p_c + p_g, p_c + g * p_g))
    budget = rng.choice((edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)))
    return PriceBook(p_c, p_g), budget


def test_oracle_equivalence_randomized():
    check_oracle_equivalence(lambda rng, ratio: (
        PriceBook(float(rng.randint(1, 50)), float(rng.randint(1, 50))),
        float(rng.randint(2, 2000))))


def test_oracle_equivalence_at_float_budget_edges():
    check_oracle_equivalence(float_edge_case)


def check_oracle_equivalence(draw):
    """plan_amount equals the grid oracle on 1000 drawn instances whose unit
    counts stay <= 100; ``draw(rng, ratio)`` gives (prices, budget)."""
    rng = random.Random(20260810)
    checked = 0
    while checked < 1000:
        ratio = ResourceRatio(*rng.choice(
            [(1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (1, 5), (7, 1), (1, 9)]))
        prices, budget = draw(rng, ratio)
        if prices.cpu_unit_price + prices.dev_unit_price > budget:
            continue
        if budget / prices.cpu_unit_price > 100 or budget / prices.dev_unit_price > 100:
            continue  # keep unit counts <= 100 as stated
        alloc = plan_amount(ratio, prices, budget)
        c, g, kept = oracle_plan(ratio, prices, budget)
        assert (alloc.cpu_units, alloc.dev_units, alloc.ratio_kept) == (c, g, kept), (
            ratio, prices, budget)
        assert alloc.monthly_cost <= budget
        checked += 1


@pytest.mark.parametrize("ratio, p_c, p_g, budget, units", [
    # budget / price rounds up to a count whose cost is over the budget
    (CPU_ONLY, 48.3316, 1.0, 966.632, (19, 0)),
    ((3, 1), 0.6188, 22.574822, 879.523992, (105, 35)),
    # budget / price rounds below the last affordable count
    (CPU_ONLY, 18.67, 1.0, 130.69, (7, 0)),
    ((1, 1), 18.84101, 4.4, 302.13313, (13, 13)),
    # the budget is p_c + p_g, yet (budget - p_g) / p_c rounds below one
    ((36, 1), 27.0, 9.16, 36.16, (1, 1)),
    # no multiple fits, and the max_cpu or max_dev quotient rounds one unit
    # low, then one unit high
    ((43, 1), 42.2, 36.44, 669.44, (15, 1)),
    ((1, 60), 55.81, 59.468, 2731.87, (1, 45)),
    ((24, 1), 48.24, 53.9, 536.3, (9, 1)),
    ((1, 53), 15.4, 54.313, 1807.729, (1, 32)),
])
def test_amount_buys_what_the_budget_affords_at_its_edges(ratio, p_c, p_g, budget, units):
    ratio = ratio if ratio is CPU_ONLY else ResourceRatio(*ratio)
    alloc = plan_amount(ratio, PriceBook(p_c, p_g), budget)
    assert (alloc.cpu_units, alloc.dev_units) == units
    assert alloc.monthly_cost <= budget


def test_balance_property():
    rng = random.Random(31)
    checked = 0
    while checked < 1000:
        t_cpu = rng.uniform(0.05, 50)
        t_dev = rng.uniform(0.05, 50)
        ratio = compute_ratio(t_cpu, t_dev)
        prices = PriceBook(rng.uniform(10, 100), rng.uniform(10, 100))
        bundle = ratio.cpu * prices.cpu_unit_price + ratio.dev * prices.dev_unit_price
        budget = bundle * rng.uniform(1.0, 4.0)
        alloc = plan_amount(ratio, prices, budget)
        if not alloc.ratio_kept:
            continue
        scaled_cpu = t_cpu / alloc.cpu_units
        scaled_dev = t_dev / alloc.dev_units
        quotient = scaled_cpu / scaled_dev
        assert 2.0 / 3.0 - 1e-12 <= quotient <= 1.5 + 1e-12, (t_cpu, t_dev)
        checked += 1


def grid_fallback(ratio, prices, budget):
    """Every feasible (cpu, dev) pair under the fallback's key: the full
    grid scan the fallback replaced. Its bounds reach one past the float
    quotients, so the cost test alone decides the last affordable unit."""
    p_c, p_g = prices.cpu_unit_price, prices.dev_unit_price
    best = best_key = None
    for c in range(1, int(budget // p_c) + 2):
        for g in range(1, int(budget // p_g) + 2):
            cost = c * p_c + g * p_g
            if cost > budget:
                break
            key = (ratio_distance(c, g, ratio), -(c + g), -c)
            if best_key is None or key < best_key:
                best_key, best = key, Allocation(c, g, cost, ratio_kept=False)
    return best


def test_fallback_matches_grid_scan_randomized():
    rng = random.Random(20261018)
    checked = 0
    while checked < 400:
        units = rng.randint(2, 300)
        cpu, dev = (units, 1) if rng.random() < 0.5 else (1, units)
        ratio = ResourceRatio(cpu, dev)
        prices = PriceBook(round(rng.uniform(1, 60), rng.choice((0, 2))),
                           round(rng.uniform(1, 60), rng.choice((0, 2))))
        bundle = cpu * prices.cpu_unit_price + dev * prices.dev_unit_price
        low = prices.cpu_unit_price + prices.dev_unit_price
        # a budget exactly at some pair's cost, or just below it, is where
        # rounding in budget / price can misjudge the last affordable unit
        edge = (rng.randint(1, cpu) * prices.cpu_unit_price
                + rng.randint(1, dev) * prices.dev_unit_price)
        budget = rng.choice((low, rng.uniform(low, bundle), edge,
                             math.nextafter(edge, 0.0)))
        if not low <= budget < bundle:
            continue
        if (budget / prices.cpu_unit_price) * (budget / prices.dev_unit_price) > 60000:
            continue
        assert plan_amount(ratio, prices, budget) == grid_fallback(ratio, prices, budget), (
            ratio, prices, budget)
        checked += 1


@pytest.mark.parametrize("ratio, p_c, p_g, budget", [
    # the budget is exactly the cost of (max_cpu, 1)
    ((7, 1), 11.6, 6.7, 29.9), ((40, 1), 9.567, 39.121, 326.131),
    # the max_cpu or max_dev quotient rounds one unit below the last
    # affordable count
    ((43, 1), 42.2, 36.44, 669.44), ((1, 60), 55.81, 59.468, 2731.87),
    # it rounds up to a count the budget cannot buy
    ((24, 1), 48.24, 53.9, 536.3), ((1, 53), 15.4, 54.313, 1807.729),
])
def test_fallback_matches_grid_scan_at_budget_edges(ratio, p_c, p_g, budget):
    ratio, prices = ResourceRatio(*ratio), PriceBook(p_c, p_g)
    assert plan_amount(ratio, prices, budget) == grid_fallback(ratio, prices, budget)


@pytest.mark.parametrize("p_c, p_g, budget, dev_units", [
    (1000.0, 4000.0, 13000.0, 3),
    (35.69, 42.85, 592.74, 13),      # the quotient rounds one unit low
    (37.5, 36.34, 364.56, 8),        # the quotient rounds one unit high
])
def test_device_bound_buys_one_cpu_and_the_devices_the_rest_affords(p_c, p_g, budget,
                                                                   dev_units):
    alloc = plan_device_bound(PriceBook(p_c, p_g), budget)
    assert (alloc.cpu_units, alloc.dev_units, alloc.ratio_kept) == (1, dev_units, False)
    assert alloc.monthly_cost == p_c + dev_units * p_g <= budget
    assert p_c + (dev_units + 1) * p_g > budget


def test_fallback_has_no_enumeration_cap():
    # the ratio multiple never fits, and the feasible grid is ~4e6 pairs
    assert (plan_amount(ResourceRatio(1, 999999), PriceBook(1.0, 1.0), 2000.0)
            == Allocation(1, 1999, 2000.0, False))


def test_a_unit_price_lost_in_the_rounding_of_the_cost_is_still_counted():
    # n * 1e-30 + 1.0 stays 1.0 until n * 1e-30 reaches half an ulp of 1:
    # about 1.1e14 neighbouring counts cost the same float, which the budget
    # pays, though (budget - 1.0) / 1e-30 is 0
    alloc = plan_device_bound(PriceBook(1.0, 1e-30), 1.0)
    n = alloc.dev_units
    assert (alloc.cpu_units, alloc.monthly_cost) == (1, 1.0)
    assert n * 1e-30 + 1.0 <= 1.0 < (n + 1) * 1e-30 + 1.0


def test_allocations_are_largest_over_wide_price_ranges():
    # prices over 40 decades: each answer is the largest count that fits,
    # or is refused for reaching 2**53 units on a side
    rng = random.Random(53)
    refused = 0
    for _ in range(2000):
        p_c, p_g = 10 ** rng.uniform(-20, 20), 10 ** rng.uniform(-20, 20)
        budget = (p_c + p_g) * 10 ** rng.uniform(0, 20)
        ratio = compute_ratio(10 ** rng.uniform(-3, 3), 10 ** rng.uniform(-3, 3))
        try:
            alloc = plan_amount(ratio, PriceBook(p_c, p_g), budget)
        except ValueError as exc:
            assert "buys 2**53 units or more" in str(exc)
            refused += 1
            continue
        assert alloc.monthly_cost <= budget
        assert max(alloc.cpu_units, alloc.dev_units) < 2**53
        k = alloc.cpu_units // ratio.cpu
        grown = ((k + 1) * ratio.cpu * p_c + (k + 1) * ratio.dev * p_g if alloc.ratio_kept
                 else (alloc.cpu_units + 1) * p_c + p_g if ratio.dev == 1
                 else p_c + (alloc.dev_units + 1) * p_g)
        assert grown > budget
    assert 0 < refused < 2000


def test_round_half_up():
    assert round_half_up(2.4) == 2
    assert round_half_up(2.5) == 3
    assert round_half_up(2.6) == 3
    assert round_half_up(0.5) == 1


def test_ratio_validation():
    with pytest.raises(ValueError):
        ResourceRatio(2, 4)
    with pytest.raises(ValueError):
        ResourceRatio(2, 3)
    with pytest.raises(ValueError):
        ResourceRatio(0, 1)


def test_allocation_json():
    alloc = Allocation(2, 1, 6000.0, True)
    assert alloc.to_json() == {"cpu_units": 2, "dev_units": 1,
                               "monthly_cost": 6000.0, "ratio_kept": True}
