"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the test names themselves carry the criterion numbers.
"""

import itertools
import json
import math
import random
import shutil
import struct
import time

from offload_planner.cli import main as cli_main
from offload_planner.evaluation import (
    CostAnnotations,
    ToleranceSpec,
    compare_results,
    evaluate_sim,
)
from offload_planner.ga import GaConfig, fitness_of, run_ga
from offload_planner.minic import extract_loops, interpret, parse_program
from offload_planner.offload import (
    HOST_TO_DEVICE,
    OffloadPattern,
    plan_transfers,
    simulate_with_plan,
    validate_pattern,
)
from offload_planner.planner import (
    PriceBook,
    ResourceRatio,
    compute_ratio,
    plan_amount,
)

from conftest import CORPUS, corpus_programs, ratio_distance


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def sim_instance(program: str, costs: str):
    ast = parse_program((CORPUS / program).read_text(encoding="utf-8"))
    loops = extract_loops(ast)
    annotations = CostAnnotations.load(CORPUS / costs)
    return ast, loops, annotations


def make_evaluator(ast, loops, costs):
    def evaluate(pattern):
        return evaluate_sim(ast, loops, pattern,
                            plan_transfers(ast, loops, pattern), costs)

    return evaluate


def exhaustive_optimum(ast, loops, costs):
    evaluate = make_evaluator(ast, loops, costs)
    best_bits, best_fit = None, -1.0
    for bits in itertools.product((0, 1), repeat=loops.gene_length()):
        pattern = OffloadPattern(bits)
        if validate_pattern(pattern, loops) is not None:
            continue
        fit = fitness_of(evaluate(pattern))
        if fit > best_fit:
            best_bits, best_fit = bits, fit
    return best_bits, best_fit


def test_c1_ratio_example_exact():
    start = time.perf_counter()
    ratio = compute_ratio(10.0, 5.0)
    elapsed = time.perf_counter() - start
    report("criterion 1: compute_ratio(10 s, 5 s) = 2:1 exactly",
           ratio == ResourceRatio(2, 1) and elapsed < 1e-3,
           f"{elapsed * 1e6:.0f} us")


def test_c2_amount_examples_exact():
    prices = PriceBook(1000, 4000)
    start = time.perf_counter()
    a = plan_amount(ResourceRatio(2, 1), prices, 10000)
    b = plan_amount(ResourceRatio(2, 1), prices, 5000)
    elapsed = time.perf_counter() - start
    ok = ((a.cpu_units, a.dev_units, a.ratio_kept) == (2, 1, True)
          and (b.cpu_units, b.dev_units, b.ratio_kept) == (1, 1, False)
          and elapsed < 1e-3)
    report("criterion 2: plan_amount paper examples (2,1) and (1,1) exactly",
           ok, f"{elapsed * 1e6:.0f} us")


def test_c3_planner_oracle_equivalence_1000_instances():
    rng = random.Random(97)
    start = time.perf_counter()
    agree = 0
    total = 0
    while total < 1000:
        ratio = ResourceRatio(*rng.choice(
            [(1, 1), (2, 1), (3, 1), (5, 1), (1, 2), (1, 3), (1, 4), (1, 7)]))
        prices = PriceBook(float(rng.randint(1, 40)), float(rng.randint(1, 40)))
        budget = float(rng.randint(2, 1500))
        if prices.cpu_unit_price + prices.dev_unit_price > budget:
            continue
        if (budget / prices.cpu_unit_price > 100
                or budget / prices.dev_unit_price > 100):
            continue
        total += 1
        alloc = plan_amount(ratio, prices, budget)
        best_key, best = None, None
        limit_c = int(budget // prices.cpu_unit_price)
        limit_g = int(budget // prices.dev_unit_price)
        for c in range(1, limit_c + 1):
            for g in range(1, limit_g + 1):
                if c * prices.cpu_unit_price + g * prices.dev_unit_price > budget:
                    continue
                kept = (c % ratio.cpu == 0 and g % ratio.dev == 0
                        and c // ratio.cpu == g // ratio.dev)
                key = ((0, -(c // ratio.cpu)) if kept
                       else (1, ratio_distance(c, g, ratio), -(c + g), -c))
                if best_key is None or key < best_key:
                    best_key, best = key, (c, g, kept)
        if (alloc.cpu_units, alloc.dev_units, alloc.ratio_kept) == best:
            agree += 1
    elapsed = time.perf_counter() - start
    report("criterion 3: plan_amount = exhaustive enumeration on 1000 instances",
           agree == 1000 and elapsed < 10.0,
           f"{agree}/1000 agree, {elapsed:.2f} s")


def test_c4_ga_desk_scale_optimality():
    ast10, loops10, costs10 = sim_instance("g10.mc", "g10_costs.json")
    oracle10, _ = exhaustive_optimum(ast10, loops10, costs10)
    evaluator10 = make_evaluator(ast10, loops10, costs10)
    hits = 0
    worst_run = 0.0
    monotone = True
    for seed in range(20):
        start = time.perf_counter()
        result = run_ga(loops10, evaluator10, GaConfig(seed=seed))
        worst_run = max(worst_run, time.perf_counter() - start)
        hits += result.best.gene == oracle10
        bests = [b for _, b, _ in result.history]
        monotone &= all(x <= y for x, y in zip(bests, bests[1:]))

    ast3, loops3, costs3 = sim_instance("g3.mc", "g3_costs.json")
    oracle3, _ = exhaustive_optimum(ast3, loops3, costs3)
    evaluator3 = make_evaluator(ast3, loops3, costs3)
    hits3 = 0
    for seed in range(20):
        result = run_ga(loops3, evaluator3, GaConfig(seed=seed))
        hits3 += result.best.gene == oracle3
        bests = [b for _, b, _ in result.history]
        monotone &= all(x <= y for x, y in zip(bests, bests[1:]))

    ok = hits >= 18 and hits3 == 20 and worst_run < 2.0 and monotone
    report("criterion 4: GA hits exhaustive optimum (G10 >= 18/20, G3 20/20)",
           ok, f"G10 {hits}/20, G3 {hits3}/20, max run {worst_run:.3f} s, "
               f"monotone={monotone}")


def test_c5_transfer_plan_soundness_and_hoist_factor():
    start = time.perf_counter()
    checked = 0
    sound = True
    for path in corpus_programs():
        ast = parse_program(path.read_text(encoding="utf-8"))
        loops = extract_loops(ast)
        baseline = interpret(ast)
        a = loops.gene_length()
        if a <= 8:
            candidates = itertools.product((0, 1), repeat=a)
        else:
            rng = random.Random(5)
            candidates = {tuple(rng.randint(0, 1) for _ in range(a))
                          for _ in range(64)} | {(0,) * a, (1,) * a}
        for bits in candidates:
            pattern = OffloadPattern(tuple(bits))
            if validate_pattern(pattern, loops) is not None:
                continue
            plan = plan_transfers(ast, loops, pattern)
            sim = simulate_with_plan(ast, loops, pattern, plan)
            sound &= sim.outputs == baseline
            checked += 1

    ast = parse_program((CORPUS / "nested_hoist.mc").read_text(encoding="utf-8"))
    loops = extract_loops(ast)
    outer_trip = loops.infos[1].trip_count
    inner = loops.infos[2].loop_id
    bits = tuple(1 if lid == inner else 0 for lid in loops.eligible_ids())
    pattern = OffloadPattern(bits)

    def executed_copyins(plan):
        sim = simulate_with_plan(ast, loops, pattern, plan)
        return sum(cnt for op, cnt in sim.op_counts.items()
                   if op.var == "b" and op.direction == HOST_TO_DEVICE)

    hoisted = executed_copyins(plan_transfers(ast, loops, pattern))
    unhoisted = executed_copyins(plan_transfers(ast, loops, pattern, hoist=False))
    factor_ok = hoisted == 1 and unhoisted == outer_trip
    elapsed = time.perf_counter() - start
    report("criterion 5: two-space simulation bit-exact; hoist factor = "
           "enclosing trip count",
           sound and factor_ok and elapsed < 30.0,
           f"{checked} (program, pattern) pairs, factor {unhoisted}/{hoisted}, "
           f"{elapsed:.2f} s")


def test_c6_infinite_fitness_path_over_100_seeds():
    ast, loops, costs = sim_instance("g3.mc", "g3_costs.json")
    oracle_bits, _ = exhaustive_optimum(ast, loops, costs)
    # poison the true optimum plus one more pattern via fault injection
    faults = {"".join(map(str, oracle_bits)), "001"}
    poisoned = CostAnnotations(work=costs.work, speedup=costs.speedup,
                               fault_patterns=frozenset(faults))
    evaluator = make_evaluator(ast, loops, poisoned)
    ok = True
    for seed in range(100):
        result = run_ga(loops, evaluator, GaConfig(seed=seed))
        best = result.best
        ok &= best.pattern.as_string() not in faults
        ok &= best.fitness > 0.0 and best.measurement.valid
    report("criterion 6: fault-injected patterns get fitness 0 and never win "
           "(100 seeds)", ok)


def test_c7_balance_property_1000_cases():
    rng = random.Random(41)
    checked = 0
    ok = True
    while checked < 1000:
        t_cpu = rng.uniform(0.01, 100.0)
        t_dev = rng.uniform(0.01, 100.0)
        ratio = compute_ratio(t_cpu, t_dev)
        prices = PriceBook(rng.uniform(5, 200), rng.uniform(5, 200))
        bundle = (ratio.cpu * prices.cpu_unit_price
                  + ratio.dev * prices.dev_unit_price)
        alloc = plan_amount(ratio, prices, bundle * rng.uniform(1.0, 5.0))
        if not alloc.ratio_kept:
            continue
        quotient = (t_cpu / alloc.cpu_units) / (t_dev / alloc.dev_units)
        ok &= 2.0 / 3.0 - 1e-12 <= quotient <= 1.5 + 1e-12
        checked += 1
    report("criterion 7: ratio-kept scaled-time quotient within [2/3, 3/2] "
           "(1000 cases)", ok)


def test_c8_run_all_byte_identical_including_concurrency(tmp_path):
    for item in CORPUS.iterdir():
        if item.is_file():
            shutil.copy(item, tmp_path / item.name)
    config = json.loads((tmp_path / "g3_config.json").read_text())
    blobs = []
    for out_name, workers in (("r1", 1), ("r2", 1), ("r3", 4)):
        config["output_dir"] = out_name
        config["workers"] = workers
        cfg_path = tmp_path / f"{out_name}.json"
        cfg_path.write_text(json.dumps(config))
        code = cli_main(["run-all", "--config", str(cfg_path)])
        assert code == 0
        outdir = tmp_path / out_name
        blobs.append({p.name: p.read_bytes()
                      for p in sorted(outdir.glob("*")) if p.is_file()})
    ok = blobs[0] == blobs[1] == blobs[2] and len(blobs[0]) >= 7
    report("criterion 8: run-all artifacts byte-identical across reruns and "
           "with concurrent evaluation", ok,
           f"{len(blobs[0])} artifact files compared")


def test_c9_ulp_mode_agrees_with_bit_oracle_10000_pairs():
    def oracle_key(v: float) -> int:
        (u,) = struct.unpack("<Q", struct.pack("<d", v))
        magnitude = u & ((1 << 63) - 1)
        return (1 << 63) + (-magnitude if u >> 63 else magnitude)

    rng = random.Random(2468)

    def random_double():
        while True:
            value = struct.unpack(
                "<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
            if not math.isnan(value):
                return value

    agree = 0
    for _ in range(10_000):
        x = random_double()
        if rng.random() < 0.5:
            y = x
            for _ in range(rng.randint(0, 6)):
                y = math.nextafter(y, math.inf if rng.random() < 0.5 else -math.inf)
        else:
            y = random_double()
        max_ulps = rng.randint(0, 8)
        verdict = compare_results({"v": x}, {"v": y},
                                  ToleranceSpec("ulp", max_ulps=max_ulps))
        oracle_pass = abs(oracle_key(x) - oracle_key(y)) <= max_ulps
        agree += verdict.passed == oracle_pass
    report("criterion 9: ulp mode agrees with bit-pattern oracle on 10^4 pairs",
           agree == 10_000, f"{agree}/10000")
