"""GA search tests against brute-force enumeration oracles."""

import itertools
import json
import math
import random
import sys
from pathlib import Path

import pytest

from offload_planner import ga
from offload_planner.evaluation import (
    CostAnnotations,
    Measurement,
    _host_cost,
    _region_cost,
    evaluate_external,
    evaluate_sim,
)
from offload_planner.ga import (
    GaConfig,
    Individual,
    fitness_of,
    next_generation,
    run_ga,
)
from offload_planner.minic import extract_loops, parse_program
from offload_planner.offload import (
    OffloadPattern,
    plan_transfers,
    validate_pattern,
)

from conftest import corpus_programs, read_corpus, sim_benchmark_programs


def sim_evaluator(ast, loops, costs):
    def evaluate(pattern):
        plan = plan_transfers(ast, loops, pattern)
        return evaluate_sim(ast, loops, pattern, plan, costs)

    return evaluate


def exhaustive_best(ast, loops, costs):
    """Oracle: scan every pattern, keep the best valid fitness."""
    evaluate = sim_evaluator(ast, loops, costs)
    best_bits, best_fit = None, -1.0
    for bits in itertools.product((0, 1), repeat=loops.gene_length()):
        pattern = OffloadPattern(bits)
        if validate_pattern(pattern, loops) is not None:
            continue
        fit = fitness_of(evaluate(pattern))
        if fit > best_fit:
            best_bits, best_fit = bits, fit
    return best_bits, best_fit


def load_instance(name, costs_name):
    ast = parse_program(read_corpus(name))
    loops = extract_loops(ast)
    costs = CostAnnotations.load(f"corpus/{costs_name}")
    return ast, loops, costs


def test_ga_config_from_json_converts_present_fields_only():
    assert GaConfig.from_json({}) == GaConfig()
    cfg = GaConfig.from_json({"generations": "3", "crossover_rate": "0.5",
                              "seed": 7.0, "not_a_field": 1})
    assert cfg == GaConfig(generations=3, crossover_rate=0.5, seed=7)
    assert type(cfg.generations) is int and type(cfg.crossover_rate) is float
    assert GaConfig.from_json(cfg.to_json()) == cfg


@pytest.mark.parametrize("fields, message", [
    ({"generations": 0}, "population_size and generations must be positive"),
    ({"crossover_rate": 1.5}, "crossover_rate must be in [0, 1]"),
    ({"mutation_rate_per_bit": -0.1}, "mutation_rate_per_bit must be in [0, 1]"),
    ({"elite_count": 16}, "elite_count must be in [0, population_size)"),
])
def test_ga_config_rejects_values_out_of_range(fields, message):
    with pytest.raises(ValueError) as info:
        GaConfig(**fields)
    assert str(info.value) == message


def test_no_eligible_loops_degenerates_to_single_evaluation():
    ast = parse_program("int x; x = 3;")
    loops = extract_loops(ast)
    calls = []

    def evaluator(pattern):
        calls.append(pattern)
        return Measurement(2.0, 2.0, 0.0, True)

    result = run_ga(loops, evaluator, GaConfig(seed=1))
    assert result.best.gene == ()
    assert result.evaluations == 1
    assert len(calls) == 1
    assert result.best.fitness == 0.5


def test_exactly_one_profitable_sibling_found_by_exhaustive_agreement():
    # three sibling loops; costs make only the middle one worth offloading
    src = ("int n = 64; float a[64]; float b[64]; float c[64]; int i = 0; "
           "float total = 0; "
           "for(i=0;i<n;i++){ a[i] = a[i] + i; } "
           "for(i=0;i<n;i++){ b[i] = b[i] + i; } "
           "for(i=0;i<n;i++){ c[i] = c[i] + i; } "
           "total = a[1] + b[2] + c[3];")
    ast = parse_program(src)
    loops = extract_loops(ast)
    ids = loops.eligible_ids()
    costs = CostAnnotations(work={ids[0]: 500.0, ids[1]: 9000.0, ids[2]: 700.0})
    oracle_bits, oracle_fit = exhaustive_best(ast, loops, costs)
    assert oracle_bits == (0, 1, 0)
    result = run_ga(loops, sim_evaluator(ast, loops, costs), GaConfig(seed=42))
    assert result.best.gene == oracle_bits
    assert result.best.fitness == oracle_fit


def test_g3_matches_exhaustive_oracle_for_all_seeds():
    ast, loops, costs = load_instance("g3.mc", "g3_costs.json")
    oracle_bits, oracle_fit = exhaustive_best(ast, loops, costs)
    assert oracle_bits == (1, 1, 0)
    for seed in range(20):
        result = run_ga(loops, sim_evaluator(ast, loops, costs), GaConfig(seed=seed))
        assert result.best.gene == oracle_bits, seed
        assert result.best.fitness == oracle_fit


def test_monotone_best_with_elitism():
    ast, loops, costs = load_instance("g10.mc", "g10_costs.json")
    for seed in (0, 7, 99):
        result = run_ga(loops, sim_evaluator(ast, loops, costs), GaConfig(seed=seed))
        bests = [b for _, b, _ in result.history]
        assert all(x <= y for x, y in zip(bests, bests[1:]))


def test_memoization_and_seed_determinism():
    ast, loops, costs = load_instance("g3.mc", "g3_costs.json")
    calls = []
    inner = sim_evaluator(ast, loops, costs)

    def counting(pattern):
        calls.append(pattern.bits)
        return inner(pattern)

    cfg = GaConfig(seed=5)
    first = run_ga(loops, counting, cfg)
    assert len(calls) == len(set(calls))           # no pattern measured twice
    assert first.evaluations <= 2 ** loops.gene_length()
    second = run_ga(loops, counting, cfg)
    assert first.best.gene == second.best.gene
    assert first.history == second.history
    assert first.evaluations == second.evaluations


def test_concurrent_evaluation_matches_serial(monkeypatch):
    pools = []

    class CountedPool(ga.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ga, "ThreadPoolExecutor", CountedPool)
    ast, loops, costs = load_instance("g10.mc", "g10_costs.json")
    evaluator = sim_evaluator(ast, loops, costs)
    cfg = GaConfig(seed=11)
    serial = run_ga(loops, evaluator, cfg, workers=1)
    assert pools == []
    threaded = run_ga(loops, evaluator, cfg, workers=4)
    assert len(pools) == 1                   # one pool for the whole search
    assert serial.best.gene == threaded.best.gene
    assert serial.history == threaded.history
    assert serial.evaluations == threaded.evaluations


def test_gene_length_conserved_across_generations():
    ast, loops, costs = load_instance("g10.mc", "g10_costs.json")
    length = loops.gene_length()
    evaluator = sim_evaluator(ast, loops, costs)
    seen = []

    def spy(pattern):
        seen.append(len(pattern.bits))
        return evaluator(pattern)

    run_ga(loops, spy, GaConfig(seed=2))
    assert seen and set(seen) == {length}


def individual(bits, fitness):
    """A measured pattern for the operators, which read only its gene and
    fitness."""
    return Individual(OffloadPattern(bits), fitness,
                      Measurement(1 / fitness, 1 / fitness, 0.0, True))


def test_operators_disabled_resamples_multiset():
    pop = [individual((1, 0), 2.0),
           individual((0, 1), 1.0),
           individual((1, 1), 1.0),
           individual((0, 0), 4.0)]
    cfg = GaConfig(population_size=4, generations=1, crossover_rate=0.0,
                   mutation_rate_per_bit=0.0, elite_count=0, seed=9)
    out = next_generation(pop, cfg, random.Random(9))
    parents = {ind.gene for ind in pop}
    assert len(out) == 4
    assert all(child.bits in parents for child in out)


def test_elite_preserved_unchanged():
    pop = [individual((1, 0, 1), 5.0),
           individual((0, 1, 0), 1.0),
           individual((1, 1, 1), 0.5)]
    cfg = GaConfig(population_size=3, generations=1, elite_count=1,
                   mutation_rate_per_bit=1.0, seed=3)
    out = next_generation(pop, cfg, random.Random(3))
    assert out[0].bits == (1, 0, 1)


def test_full_mutation_complements_children():
    # crossover off, mutation 1: every non-elite child is the bitwise
    # complement of its selected parent gene (bit-flip oracle)
    pop = [individual((1, 0, 1, 1), 1.0),
           individual((0, 1, 0, 0), 1.0)]
    cfg = GaConfig(population_size=2, generations=1, crossover_rate=0.0,
                   mutation_rate_per_bit=1.0, elite_count=0, seed=21)
    out = next_generation(pop, cfg, random.Random(21))
    parents = {ind.gene for ind in pop}
    for child in out:
        flipped = tuple(b ^ 1 for b in child.bits)
        assert flipped in parents


def test_invalid_patterns_get_zero_fitness_and_never_win():
    ast = parse_program(read_corpus("nested_hoist.mc"))
    loops = extract_loops(ast)
    costs = CostAnnotations.load("corpus/nested_hoist_costs.json")
    evaluator = sim_evaluator(ast, loops, costs)
    for seed in range(25):
        result = run_ga(loops, evaluator, GaConfig(seed=seed))
        assert validate_pattern(result.best.pattern, loops) is None
        assert result.best.fitness > 0.0


GA_PINS = json.loads((Path(__file__).parent / "data" / "ga_pins.json").read_text())


@pytest.mark.parametrize("key", sorted(GA_PINS))
@pytest.mark.parametrize("workers", [1, 2])
def test_search_result_is_pinned(key, workers):
    # the whole SearchResult of the default GA, recorded before the GA's
    # state was reduced to its memo: nested_hoist.mc takes the invalid
    # pattern path, g3.mc is flat
    name, seed = key.split(":")
    ast, loops, costs = load_instance(name, name.replace(".mc", "_costs.json"))
    result = run_ga(loops, sim_evaluator(ast, loops, costs), GaConfig(seed=int(seed)),
                    workers=workers)
    assert result.to_json() == GA_PINS[key]


def test_external_times_negative_or_not_finite_never_win():
    # the command reports NaN times for patterns offloading the first loop
    # and negative ones for the rest, which a fitness of 1 / t_total would
    # rank above every finite time: only the all-zero pattern is valid
    loops = extract_loops(parse_program(read_corpus("g3.mc")))
    probe = ("import sys; bits = sys.argv[1]; "
             "print('nan nan nan 1' if bits[0] == '1' else '-1 -1 0 1' if '1' in bits "
             "else '2.0 2.0 0.0 1')")
    measured = {}

    def evaluate(pattern):
        m = evaluate_external(f'{sys.executable} -c "{probe}" {{pattern}}', "s",
                              pattern.as_string())
        measured[pattern.as_string()] = m
        return m

    result = run_ga(loops, evaluate, GaConfig(population_size=8, generations=4, seed=1))
    assert result.best.pattern.bits == (0,) * loops.gene_length()
    assert result.best.fitness == 0.5
    notes = {m.note.split(", got")[0] for bits, m in measured.items() if "1" in bits}
    assert notes == {"times must be finite and non-negative"}


# -- the exact optimum of the region-additive sim cost ----------------------

def dp_optimum(ast, loops, costs):
    """(total time, pattern) of the sim optimum, from one bottom-up pass
    over the loop tree: a loop's best cost is the cheaper of offloading it
    whole, when eligible, and keeping it on the host with each child at its
    best. Exact because the sim cost adds up per host loop and per region,
    and a region's transfer ops do not depend on the other regions."""
    host = {info.loop_id: _host_cost(loops, costs, info) or 0.0 for info in loops}
    ids = loops.eligible_ids()
    children = {}
    for info in loops:
        children.setdefault(info.parent_loop, []).append(info.loop_id)

    def region(root):
        alone = OffloadPattern(tuple(int(x == root) for x in ids))
        ops = plan_transfers(ast, loops, alone).ops
        return _region_cost(loops, costs, root) + sum(
            loops.exec_count(op.anchor_loop) * (costs.latency + op.bytes / costs.bandwidth)
            for op in ops)

    def best(lid):
        cost, roots = host[lid], []
        for child in children.get(lid, ()):
            child_cost, child_roots = best(child)
            cost += child_cost
            roots += child_roots
        if loops.by_id[lid].eligible and region(lid) < cost:
            return region(lid), [lid]
        return cost, roots

    total, roots = 0.0, []
    for top in children.get(None, ()):
        cost, top_roots = best(top)
        total += cost
        roots += top_roots
    return total, OffloadPattern(tuple(int(x in roots) for x in ids))


def corpus_instances():
    """Every corpus program with its cost file, or with a default work
    per loop (none on loops whose entry or trip count is unknown)."""
    for path in corpus_programs():
        ast = parse_program(path.read_text(encoding="utf-8"))
        loops = extract_loops(ast)
        costs_path = path.with_name(f"{path.stem}_costs.json")
        if costs_path.exists():
            costs = CostAnnotations.load(costs_path)
        else:
            costs = CostAnnotations(
                work={info.loop_id: 0.0 for info in loops
                      if info.trip_count is None or loops.exec_count(info.loop_id) is None},
                default_work=1000.0)
        yield path.name, ast, loops, costs


def test_dp_optimum_equals_the_exhaustive_optimum():
    checked = 0
    for name, ast, loops, costs in corpus_instances():
        if loops.gene_length() > 16:
            continue
        evaluate = sim_evaluator(ast, loops, costs)
        exhaustive = min(
            evaluate(pattern).t_total
            for pattern in map(OffloadPattern, itertools.product((0, 1), repeat=loops.gene_length()))
            if validate_pattern(pattern, loops) is None)
        value, pattern = dp_optimum(ast, loops, costs)
        assert math.isclose(value, exhaustive, rel_tol=1e-12), name
        assert validate_pattern(pattern, loops) is None
        assert math.isclose(evaluate(pattern).t_total, value, rel_tol=1e-12), name
        checked += 1
    assert checked == len(corpus_programs())


def test_no_ga_result_beats_the_dp_optimum(tmp_path):
    for program, costs in sim_benchmark_programs("sim-search", tmp_path):
        ast = parse_program(program.source)
        loops = extract_loops(ast)
        assert loops.gene_length() == 40
        value, pattern = dp_optimum(ast, loops, costs)
        evaluate = sim_evaluator(ast, loops, costs)
        assert math.isclose(evaluate(pattern).t_total, value, rel_tol=1e-12)
        config = json.loads((tmp_path / program.name / "config.json").read_text())
        result = run_ga(loops, evaluate, GaConfig.from_json(config["ga"]))
        assert result.best.measurement.t_total >= value * (1 - 1e-12), program.name
