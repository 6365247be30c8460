"""Genetic-algorithm search over offload patterns.

Fitness is 1 / total processing time; invalid patterns (nested offload or a
failed measurement) get fitness 0 and die out under selection. The search's
only per-pattern state is its memo, gene -> Measurement: every pattern
enters it through one function that checks it (a nested pattern is stored
invalid unmeasured) and measures the rest once each, and every Individual
is an immutable record of a measured pattern read from the memo. All
random draws happen in a fixed phase order outside measurement, so
concurrent measurement cannot perturb the seeded result.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

from .evaluation import Measurement
from .minic.loops import LoopTable
from .offload import OffloadPattern, validate_pattern


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 16
    generations: int = 20
    crossover_rate: float = 0.9
    mutation_rate_per_bit: float = 0.05
    elite_count: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.population_size <= 0 or self.generations <= 0:
            raise ValueError("population_size and generations must be positive")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate_per_bit <= 1.0:
            raise ValueError("mutation_rate_per_bit must be in [0, 1]")
        if not 0 <= self.elite_count < self.population_size:
            raise ValueError("elite_count must be in [0, population_size)")

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(data: dict) -> "GaConfig":
        """Each field present in ``data``, converted to its default's type."""
        return GaConfig(**{f.name: type(f.default)(data[f.name])
                           for f in fields(GaConfig) if f.name in data})


@dataclass(frozen=True)
class Individual:
    """A measured pattern."""
    pattern: OffloadPattern
    fitness: float
    measurement: Measurement

    @property
    def gene(self) -> tuple:
        return self.pattern.bits


@dataclass
class SearchResult:
    best: Individual
    history: list  # (generation, best fitness, mean fitness)
    evaluations: int
    config: GaConfig

    def to_json(self) -> dict:
        return {
            "best": {
                "bits": list(self.best.gene),
                "fitness": self.best.fitness,
                "measurement": self.best.measurement.to_json(),
            },
            "history": [
                {"generation": g, "best_fitness": b, "mean_fitness": m}
                for g, b, m in self.history
            ],
            "evaluations": self.evaluations,
            "config": self.config.to_json(),
        }


def fitness_of(measurement: Measurement) -> float:
    if not measurement.valid:
        return 0.0
    t = measurement.t_total
    return 1.0 / t if t > 0.0 else math.inf


def random_pattern(length: int, rng: random.Random) -> OffloadPattern:
    return OffloadPattern(tuple(rng.randint(0, 1) for _ in range(length)))


def next_generation(pop: list[Individual], cfg: GaConfig,
                    rng: random.Random) -> list[OffloadPattern]:
    """Elitism, roulette selection, single-point crossover, per-bit mutation."""
    length = len(pop[0].gene)
    ranked = sorted(range(len(pop)), key=lambda i: (-pop[i].fitness, i))
    out = [pop[i].pattern for i in ranked[: cfg.elite_count]]

    weights = [ind.fitness for ind in pop]
    total = sum(weights)
    uniform = total <= 0.0 or not math.isfinite(total)

    while len(out) < cfg.population_size:
        p1, p2 = rng.choices(pop, weights=None if uniform else weights, k=2)
        g1, g2 = list(p1.gene), list(p2.gene)
        if length >= 2 and rng.random() < cfg.crossover_rate:
            point = rng.randrange(1, length)
            g1, g2 = g1[:point] + g2[point:], g2[:point] + g1[point:]
        for gene in (g1, g2):
            if len(out) >= cfg.population_size:
                break
            bits = tuple(
                bit ^ 1 if rng.random() < cfg.mutation_rate_per_bit else bit
                for bit in gene
            )
            out.append(OffloadPattern(bits))
    return out


def run_ga(loops: LoopTable, evaluator, cfg: GaConfig,
           workers: int = 1) -> SearchResult:
    """Search cfg.generations generations of cfg.population_size patterns.

    evaluator maps a Valid OffloadPattern to a Measurement and is treated as
    a one-shot oracle per gene. Deterministic given (cfg.seed, deterministic
    evaluator), with or without concurrent evaluation; with workers > 1 one
    thread pool serves the whole search.
    """
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return _search(loops, evaluator, cfg, pool.map)
    return _search(loops, evaluator, cfg, map)


def _search(loops: LoopTable, evaluator, cfg: GaConfig, measure) -> SearchResult:
    """run_ga's search; measure(evaluator, patterns) yields the measurements
    in order."""
    rng = random.Random(cfg.seed)
    length = loops.gene_length()
    memo: dict[tuple, Measurement] = {}

    def measured(patterns: list[OffloadPattern]) -> list[Individual]:
        """Each pattern as a measured individual. A pattern not yet in the
        memo is checked once: a nested one is stored invalid without being
        measured, the rest are measured in population order."""
        fresh = {}
        for pattern in patterns:
            if pattern.bits not in memo and pattern.bits not in fresh:
                reason = validate_pattern(pattern, loops)
                if reason is None:
                    fresh[pattern.bits] = pattern
                else:
                    memo[pattern.bits] = Measurement.invalid(f"invalid pattern: {reason}")
        memo.update(zip(fresh, measure(evaluator, list(fresh.values()))))
        return [Individual(p, fitness_of(memo[p.bits]), memo[p.bits]) for p in patterns]

    if length == 0:
        [empty] = measured([OffloadPattern(())])
        return SearchResult(empty, [(0, empty.fitness, empty.fitness)], len(memo), cfg)

    pop = measured([random_pattern(length, rng) for _ in range(cfg.population_size)])
    best = pop[0]
    history = []
    for generation in range(cfg.generations):
        best = max([best] + pop, key=lambda ind: ind.fitness)
        history.append((generation, max(ind.fitness for ind in pop),
                        sum(ind.fitness for ind in pop) / len(pop)))
        if generation + 1 < cfg.generations:
            pop = measured(next_generation(pop, cfg, rng))
    return SearchResult(best, history, len(memo), cfg)
