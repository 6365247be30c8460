"""Genetic-algorithm search over offload patterns.

Fitness is 1 / total processing time; invalid patterns (nested offload or a
failed measurement) get fitness 0 and die out under selection. Measurements
are memoized by gene so no pattern is measured twice, and all random draws
happen in a fixed phase order outside evaluation, so concurrent fitness
evaluation cannot perturb the seeded result.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

from .evaluation import Measurement
from .minic.loops import LoopTable
from .offload import OffloadPattern, validate_pattern


class UnevaluatedIndividual(Exception):
    pass


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


@dataclass
class Individual:
    pattern: OffloadPattern
    fitness: float | None = None      # None means unevaluated
    measurement: Measurement | None = None

    @property
    def gene(self) -> tuple:
        return self.pattern.bits


@dataclass
class SearchResult:
    best: Individual
    history: list = field(default_factory=list)  # (generation, best, mean)
    evaluations: int = 0
    config: GaConfig | None = None

    def to_json(self) -> dict:
        return {
            "best": {
                "bits": list(self.best.gene),
                "fitness": self.best.fitness,
                "measurement": (self.best.measurement.to_json()
                                if self.best.measurement else None),
            },
            "history": [
                {"generation": g, "best_fitness": b, "mean_fitness": m}
                for g, b, m in self.history
            ],
            "evaluations": self.evaluations,
            "config": self.config.to_json() if self.config else None,
        }


def fitness_of(measurement: Measurement) -> float:
    if not measurement.valid:
        return 0.0
    t = measurement.t_total
    return 1.0 / t if t > 0.0 else math.inf


def random_pattern(length: int, rng: random.Random) -> OffloadPattern:
    return OffloadPattern(tuple(rng.randint(0, 1) for _ in range(length)))


def next_generation(pop: list[Individual], cfg: GaConfig,
                    rng: random.Random) -> list[Individual]:
    """Elitism, roulette selection, single-point crossover, per-bit mutation."""
    for ind in pop:
        if ind.fitness is None:
            raise UnevaluatedIndividual(f"pattern {ind.pattern.as_string()} unevaluated")
    length = len(pop[0].gene)
    ranked = sorted(range(len(pop)), key=lambda i: (-pop[i].fitness, i))
    out = [Individual(pop[i].pattern) for i in ranked[: cfg.elite_count]]

    weights = [ind.fitness for ind in pop]
    total = sum(weights)
    uniform = total <= 0.0 or not math.isfinite(total)

    while len(out) < cfg.population_size:
        if uniform:
            p1, p2 = rng.choices(pop, k=2)
        else:
            p1, p2 = rng.choices(pop, weights=weights, k=2)
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
            out.append(Individual(OffloadPattern(bits)))
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

    def evaluate_all(pop: list[Individual]):
        fresh = []
        seen = set()
        for ind in pop:
            if ind.gene not in memo and ind.gene not in seen:
                seen.add(ind.gene)
                reason = validate_pattern(ind.pattern, loops)
                if reason is None:
                    fresh.append(ind)
                else:
                    memo[ind.gene] = Measurement.invalid(f"invalid pattern: {reason}")
        results = measure(evaluator, [ind.pattern for ind in fresh])
        for ind, m in zip(fresh, results):
            memo[ind.gene] = m
        for ind in pop:
            ind.measurement = memo[ind.gene]
            ind.fitness = fitness_of(ind.measurement)

    if length == 0:
        empty = Individual(OffloadPattern(()))
        evaluate_all([empty])
        return SearchResult(best=empty, history=[(0, empty.fitness, empty.fitness)],
                            evaluations=len(memo), config=cfg)

    pop = [Individual(random_pattern(length, rng)) for _ in range(cfg.population_size)]
    best: Individual | None = None
    history = []
    for generation in range(cfg.generations):
        evaluate_all(pop)
        for ind in pop:
            if best is None or ind.fitness > best.fitness:
                best = Individual(ind.pattern, ind.fitness, ind.measurement)
        gen_best = max(ind.fitness for ind in pop)
        gen_mean = sum(ind.fitness for ind in pop) / len(pop)
        history.append((generation, gen_best, gen_mean))
        if generation + 1 < cfg.generations:
            pop = next_generation(pop, cfg, rng)
    return SearchResult(best=best, history=history, evaluations=len(memo), config=cfg)
