import contextlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture
def corpus_dir() -> Path:
    return CORPUS


def ratio_distance(cpu_units: int, dev_units: int, ratio) -> float:
    """Log-space distance of a unit pair from the ideal ratio; 0 on it. The
    objective of the planner oracles, which search every affordable pair."""
    return abs(math.log((cpu_units * ratio.dev) / (dev_units * ratio.cpu)))


def corpus_programs() -> list[Path]:
    return sorted(CORPUS.glob("*.mc"))


def read_corpus(name: str) -> str:
    return (CORPUS / name).read_text(encoding="utf-8")


def load_generator():
    """perfbench/corpus.py, the benchmark's seeded program generator."""
    path = CORPUS.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def sim_benchmark_programs(workload: str, directory: Path):
    """(program, cost annotations) of each seed-1 program of a sim workload
    of the benchmark, its costs read back from the file the benchmark
    writes for it under ``directory``."""
    from offload_planner.evaluation import CostAnnotations

    generator = load_generator()
    shape = generator.WORKLOADS[workload]
    for program in generator.generate(workload, 1):
        generator.write_program(program, shape, directory / program.name,
                                directory / "measure.awk")
        yield program, CostAnnotations.load(directory / program.name / "costs.json")


@contextlib.contextmanager
def hot_iterations(threshold):
    """Run with interp.HOT_ITERATIONS at ``threshold``: 1 emits every loop
    that has a static iteration count as source, math.inf none."""
    from offload_planner.minic import interp

    saved, interp.HOT_ITERATIONS = interp.HOT_ITERATIONS, threshold
    try:
        yield
    finally:
        interp.HOT_ITERATIONS = saved


def in_both_tiers(run):
    """run() with closures only, then with every loop that has a static
    iteration count (in the loop tables it is given) run as generated
    source. Both must return results with equal reprs, which shows every
    float bit for bit, or raise the same exception type with the same
    message. Returns the result, or raises the exception, of closures."""
    outcomes = []
    for threshold in (math.inf, 1):
        with hot_iterations(threshold):
            try:
                result = run()
            except Exception as exc:  # compared below, then re-raised
                outcomes.append((type(exc), str(exc), exc))
            else:
                outcomes.append((None, repr(result), result))
    closures, source = outcomes
    assert source[:2] == closures[:2]
    if closures[0] is not None:
        raise closures[2]
    return closures[2]


@pytest.fixture
def nests(monkeypatch):
    """The loop id of each hot root emitted as source, in order."""
    from offload_planner.minic import interp

    build = interp._Nest.build

    def spy(self, loop, dev):
        roots.append(loop.node_id)
        return build(self, loop, dev)

    roots = []
    monkeypatch.setattr(interp._Nest, "build", spy)
    return roots


@pytest.fixture
def compiled(monkeypatch):
    """Each source the generated tier passes to compile(), in order."""
    from offload_planner.minic import interp

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    sources = []
    monkeypatch.setattr(interp, "compile", spy, raising=False)
    return sources
