import importlib.util
import sys
from pathlib import Path

import pytest

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture
def corpus_dir() -> Path:
    return CORPUS


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
