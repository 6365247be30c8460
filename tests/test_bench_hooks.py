"""The traced benchmark (perfbench/spans.py) wraps layer functions at the
module attributes the pipeline calls them through. A refactor that moves
one of those call sites must fail here rather than silently drop spans."""

import ast
import importlib
import shutil
import sys
from collections import Counter

from conftest import CORPUS

SPANS = CORPUS.parent / "perfbench" / "spans.py"


def wrap_points() -> tuple:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "WRAP_POINTS" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAP_POINTS in {SPANS}")


def test_wrap_points_resolve_to_callables():
    points = [(module, attr) for module, attr, _ in wrap_points()]
    assert points
    for module, attr in points + [("offload_planner.cli", "run_ga")]:
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), f"{module}.{attr}"


def test_pipeline_calls_through_every_wrap_point(tmp_path, monkeypatch):
    for path in CORPUS.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / path.name)
    points = [(module, attr) for module, attr, _ in wrap_points()]
    points.append(("offload_planner.cli", "run_ga"))
    calls = Counter()

    def count(point):
        module = importlib.import_module(point[0])
        original = getattr(module, point[1])

        def counted(*args, **kwargs):
            calls[point] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, point[1], counted)

    for point in points:
        count(point)
    from offload_planner.cli import main

    assert main(["run-all", "--config", str(tmp_path / "g3_config.json")]) == 0
    # run-all hands verify the analyzed program; the verify subcommand parses
    assert main(["verify", "--plan", str(tmp_path / "out" / "plan.json"),
                 "--tests", str(tmp_path / "g3_tests.json"),
                 "--registry", str(tmp_path / "g3_registry.json"),
                 "-o", str(tmp_path / "v")]) == 0
    cmd = f'{sys.executable} -c "print(0.5, 0.25, 0.25, 1)"'
    assert main(["search", str(tmp_path / "g3.mc"), "--backend", "external",
                 "--cmd", cmd + " {src} {pattern}",
                 "--ga", "generations=2,population_size=4,seed=1",
                 "-o", str(tmp_path / "ext")]) == 0
    assert [point for point in points if not calls[point]] == []
