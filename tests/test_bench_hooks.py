"""The traced benchmark (perfbench/spans.py) wraps layer functions at the
module attributes the pipeline calls them through. A refactor that moves
one of those call sites must fail here rather than silently drop spans."""

import ast
import importlib

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
