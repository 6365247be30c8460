"""Tests of the repository tools under tools/."""

import importlib.util
import json

from conftest import CORPUS

TOOLS = CORPUS.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def search_json(t_total) -> bytes:
    return json.dumps({"best": {"measurement": {"t_total": t_total}}}).encode()


def test_same_answers_reports_how_far_the_best_answer_moved():
    moved = load_tool("same_answers").search_moved
    assert moved(search_json(2.0), search_json(1.5)) == (
        "best t_total 2.0 against 1.5, ratio 0.75")
    assert moved(search_json("INFINITE_TIME"), search_json(1.5)) == (
        "best t_total 'INFINITE_TIME' against 1.5")
    assert moved(search_json(0.0), search_json(1.5)) == "best t_total 0.0 against 1.5"
