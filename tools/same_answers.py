"""Check that two checkouts of offload-planner give the same answers.

    python3 tools/same_answers.py OLD_ROOT NEW_ROOT

Both sides get the same inputs: the seed-1 programs of the three benchmark
workloads, written by OLD_ROOT's perfbench/corpus.py (loaded by path and
only read), and a copy of OLD_ROOT's corpus/. Each side then runs
``run-all`` on every config, with its own src/ on PYTHONPATH, from its own
input directory, so that paths in messages read the same. The output
trees, standard output, standard error and exit codes are compared;
config.json files are skipped, because they hold absolute paths. Where a
search.json differs, each side's best t_total and their ratio are
printed, which shows how far an answer moved.

A planner sweep then sizes the same seeded instances on both sides, one
subprocess per side with its own src/: compute_ratio and plan_amount, or
plan_device_bound when the CPU time is 0, one JSON line per instance.
Each instance's unit grid (affordable CPU counts times device counts)
stays within 10^6 pairs, so a planner that enumerates pairs answers too.

Exits 0 when everything is identical, and 1 after listing what differs.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

WORKLOADS = ("sim-search", "verify-heavy", "external-search")
SEED = 1
SKIPPED = "config.json"
PLANNER_INSTANCES = 4000
UNITS_PER_SIDE = 1000  # most units one side affords, so the grid is <= 10^6

PLANNER_SWEEP = """
import json, sys
from offload_planner.planner import (
    PriceBook, compute_ratio, plan_amount, plan_device_bound)
for line in sys.stdin:
    t_cpu, t_dev, p_c, p_g, budget = json.loads(line)
    prices = PriceBook(p_c, p_g)
    try:
        if t_cpu == 0:
            ratio, allocation = None, plan_device_bound(prices, budget)
        else:
            ratio = compute_ratio(t_cpu, t_dev)
            allocation = plan_amount(ratio, prices, budget)
        print(json.dumps([repr(ratio), allocation.to_json()]))
    except Exception as exc:
        print(json.dumps(f"{type(exc).__name__}: {exc}"))
"""


def load_generator(root: Path):
    path = root / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("same_answers_corpus", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def write_inputs(root: Path, side: Path) -> list[Path]:
    """Write every input under ``side``; the configs, relative to it."""
    generator = load_generator(root)
    measure = root / "perfbench" / "measure.awk"
    configs = []
    for workload in WORKLOADS:
        shape = generator.WORKLOADS[workload]
        for program in generator.generate(workload, SEED):
            config = generator.write_program(
                program, shape, side / workload / program.name, measure)
            configs.append(config.relative_to(side))
    shutil.copytree(root / "corpus", side / "corpus")
    configs += sorted(p.relative_to(side) for p in (side / "corpus").glob("*config.json"))
    return configs


def run_all(root: Path, side: Path, config: Path) -> tuple:
    """(exit code, stdout, stderr) of run-all on ``config`` with root's src."""
    env = {key: value for key, value in os.environ.items() if key != "OFFLOAD_SEED"}
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "offload_planner.cli", "run-all", "--config", str(config)],
        cwd=side, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def planner_instances() -> list[list[float]]:
    """(t_cpu, t_dev, p_c, p_g, budget) of each sweep instance. A tenth of
    the times are 0; budgets lie at, or one float step beside, the cost of
    a unit pair, where budget / price can round to one unit too many or too
    few, or anywhere below UNITS_PER_SIDE of the cheaper unit."""
    rng = random.Random(SEED)
    instances = []
    while len(instances) < PLANNER_INSTANCES:
        t_cpu, t_dev = (0.0 if rng.random() < 0.1 else 10 ** rng.uniform(-3, 2)
                        for _ in range(2))
        p_c, p_g = (round(rng.uniform(0.5, 50), rng.randint(0, 3)) for _ in range(2))
        edge = rng.choice((rng.randint(1, 300) * p_c + rng.randint(1, 3) * p_g,
                           rng.randint(1, 3) * p_c + rng.randint(1, 300) * p_g,
                           rng.uniform(0, UNITS_PER_SIDE * min(p_c, p_g))))
        budget = rng.choice((edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)))
        if budget <= UNITS_PER_SIDE * min(p_c, p_g):
            instances.append([t_cpu, t_dev, p_c, p_g, budget])
    return instances


def planner_sweep(root: Path, instances: list) -> tuple:
    """(exit code, stdout lines, stderr) of the sweep with root's src."""
    proc = subprocess.run(
        [sys.executable, "-c", PLANNER_SWEEP], env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True,
        input="".join(json.dumps(instance) + "\n" for instance in instances))
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def compare_plans(old_root: Path, new_root: Path) -> list:
    """What differs between the two sides' planner sweeps, one line each."""
    instances = planner_instances()
    (old_code, old_lines, old_err), (new_code, new_lines, new_err) = (
        planner_sweep(root, instances) for root in (old_root, new_root))
    differences = [f"planner sweep: {name} differs"
                   for name, a, b in (("exit code", old_code, new_code),
                                      ("stderr", old_err, new_err),
                                      ("instance count", len(old_lines), len(new_lines)))
                   if a != b]
    differences += [f"planner instance {instance}: {a} against {b}"
                    for instance, a, b in zip(instances, old_lines, new_lines) if a != b]
    return differences


def tree(side: Path) -> dict:
    """Relative path -> file bytes, or None for a directory."""
    return {str(p.relative_to(side)): (p.read_bytes() if p.is_file() else None)
            for p in sorted(side.rglob("*")) if p.name != SKIPPED}


def search_moved(old: bytes, new: bytes) -> str:
    """How far the best answer moved between two search.json files: each
    side's best t_total, and new over old when both are positive numbers."""
    a, b = (json.loads(data)["best"]["measurement"]["t_total"] for data in (old, new))
    text = f"best t_total {a!r} against {b!r}"
    if all(isinstance(t, float) and t > 0 for t in (a, b)):
        text += f", ratio {b / a:.6g}"
    return text


def compare(old_root: Path, new_root: Path, work: Path) -> tuple[list, dict, int]:
    """(what differs, one line each; the old side's count of configs per
    exit code; paths compared)."""
    sides = {}
    for label, root in (("old", old_root), ("new", new_root)):
        side = work / label
        configs = write_inputs(old_root, side)
        sides[label] = {str(c): run_all(root, side, c) for c in configs}
    differences = []
    for config, old in sides["old"].items():
        new = sides["new"][config]
        for name, a, b in zip(("exit code", "stdout", "stderr"), old, new):
            if a != b:
                differences.append(f"{config}: {name} differs")
    old_tree, new_tree = tree(work / "old"), tree(work / "new")
    for path in sorted(old_tree.keys() | new_tree.keys()):
        if path not in old_tree or path not in new_tree:
            differences.append(f"{path}: only in {'old' if path in old_tree else 'new'}")
        elif old_tree[path] != new_tree[path]:
            moved = (f"; {search_moved(old_tree[path], new_tree[path])}"
                     if path.endswith("search.json") else "")
            differences.append(f"{path}: contents differ{moved}")
    codes = Counter(code for code, _, _ in sides["old"].values())
    return differences, dict(sorted(codes.items())), len(old_tree)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-answers-") as work:
        differences, codes, paths = compare(args.old_root.resolve(),
                                              args.new_root.resolve(), Path(work))
    differences += compare_plans(args.old_root.resolve(), args.new_root.resolve())
    for line in differences:
        print(line)
    # a run that fails alike on both sides is identical too: the exit codes
    # show whether the runs did their work
    summary = f"{sum(codes.values())} configs, exit codes {codes}"
    sweep = f"{PLANNER_INSTANCES} planner instances"
    if differences:
        print(f"{len(differences)} differences; {summary}; {sweep}")
        return 1
    print(f"identical: {summary}, {paths} paths of output and input; {sweep}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
