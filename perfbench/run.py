"""Benchmark: offload-planner run-all over a seeded synthetic MiniC corpus.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One operation is one program taken
through ``run-all``, called in-process through ``offload_planner.cli``.
Operations run in whole rounds over the workload's programs until S
seconds of operations have been timed, and at least two rounds, so every
program is repeated. Every operation's and set-up's wall time is reported
scaled by a machine-speed probe timed next to it (see PROBE_REF_S). Every
operation's outputs are checked outside the timed region (see checks.py). The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
rounds alternate between untraced and traced, and the metrics are the
per-layer ones from the traced rounds (see spans.py), whose spans are
written to ``.perfbench-trace/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import corpus
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MEASURE = HERE / "measure.awk"
SETUP_REPEATS = 5
MIN_ROUNDS = 2

# Machine-speed probe. On a shared host the speed of the same Python code
# drifts by up to a factor 1.7 over seconds to minutes, which moved the raw
# median of a whole run by a quarter. A fixed piece of pure-Python work of
# the benchmark's own is timed right before and after every operation and
# set-up, and each of their wall times is scaled to the speed at which the
# probe takes PROBE_REF_S. The probe never calls the program, so a change
# to the program moves the scaled times exactly as much as the raw ones.
PROBE_REF_S = 0.01
PROBE_REPEATS = 3
_PROBE_TREE = ("+", ("*", "x", 0.5), ("-", "y", ("*", 0.25, "x")))


def _probe_eval(tree, env: dict) -> float:
    if isinstance(tree, tuple):
        op, left, right = tree
        a, b = _probe_eval(left, env), _probe_eval(right, env)
        return a + b if op == "+" else a - b if op == "-" else a * b
    return env[tree] if isinstance(tree, str) else tree


def probe_s() -> float:
    """Mean wall seconds of the probe work: a small tree-walking evaluator,
    the kind of code the pipeline runs."""
    total = 0.0
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        env = {"x": 0.0, "y": 2.25}
        recent = []
        for k in range(5000):
            env["x"] = k * 0.001
            recent.append((k, _probe_eval(_PROBE_TREE, env)))
            if len(recent) > 64:
                recent.clear()
        total += time.perf_counter() - start
    return total / PROBE_REPEATS


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="offload-planner run-all benchmark")
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(cli, config: Path, tracer: Tracer | None):
    """One operation: (exit code or None, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["run-all", "--config", str(config)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tracer.run_op(cli.main, argv) if tracer else cli.main(argv)
        except Exception:  # the run goes on; the operation counts as failed
            code = None
            traceback.print_exc()
    return code, err.getvalue()


def probed(fn, probes: list):
    """Run fn() between two probes, whose times are added to ``probes``.
    Returns fn's result, its wall seconds, and those seconds scaled to the
    speed at which the probe takes PROBE_REF_S."""
    before = probe_s()
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    after = probe_s()
    probes += (before, after)
    return result, seconds, seconds * 2 * PROBE_REF_S / (before + after)


def read_tree(directory: Path) -> dict:
    return {str(p.relative_to(directory)): (p.read_bytes() if p.is_file() else None)
            for p in sorted(directory.rglob("*"))}


def set_up(cli, workload: str, seed: int, directory: Path):
    """Generate and write the corpus, then warm up with one small run-all."""
    shape = corpus.WORKLOADS[workload]
    programs = corpus.generate(workload, seed)
    configs = [corpus.write_program(p, shape, directory / p.name, MEASURE)
               for p in programs]
    warm_shape = dataclasses.replace(corpus.WARMUP, backend=shape.backend,
                                     workers=shape.workers)
    warm = corpus.generate("warm-up", seed, warm_shape)[0]
    warm_config = corpus.write_program(warm, warm_shape, directory / "warm-up", MEASURE)
    code, err = run_all(cli, warm_config, None)
    if code != 0:
        raise RuntimeError(f"warm-up run-all exited {code}: {err.strip()}")
    return programs, configs


def full_check(program, shape, directory: Path, artifacts: dict) -> tuple[list, dict, float]:
    """All checks of a program's first operation. Returns the failures, the
    expected final values and the all-zero pattern's total time."""
    from offload_planner import (CostAnnotations, OffloadPattern, evaluate_sim,
                                 extract_loops, interpret, parse_program,
                                 plan_transfers, simulate_with_plan)

    def load(name):
        return json.loads(artifacts[name])

    pattern, search, plan = load("pattern.json"), load("search.json"), load("plan.json")
    failures = checks.check_ready(load("report.json"))
    failures += checks.check_pattern(program, pattern)
    if failures:
        return failures, {}, math.nan
    bits = pattern["bits"]
    if search["best"]["bits"] != bits:
        failures.append("search.json and pattern.json disagree on the pattern")
    annotated = artifacts[f"{program.name}.acc.mc"].decode("utf-8")
    failures += checks.check_annotated(program, annotated, bits)
    failures += checks.check_plan(search, plan, corpus.PRICES, corpus.BUDGET)

    expected = program.expected_outputs()
    ast = parse_program(program.source)
    loops = extract_loops(ast)
    chosen = OffloadPattern(tuple(bits))
    failures += checks.check_outputs(expected, interpret(ast), "interpret")
    sim = simulate_with_plan(ast, loops, chosen, plan_transfers(ast, loops, chosen))
    failures += checks.check_outputs(expected, sim.outputs, "simulate_with_plan")

    zeros = [0] * len(bits)
    if shape.backend == "sim":
        t_zero = program.sim_cpu_only_time()
        costs = CostAnnotations.load(directory / "costs.json")
        none = OffloadPattern(tuple(zeros))
        model = evaluate_sim(ast, loops, none, plan_transfers(ast, loops, none), costs)
        if model.t_total != t_zero:
            failures.append(f"sim all-zero time {model.t_total!r} != {t_zero!r}")
    else:
        failures += checks.check_external(program, search)
        t_zero = measure_all_zero(program, directory, zeros)
        if t_zero != program.ext_measure(zeros)[0]:
            failures.append(f"measure.awk all-zero time {t_zero!r} != formula")
    return failures, expected, t_zero


def measure_all_zero(program, directory: Path, zeros) -> float:
    """Run measure.awk itself on the unannotated source and all-zero pattern."""
    pattern_path = directory / "all-zero.json"
    pattern_path.write_text(json.dumps({"bits": zeros}), encoding="utf-8")
    proc = subprocess.run(
        ["awk", "-f", str(MEASURE), str(directory / "params.txt"),
         str(directory / f"{program.name}.mc"), str(pattern_path)],
        capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[0])


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("OFFLOAD_SEED", None)   # the environment must not pick the GA seed
    package = ROOT / "src" / "offload_planner"
    if not package.is_dir():
        print(f"error: no {package.relative_to(ROOT)} in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    probes: list = []
    cli, _, import_s = probed(lambda: importlib.import_module("offload_planner.cli"), probes)

    shape = corpus.WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        return measure(cli, args, shape, work, import_s, probes)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(cli, args, shape, work: Path, import_s: float, probes: list) -> int:
    setups = []
    for rep in range(SETUP_REPEATS):
        directory = work / f"setup{rep}"
        (programs, configs), _, scaled = probed(
            lambda: set_up(cli, args.workload, args.seed, directory), probes)
        setups.append(scaled)

    tracer = Tracer({p.source: p.iterations for p in programs}) if args.trace else None
    durations = {False: [], True: []}          # scaled seconds of successful
    raw = []                                    # operations, by traced; raw untraced
    first: dict = {}                            # program name -> first artifacts
    speedups = {}                               # program name -> offload speedup
    by_program: dict = {}                       # program name -> scaled seconds
    failures = []                               # operations that did not finish
    problems = []                               # wrong outputs of finished ones
    attempted = 0
    timed = last_round = 0.0
    rounds = 0
    # whole rounds, stopping at the round end nearest to --seconds
    while rounds < MIN_ROUNDS or timed + last_round / 2 < args.seconds:
        round_start = timed
        traced = bool(tracer) and rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            for program, config in zip(programs, configs):
                out_dir = config.parent / "out"
                shutil.rmtree(out_dir, ignore_errors=True)
                (code, err), seconds, scaled = probed(
                    lambda: run_all(cli, config, tracer if traced else None), probes)
                attempted += 1
                timed += seconds
                if code != 0:
                    failures.append(f"{program.name}: run-all exited {code}: {err.strip()[-400:]}")
                    continue
                durations[traced].append(scaled)
                if not traced:
                    raw.append(seconds)
                by_program.setdefault(program.name, []).append(scaled)
                artifacts = read_tree(out_dir)
                if program.name in first:
                    problems += checks.check_same(first[program.name], artifacts)
                    continue
                first[program.name] = artifacts
                try:
                    found, expected, t_zero = full_check(program, shape, config.parent, artifacts)
                except Exception:  # a check that crashes is a failed check
                    found = [traceback.format_exc()]
                problems += [f"{program.name}: {msg}" for msg in found]
                if found:
                    continue
                search = json.loads(artifacts["search.json"])
                speedups[program.name] = t_zero / search["best"]["measurement"]["t_total"]
                if len(first) == 1:
                    missed = checks.self_check(program, artifacts, expected,
                                               corpus.PRICES, corpus.BUDGET)
                    problems += [f"self-check missed: {m}" for m in missed]
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
        last_round = timed - round_start

    for msg in failures + problems:
        print(f"problem: {msg}", file=sys.stderr)
    if not durations[False] or (tracer and not durations[True]):
        print("error: no run-all operation finished", file=sys.stderr)
        return 1
    if tracer:
        overhead = statistics.median(durations[True]) - statistics.median(durations[False])
        trace_dir = ROOT / ".perfbench-trace"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed})
        metrics = tracer.metrics(overhead)
    else:
        ok = durations[False]
        metrics = {
            "run_all_s.p50": (statistics.median(ok), "s"),
            "programs_per_s": (len(ok) / sum(ok), "1/s"),
            "offload_speedup": (statistics.geometric_mean(speedups.values()), "x"),
            "setup_s": (import_s + statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds of "
          f"{len(programs)} programs, {attempted} run-all operations, "
          f"{len(failures)} failed; unscaled median {statistics.median(raw):.4g} s, "
          f"median probe {statistics.median(probes):.4g} s")
    for program in programs:
        times = by_program.get(program.name, [])
        print(f"  {program.name}: {len(program.eligible)} eligible loops, "
              f"{program.iterations} iterations, {len(times)} operations, median "
              f"{statistics.median(times) if times else math.nan:.4g} s, offload speedup "
              f"{speedups.get(program.name, math.nan):.4g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
