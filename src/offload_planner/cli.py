"""Pipeline orchestration CLI.

Subcommands mirror the pipeline stages and share stable file contracts so
they compose: analyze -> loops.json; search -> pattern.json, the annotated
.acc.mc source, search.json; plan -> plan.json; verify -> report.json and
report.txt. Files are the contract only between subcommands run
separately: run-all chains all four from one JSON config, reads the
program and its cost annotations once in the analyze stage and passes
values from stage to stage (verify reuses the analyzed program for every
sim case that names the config's source, so run-all parses it once), and
exits 0 only when the verification report says ready.

Exit codes: 0 ready, 1 attention, 2 configuration or infeasibility errors.
The OFFLOAD_SEED environment variable overrides the configured GA seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

from .evaluation import (
    DEFAULT_TIMEOUT,
    CostAnnotations,
    CostModelError,
    Measurement,
    MissingAnnotation,
    SpawnError,
    ToleranceSpec,
    evaluate_external,
    evaluate_sim,
)
from .ga import GaConfig, SearchResult, run_ga
from .minic.interp import EvalError
from .minic.loops import LoopTable, extract_loops
from .minic.parser import ParseError, parse_program
from .offload import (
    OffloadPattern,
    emit_annotated,
    plan_transfers,
    save_pattern,
)
from .planner import (
    Allocation,
    CpuOnly,
    Infeasible,
    NonPositiveTime,
    PriceBook,
    compute_ratio,
    plan_amount,
    plan_device_bound,
)
from .verify import ConfigError, load_registry, load_tests, run_verification

EXIT_READY = 0
EXIT_ATTENTION = 1
EXIT_CONFIG = 2

_CONFIG_FAULTS = (ConfigError, Infeasible, NonPositiveTime, MissingAnnotation,
                  CostModelError, ParseError, SpawnError, EvalError, OSError,
                  ValueError, KeyError)


@dataclass
class PipelineConfig:
    source: Path
    backend: str                   # "sim" | "external"
    costs: Path | None
    command: str | None
    ga: GaConfig
    prices: PriceBook
    budget: float
    tests: Path
    registry: Path
    components: list
    tolerance: ToleranceSpec
    output_dir: Path
    workers: int = 1
    timeout: float = DEFAULT_TIMEOUT


def load_config(path) -> PipelineConfig:
    cfg_path = Path(path)
    base = cfg_path.parent
    with open(cfg_path, encoding="utf-8") as f:
        raw = json.load(f)

    def resolve(key, required=True):
        value = raw.get(key)
        if value is None:
            if required:
                raise ConfigError(f"config key '{key}' is required")
            return None
        p = base / value
        if not p.exists():
            raise ConfigError(f"config key '{key}': no such file {p}")
        return p

    backend = raw.get("backend", "sim")
    if backend not in ("sim", "external"):
        raise ConfigError(f"backend must be 'sim' or 'external', got {backend!r}")
    command = raw.get("command")
    if backend == "external" and not command:
        raise ConfigError("external backend needs a 'command' template")
    if backend == "sim" and command:
        raise ConfigError("exactly one backend: drop 'command' or use backend=external")
    ga = _ga_config(raw.get("ga", {}))
    prices_raw = raw.get("prices", {})
    return PipelineConfig(
        source=resolve("source"),
        backend=backend,
        costs=resolve("costs", required=backend == "sim"),
        command=command,
        ga=ga,
        prices=PriceBook(float(prices_raw["cpu_unit_price"]),
                         float(prices_raw["dev_unit_price"])),
        budget=float(raw["budget"]),
        tests=resolve("tests"),
        registry=resolve("registry"),
        components=list(raw.get("components", [])),
        tolerance=ToleranceSpec.from_json(raw.get("tolerance", {})),
        output_dir=base / raw.get("output_dir", "out"),
        workers=int(raw.get("workers", 1)),
        timeout=float(raw.get("timeout", DEFAULT_TIMEOUT)),
    )


def _write_json(path: Path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _load_program(source: Path, costs_path: Path | None):
    """(ast, loop table, cost annotations or None) of a program on disk;
    the annotations must name only loops of the program."""
    with open(source, encoding="utf-8") as f:
        ast = parse_program(f.read())
    loops = extract_loops(ast)
    costs = None
    if costs_path is not None:
        costs = CostAnnotations.load(costs_path)
        stray = sorted(set(costs.work) - {info.loop_id for info in loops})
        if stray:
            raise ConfigError(f"cost annotations reference unknown loop ids {stray}")
    return ast, loops, costs


# -- stages -----------------------------------------------------------------

def stage_analyze(source: Path, outdir: Path, costs_path: Path | None = None):
    """Load the program and its cost annotations, write loops.json and
    return (ast, loops, costs) for the later stages."""
    ast, loops, costs = _load_program(source, costs_path)
    _write_json(outdir / "loops.json", loops.to_json())
    return ast, loops, costs


def make_evaluator(ast, loops, backend: str, costs: CostAnnotations | None,
                   command: str | None, outdir: Path, timeout: float):
    """pattern -> Measurement closure for the chosen backend."""
    if backend == "sim":
        def sim_eval(pattern: OffloadPattern) -> Measurement:
            plan = plan_transfers(ast, loops, pattern)
            return evaluate_sim(ast, loops, pattern, plan, costs)

        return sim_eval

    workdir = outdir / "measure"
    workdir.mkdir(parents=True, exist_ok=True)

    def external_eval(pattern: OffloadPattern) -> Measurement:
        plan = plan_transfers(ast, loops, pattern)
        text = emit_annotated(ast, pattern, plan, loops)
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            src, pat = Path(tmp) / "source.acc.mc", Path(tmp) / "pattern.json"
            _write_text(src, text)
            save_pattern(pat, pattern, loops)
            return evaluate_external(command, src, pat, timeout=timeout)

    return external_eval


def stage_search(ast, loops: LoopTable, costs: CostAnnotations | None,
                 name: str, outdir: Path, backend: str, command: str | None,
                 ga: GaConfig, workers: int = 1,
                 timeout: float = DEFAULT_TIMEOUT) -> SearchResult:
    evaluator = make_evaluator(ast, loops, backend, costs, command, outdir, timeout)
    result = run_ga(loops, evaluator, ga, workers=workers)
    m = result.best.measurement
    if m is None or not m.valid:
        raise ConfigError("search produced no valid measurement; cannot size resources")
    best = result.best.pattern
    outdir.mkdir(parents=True, exist_ok=True)
    save_pattern(outdir / "pattern.json", best, loops)
    plan = plan_transfers(ast, loops, best)
    annotated = emit_annotated(ast, best, plan, loops)
    _write_text(outdir / f"{name}.acc.mc", annotated)
    _write_json(outdir / "search.json", result.to_json())
    return result


def stage_plan(t_cpu: float, t_dev: float, prices: PriceBook, budget: float,
               outdir: Path) -> Allocation:
    """Size the allocation and write plan.json. A zero CPU part with a
    positive device part (every loop that carries work offloaded) has no
    ratio: its ratio is recorded as 0:1 and sized by plan_device_bound.
    compute_ratio rejects a time that is not finite."""
    if t_cpu == 0 and 0 < t_dev < math.inf:
        allocation = plan_device_bound(prices, budget)
        ratio_json = {"cpu": 0, "dev": 1}
    else:
        ratio = compute_ratio(t_cpu, t_dev)
        allocation = plan_amount(ratio, prices, budget)
        ratio_json = (None if isinstance(ratio, CpuOnly)
                      else asdict(ratio))
    _write_json(outdir / "plan.json", {
        "ratio": ratio_json,
        "allocation": allocation.to_json(),
        "inputs": {
            "t_cpu": t_cpu,
            "t_dev": t_dev,
            "prices": asdict(prices),
            "budget": budget,
        },
    })
    return allocation


def stage_verify(allocation: Allocation, t_cpu: float, t_dev: float,
                 tests: list, registry: dict, components: list,
                 outdir: Path, tolerance: ToleranceSpec | None = None,
                 timeout: float = DEFAULT_TIMEOUT, analyzed: tuple | None = None) -> int:
    """Run verification, write report.json and report.txt and print the
    report. ``analyzed`` is the (path, ast, loop table) of a program already
    loaded, which the sim cases naming that file reuse."""
    measurement = Measurement(t_cpu + t_dev, t_cpu, t_dev, valid=True)
    report = run_verification(allocation, measurement, tests, registry,
                              components, default_tolerance=tolerance,
                              timeout=timeout, analyzed=analyzed)
    _write_json(outdir / "report.json", report.to_json())
    text = report.to_text()
    _write_text(outdir / "report.txt", text)
    sys.stdout.write(text)
    return EXIT_READY if report.recommendation == "ready" else EXIT_ATTENTION


def run_pipeline(cfg: PipelineConfig) -> int:
    """analyze -> search -> plan -> verify, writing all artifacts."""
    outdir = cfg.output_dir
    ast, loops, costs = stage_analyze(cfg.source, outdir, cfg.costs)
    result = stage_search(ast, loops, costs, cfg.source.stem, outdir,
                          cfg.backend, cfg.command, cfg.ga, cfg.workers,
                          cfg.timeout)
    m = result.best.measurement
    allocation = stage_plan(m.t_cpu_part, m.t_dev_part, cfg.prices,
                            cfg.budget, outdir)
    tests = load_tests(cfg.tests)
    registry = load_registry(cfg.registry)
    return stage_verify(allocation, m.t_cpu_part, m.t_dev_part, tests,
                        registry, cfg.components, outdir, cfg.tolerance,
                        cfg.timeout, analyzed=(cfg.source, ast, loops))


# -- argument parsing --------------------------------------------------------

def _ga_config(data: dict) -> GaConfig:
    """GaConfig from its JSON fields; OFFLOAD_SEED, when set, replaces the
    seed."""
    seed_override = os.environ.get("OFFLOAD_SEED")
    if seed_override is not None:
        data = {**data, "seed": int(seed_override)}
    return GaConfig.from_json(data)


def _parse_ga_overrides(spec: str | None, base: GaConfig) -> GaConfig:
    data = base.to_json()
    if spec:
        for item in spec.split(","):
            if not item:
                continue
            key, _, value = item.partition("=")
            if key not in data:
                raise ConfigError(f"unknown GA parameter {key!r}")
            data[key] = value
    return _ga_config(data)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="offload-planner",
        description="Find loop-offload patterns, plan transfers, size the "
                    "CPU/device allocation under a budget, and verify the result.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="parse a program and export its loop table")
    p.add_argument("src")
    p.add_argument("--costs", default=None)
    p.add_argument("-o", "--output-dir", default="out")

    p = sub.add_parser("search", help="GA search for the best offload pattern")
    p.add_argument("src")
    p.add_argument("--costs", default=None)
    p.add_argument("--backend", choices=["sim", "external"], default="sim")
    p.add_argument("--cmd", dest="cmd_template", default=None,
                   help="external measurement command template with {src} and "
                        "{pattern} slots")
    p.add_argument("--ga", default=None, metavar="k=v,...",
                   help="GA parameter overrides")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    p.add_argument("-o", "--output-dir", default="out")

    p = sub.add_parser("plan", help="derive the resource ratio and size the allocation")
    p.add_argument("--measure", required=True, metavar="T_CPU,T_DEV")
    p.add_argument("--price-cpu", type=float, required=True)
    p.add_argument("--price-dev", type=float, required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("-o", "--output-dir", default="out")

    p = sub.add_parser("verify", help="run deployment verification and emit the report")
    p.add_argument("--plan", required=True)
    p.add_argument("--tests", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--components", default=None,
                   help="comma-separated declared components "
                        "(default: all registry entries)")
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    p.add_argument("-o", "--output-dir", default="out")

    p = sub.add_parser("run-all", help="run the whole pipeline from a config file")
    p.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "analyze":
            costs = Path(args.costs) if args.costs else None
            stage_analyze(Path(args.src), Path(args.output_dir), costs)
            return EXIT_READY
        if args.cmd == "search":
            return _cmd_search(args)
        if args.cmd == "plan":
            try:
                t_cpu_txt, t_dev_txt = args.measure.split(",")
                t_cpu, t_dev = float(t_cpu_txt), float(t_dev_txt)
            except ValueError as exc:
                raise ConfigError(f"--measure expects 'T_CPU,T_DEV': {exc}") from exc
            stage_plan(t_cpu, t_dev, PriceBook(args.price_cpu, args.price_dev),
                       args.budget, Path(args.output_dir))
            return EXIT_READY
        if args.cmd == "verify":
            registry = load_registry(args.registry)
            components = (args.components.split(",") if args.components
                          else sorted(registry))
            with open(args.plan, encoding="utf-8") as f:
                plan = json.load(f)
            alloc = plan["allocation"]
            allocation = Allocation(alloc["cpu_units"], alloc["dev_units"],
                                    alloc["monthly_cost"], alloc["ratio_kept"])
            tests = load_tests(args.tests)
            return stage_verify(allocation, plan["inputs"]["t_cpu"],
                                plan["inputs"]["t_dev"], tests, registry,
                                components, Path(args.output_dir),
                                timeout=args.timeout)
        if args.cmd == "run-all":
            return run_pipeline(load_config(args.config))
        raise ConfigError(f"unknown command {args.cmd!r}")
    except _CONFIG_FAULTS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _cmd_search(args) -> int:
    if args.backend == "external" and not args.cmd_template:
        raise ConfigError("external backend needs --cmd")
    if args.backend == "sim" and not args.costs:
        raise ConfigError("sim backend needs --costs")
    ga = _parse_ga_overrides(args.ga, GaConfig())
    source = Path(args.src)
    costs_path = Path(args.costs) if args.backend == "sim" else None
    ast, loops, costs = _load_program(source, costs_path)
    stage_search(ast, loops, costs, source.stem, Path(args.output_dir),
                 args.backend, args.cmd_template, ga, workers=args.workers,
                 timeout=args.timeout)
    return EXIT_READY


if __name__ == "__main__":
    sys.exit(main())
