"""Post-deployment automatic verification.

Runs performance test cases against the planned allocation (sim cases
re-execute the offloaded program in the two-memory-space model and diff it
against the unoffloaded baseline; external cases run a measurement
command), runs registered regression suites for the declared software
components, and renders the user-facing report with the allocation and its
monthly price.

Scaled processing time assumes part-times shrink linearly with unit
counts: t_cpu/cpu_units + t_dev/dev_units.
"""

from __future__ import annotations

import json
import os
import shlex
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .evaluation import (
    DEFAULT_TIMEOUT,
    Measurement,
    ShapeMismatch,
    ToleranceSpec,
    compare_results,
    evaluate_external,
    run_command,
)
from .minic.interp import EvalError, interpret
from .minic.loops import extract_loops
from .minic.parser import ParseError, parse_program
from .offload import (
    InvalidPattern,
    LengthMismatch,
    OffloadPattern,
    TwoSpaceError,
    plan_transfers,
    simulate_with_plan,
)
from .planner import Allocation

SCALING_ASSUMPTION = ("part-times scale linearly with unit counts: "
                      "scaled = t_cpu/cpu_units + t_dev/dev_units")


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class TestCase:
    __test__ = False               # domain type, not a pytest class

    name: str
    kind: str                      # "performance" | "regression"
    source: str | None = None      # sim target program
    pattern: tuple | None = None   # sim target offload pattern bits
    baseline: str | None = None    # unoffloaded reference program
    tolerance: ToleranceSpec | None = None
    command: str | None = None     # external target / regression command

    def __post_init__(self):
        if self.kind not in ("performance", "regression"):
            raise ConfigError(f"test '{self.name}': unknown kind {self.kind!r}")
        if self.kind == "regression" and not self.command:
            raise ConfigError(f"regression test '{self.name}' needs a command")
        if self.kind == "performance" and self.source is None and self.command is None:
            raise ConfigError(
                f"performance test '{self.name}' needs a source or a command")


def load_tests(path) -> list[TestCase]:
    base = Path(path).parent
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    cases = []
    for entry in raw:
        source = entry.get("source")
        baseline = entry.get("baseline")
        cases.append(TestCase(
            name=entry["name"],
            kind=entry["kind"],
            source=str(base / source) if source else None,
            pattern=tuple(entry["pattern"]) if "pattern" in entry else None,
            baseline=str(base / baseline) if baseline else None,
            tolerance=(ToleranceSpec.from_json(entry["tolerance"])
                       if "tolerance" in entry else None),
            command=entry.get("command"),
        ))
    return cases


def load_registry(path) -> dict:
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    return {name: list(cmds) for name, cmds in raw.items()}


@dataclass(frozen=True)
class PerformanceRow:
    name: str
    scaled_time: float | None      # None when the measurement was invalid
    throughput: float | None       # 1 / scaled_time
    diff_passed: bool
    worst_variable: str | None = None
    worst_deviation: float | None = None
    note: str | None = None

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RegressionRow:
    name: str
    passed: bool
    exit_code: int | None
    note: str | None = None

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class VerificationReport:
    performance: list = field(default_factory=list)
    regression: list = field(default_factory=list)
    uncovered_components: list = field(default_factory=list)
    allocation: Allocation | None = None
    monthly_cost: float = 0.0
    recommendation: str = "attention"
    assumptions: str = SCALING_ASSUMPTION

    def to_json(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        lines = ["deployment verification report",
                 f"  model assumption: {self.assumptions}", ""]
        lines.append("performance cases:")
        if not self.performance:
            lines.append("  (none)")
        for row in self.performance:
            time_txt = ("INFINITE_TIME" if row.scaled_time is None
                        else f"{row.scaled_time:.6g} s")
            tput_txt = ("-" if row.throughput is None
                        else f"{row.throughput:.6g}/s")
            diff_txt = "diff ok" if row.diff_passed else "diff FAILED"
            extra = f" ({row.note})" if row.note else ""
            lines.append(f"  {row.name}: scaled time {time_txt}, "
                         f"throughput {tput_txt}, {diff_txt}{extra}")
        lines.append("")
        lines.append("regression cases:")
        if not self.regression:
            lines.append("  (none)")
        for row in self.regression:
            status = "pass" if row.passed else "FAIL"
            code = "-" if row.exit_code is None else str(row.exit_code)
            extra = f" ({row.note})" if row.note else ""
            lines.append(f"  {row.name}: {status} (exit {code}){extra}")
        lines.append("")
        if self.uncovered_components:
            lines.append("uncovered components (no registered regression suite):")
            for name in self.uncovered_components:
                lines.append(f"  {name}")
            lines.append("")
        if self.allocation is not None:
            kept = "kept" if self.allocation.ratio_kept else "not kept"
            lines.append(
                f"allocation: {self.allocation.cpu_units} CPU unit(s), "
                f"{self.allocation.dev_units} device unit(s), ratio {kept}")
        lines.append(f"monthly price: {self.monthly_cost}")
        lines.append(f"recommendation: {self.recommendation}")
        return "\n".join(lines) + "\n"


def _scaled_time(measurement: Measurement, allocation: Allocation) -> float | None:
    if not measurement.valid:
        return None
    cpu_term = measurement.t_cpu_part / allocation.cpu_units
    if allocation.dev_units > 0:
        dev_term = measurement.t_dev_part / allocation.dev_units
    elif measurement.t_dev_part == 0:
        dev_term = 0.0
    else:
        raise ConfigError("device time measured but the allocation has no device units")
    return cpu_term + dev_term


def _regression_row(name: str, command: str, timeout: float) -> RegressionRow:
    """Run a regression command; one that cannot run fails with a note."""
    argv = shlex.split(command)
    if not argv:
        return RegressionRow(name, passed=False, exit_code=None, note="empty command")
    try:
        code, _, note = run_command(argv, timeout)
    except OSError as exc:
        return RegressionRow(name, passed=False, exit_code=None, note=str(exc))
    return RegressionRow(name, passed=code == 0, exit_code=code, note=note)


def _program(path: str, programs: dict):
    """(ast, loop table) of the program at path, loaded once per table,
    which is keyed by resolved path. A failed load is not stored, so every
    case that needs it fails alike."""
    key = os.path.realpath(path)
    if key not in programs:
        with open(path, encoding="utf-8") as f:
            ast = parse_program(f.read())
        programs[key] = (ast, extract_loops(ast))
    return programs[key]


def _sim_diff(case: TestCase, tol: ToleranceSpec, scaled: float | None,
              throughput: float | None, programs: dict,
              baselines: dict) -> PerformanceRow:
    """Run the offloaded program in the two-space model and compare it
    numerically with the plainly interpreted baseline. interpret is pure,
    so each distinct baseline runs once per ``baselines`` table."""
    if case.baseline is None:
        raise ConfigError(f"performance case '{case.name}' lacks a baseline source")
    try:
        ast, loops = _program(case.source, programs)
        baseline_ast, baseline_loops = _program(case.baseline, programs)
        pattern = OffloadPattern(tuple(case.pattern or ()))
        plan = plan_transfers(ast, loops, pattern)
        offloaded = simulate_with_plan(ast, loops, pattern, plan).outputs
        if id(baseline_ast) not in baselines:
            baselines[id(baseline_ast)] = interpret(baseline_ast, loops=baseline_loops)
        verdict = compare_results(offloaded, baselines[id(baseline_ast)], tol)
        return PerformanceRow(case.name, scaled, throughput, verdict.passed,
                              verdict.worst_variable, verdict.worst_deviation)
    except (ParseError, EvalError, TwoSpaceError, InvalidPattern, LengthMismatch,
            ShapeMismatch, OSError, ValueError) as exc:
        return PerformanceRow(case.name, scaled, throughput, False, note=str(exc))


def run_verification(allocation: Allocation, measurement: Measurement,
                     tests: list[TestCase], registry: dict,
                     declared_components: list[str],
                     default_tolerance: ToleranceSpec | None = None,
                     timeout: float = DEFAULT_TIMEOUT,
                     analyzed: tuple | None = None) -> VerificationReport:
    """Execute every test case and assemble the report; per-case failures are
    captured, never fatal. Only a structurally broken case (a performance
    case with no baseline) raises ConfigError.

    Each program file a sim case names is parsed and its loops extracted
    once per call, and each baseline interpreted once. ``analyzed`` is the
    (path, ast, loop table) of a program already loaded; cases naming that
    file, under any spelling of its path, use it without parsing again.
    """
    tol_default = default_tolerance or ToleranceSpec()
    report = VerificationReport(allocation=allocation,
                                monthly_cost=allocation.monthly_cost)
    scaled = _scaled_time(measurement, allocation)
    throughput = (1.0 / scaled) if scaled else None
    programs: dict = {}            # resolved path -> (ast, loop table)
    if analyzed is not None:
        path, ast, loops = analyzed
        programs[os.path.realpath(path)] = (ast, loops)
    baselines: dict = {}           # id of a baseline ast in programs -> outputs

    for case in tests:
        if case.kind == "performance":
            if case.command is not None:
                m = evaluate_external(case.command, "", "", timeout=timeout)
                case_scaled = _scaled_time(m, allocation)
                case_tput = (1.0 / case_scaled) if case_scaled else None
                report.performance.append(PerformanceRow(
                    case.name, case_scaled, case_tput,
                    diff_passed=m.valid, note=m.note))
            else:
                report.performance.append(_sim_diff(
                    case, case.tolerance or tol_default, scaled, throughput,
                    programs, baselines))
        else:
            report.regression.append(_regression_row(case.name, case.command, timeout))

    for component in declared_components:
        if component not in registry:
            report.uncovered_components.append(component)
            continue
        for idx, command in enumerate(registry[component]):
            report.regression.append(
                _regression_row(f"{component}[{idx}]", command, timeout))

    diffs_ok = all(row.diff_passed for row in report.performance)
    regressions_ok = all(row.passed for row in report.regression)
    report.recommendation = "ready" if diffs_ok and regressions_ok else "attention"
    return report
