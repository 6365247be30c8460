"""Measurements for (program, pattern, plan) and numeric result comparison.

Two backends produce Measurements: a deterministic simulated cost model and
an external measurement command. Invalid results carry the distinguished
INFINITE_TIME sentinel (not a floating-point infinity, so serialization
stays exact) and downstream search gives them fitness 0.
"""

from __future__ import annotations

import math
import shlex
import struct
import subprocess
import weakref
from dataclasses import asdict, dataclass, field

from .minic.loops import LoopTable
from .offload import OffloadPattern, TransferPlan, offloaded_ids

DEFAULT_SPEEDUP = 10.0
DEFAULT_TAU_HOST = 1e-9        # seconds per work unit on the host
DEFAULT_LAUNCH_OVERHEAD = 1e-4  # seconds per kernel launch
DEFAULT_BANDWIDTH = 1e10       # bytes per second
DEFAULT_LATENCY = 1e-5         # seconds per transfer
DEFAULT_TIMEOUT = 300.0


class _InfiniteTime:
    __slots__ = ()

    def __repr__(self):
        return "INFINITE_TIME"


INFINITE_TIME = _InfiniteTime()


class MissingAnnotation(Exception):
    pass


class CostModelError(Exception):
    pass


class SpawnError(Exception):
    """The measurement command could not be started at all."""


class ShapeMismatch(Exception):
    pass


@dataclass(frozen=True)
class Measurement:
    t_total: float | _InfiniteTime
    t_cpu_part: float | _InfiniteTime
    t_dev_part: float | _InfiniteTime
    valid: bool
    note: str | None = None

    @staticmethod
    def invalid(note: str) -> "Measurement":
        return Measurement(INFINITE_TIME, INFINITE_TIME, INFINITE_TIME,
                           valid=False, note=note)

    def to_json(self) -> dict:
        # asdict copies the INFINITE_TIME sentinel: tell it by its type
        data = {key: "INFINITE_TIME" if isinstance(value, _InfiniteTime) else value
                for key, value in asdict(self).items()}
        if self.note is None:
            del data["note"]
        return data


@dataclass(frozen=True)
class CostAnnotations:
    """Per-loop work (units per iteration of the loop's immediate body,
    nested loops excluded) and per-region device speedup, plus the global
    timing constants of the simulated platform."""

    work: dict = field(default_factory=dict)       # loop_id -> work units
    speedup: dict = field(default_factory=dict)    # region root -> speedup
    tau_host: float = DEFAULT_TAU_HOST
    launch_overhead: float = DEFAULT_LAUNCH_OVERHEAD
    bandwidth: float = DEFAULT_BANDWIDTH
    latency: float = DEFAULT_LATENCY
    default_work: float | None = None
    fault_patterns: frozenset = frozenset()

    def __post_init__(self):
        if any(w < 0 for w in self.work.values()):
            raise ValueError("work must be non-negative")
        if any(s <= 0 for s in self.speedup.values()):
            raise ValueError("speedup must be positive")
        for name in ("tau_host", "launch_overhead", "bandwidth", "latency"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @staticmethod
    def from_json(data: dict) -> "CostAnnotations":
        work = {}
        speedup = {}
        for key, entry in data.items():
            if key in ("globals", "default_work", "fault_patterns"):
                continue
            work[int(key)] = float(entry["work"])
            if "speedup" in entry:
                speedup[int(key)] = float(entry["speedup"])
        g = data.get("globals", {})
        return CostAnnotations(
            work=work,
            speedup=speedup,
            tau_host=float(g.get("tau_host", DEFAULT_TAU_HOST)),
            launch_overhead=float(g.get("launch_overhead", DEFAULT_LAUNCH_OVERHEAD)),
            bandwidth=float(g.get("bandwidth", DEFAULT_BANDWIDTH)),
            latency=float(g.get("latency", DEFAULT_LATENCY)),
            default_work=(float(data["default_work"])
                          if "default_work" in data else None),
            fault_patterns=frozenset(data.get("fault_patterns", ())),
        )

    @staticmethod
    def load(path) -> "CostAnnotations":
        import json

        with open(path, encoding="utf-8") as f:
            return CostAnnotations.from_json(json.load(f))

    def work_for(self, info) -> float:
        if info.loop_id in self.work:
            return self.work[info.loop_id]
        if self.default_work is not None:
            return self.default_work
        if info.eligible:
            raise MissingAnnotation(
                f"eligible loop {info.loop_id} has no work annotation "
                f"and no default_work is configured")
        return 0.0


def _entries(loops: LoopTable, loop_id: int) -> float:
    """How many times the loop is entered: product of ancestor trip counts."""
    count = loops.exec_count(loop_id)
    if count is None:
        anc = next(a for a in loops.ancestors(loop_id) if loops.by_id[a].trip_count is None)
        raise CostModelError(f"loop {anc} enclosing {loop_id} has no static trip count")
    return float(count)


def _host_cost(loops: LoopTable, costs: CostAnnotations, info) -> float | None:
    """The loop's own cost on the host; None when it carries no work."""
    work = costs.work_for(info)
    if work == 0.0:
        return None
    if info.trip_count is None:
        raise CostModelError(
            f"host loop {info.loop_id} has work but no static trip count")
    return _entries(loops, info.loop_id) * info.trip_count * work * costs.tau_host


def _region_cost(loops: LoopTable, costs: CostAnnotations, root: int) -> float:
    """The kernel cost of the region rooted at ``root``, transfers aside."""
    speedup = costs.speedup.get(root, DEFAULT_SPEEDUP)
    kernel = costs.launch_overhead
    iters_within = {}  # loop id -> iterations per region execution, None if unknown
    for lid in loops.subtree_ids(root):
        info = loops.by_id[lid]
        outer = 1 if lid == root else iters_within[info.parent_loop]
        iters_within[lid] = (None if outer is None or info.trip_count is None
                             else outer * info.trip_count)
        work = costs.work_for(info)
        if work == 0.0:
            continue
        if iters_within[lid] is None:
            unknown = next(a for a in [lid] + loops.ancestors(lid)
                           if loops.by_id[a].trip_count is None)
            raise CostModelError(
                f"loop {unknown} in region {root} has no static trip count")
        kernel += float(iters_within[lid]) * work * costs.tau_host / speedup
    return _entries(loops, root) * kernel


def _finite(name: str, cost, *args) -> float:
    """cost(*args), 0.0 for None; a cost that is not a finite binary64 is a
    CostModelError naming it. Cost model errors propagate."""
    try:
        value = cost(*args)
        if value is None or math.isfinite(value):
            return value or 0.0
    except OverflowError:  # an integer too large for a float
        pass
    raise CostModelError(f"{name} is not a finite binary64")


# loop table -> (cost annotations, host cost by loop id, kernel cost by
# region root), filled on first use; other annotations replace the entry.
# Only values are kept: a cost that raises is computed, and raises, again
# for each pattern that uses it. Two threads may fill the entry at once;
# both compute equal costs, so either write may win.
_SIM_TERMS = weakref.WeakKeyDictionary()


def evaluate_sim(ast, loops: LoopTable, pattern: OffloadPattern,
                 plan: TransferPlan, costs: CostAnnotations) -> Measurement:
    """Deterministic closed-form cost model.

    Host loops cost exec_count * trip * work * tau_host. A region costs
    exec_count(root) * (launch + sum over its loops of iters_within * work *
    tau_host / speedup), where iters_within is the product of trip counts
    from the root down to the loop. Every transfer op costs (latency +
    bytes/bandwidth) per anchor execution; transfer time is charged to the
    device part.

    Host and kernel costs do not depend on the pattern: each is filled in
    on first use and kept per loop table and cost annotations, and a
    pattern sums its costs, host loops in table order, then its regions,
    then the plan's ops. A cost that cannot be computed (a loop with work
    but no static trip count, an eligible loop with no work annotation, a
    cost that is not a finite binary64) raises its CostModelError or
    MissingAnnotation for each pattern that uses it.
    """
    if costs.fault_patterns and pattern.as_string() in costs.fault_patterns:
        return Measurement.invalid("fault injected by configuration")
    entry = _SIM_TERMS.get(loops)
    if entry is None or entry[0] is not costs:
        entry = _SIM_TERMS[loops] = (costs, {}, {})
    _, host, kernel = entry
    roots = offloaded_ids(pattern, loops)
    members = set().union(*(loops.subtree_ids(root) for root in roots))

    t_cpu = 0.0
    for info in loops:
        lid = info.loop_id
        if lid not in members:
            cost = host.get(lid)
            if cost is None:
                cost = host[lid] = _finite(f"host cost of loop {lid}",
                                           _host_cost, loops, costs, info)
            t_cpu += cost
    t_dev = 0.0
    for root in roots:
        cost = kernel.get(root)
        if cost is None:
            cost = kernel[root] = _finite(f"kernel cost of region {root}",
                                          _region_cost, loops, costs, root)
        t_dev += cost
    # an op anchors at its root or a loop around it, entered no more often
    # than the root, whose kernel cost made its count a finite binary64
    entries, latency, bandwidth = loops.exec_count, costs.latency, costs.bandwidth
    for op in plan.ops:
        t_dev += entries(op.anchor_loop) * (latency + op.bytes / bandwidth)

    return Measurement(t_cpu + t_dev, t_cpu, t_dev, valid=True)


def run_command(argv: list, timeout: float) -> tuple[int | None, str, str | None]:
    """Run argv (no shell) with its output captured as text: (exit code,
    stdout, None), or (None, "", note) when it outlives ``timeout``
    seconds. OSError propagates when the program cannot start."""
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "", f"timeout after {timeout}s"
    return proc.returncode, proc.stdout, None


def evaluate_external(cmd_template: str, source_path, pattern_path,
                      timeout: float = DEFAULT_TIMEOUT) -> Measurement:
    """Run a measurement command; its final stdout line must read
    `t_total t_cpu_part t_dev_part valid`. The template is split into
    arguments first, then the {src} and {pattern} slots are filled in each
    argument, so a path with spaces stays one argument. Any failing outcome
    (nonzero exit, bad output, a time that is negative or not finite,
    timeout) is an invalid measurement; only a command that cannot start
    raises SpawnError."""
    argv = [arg.format(src=source_path, pattern=pattern_path)
            for arg in shlex.split(cmd_template)]
    if not argv:
        raise SpawnError("empty measurement command")
    try:
        code, stdout, note = run_command(argv, timeout)
    except OSError as exc:
        raise SpawnError(f"cannot start {argv[0]!r}: {exc}") from exc
    if note is not None:
        return Measurement.invalid(note)
    if code != 0:
        return Measurement.invalid(f"exit status {code}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return Measurement.invalid("no output")
    fields = lines[-1].split()
    if len(fields) != 4 or fields[3] not in ("0", "1"):
        return Measurement.invalid(f"unparseable output line {lines[-1]!r}")
    try:
        t_total, t_cpu, t_dev = (float(fields[i]) for i in range(3))
    except ValueError:
        return Measurement.invalid(f"unparseable output line {lines[-1]!r}")
    if fields[3] == "0":
        return Measurement.invalid("command reported invalid result")
    if not all(0.0 <= t < math.inf for t in (t_total, t_cpu, t_dev)):
        return Measurement.invalid(f"times must be finite and non-negative, got {lines[-1]!r}")
    return Measurement(t_total, t_cpu, t_dev, valid=True)


# -- result comparison -------------------------------------------------------

@dataclass(frozen=True)
class ToleranceSpec:
    mode: str = "relative"     # "absolute" | "relative" | "ulp"
    atol: float = 1e-12
    rtol: float = 1e-6
    max_ulps: int = 0

    def __post_init__(self):
        if self.mode not in ("absolute", "relative", "ulp"):
            raise ValueError(f"unknown tolerance mode {self.mode!r}")
        if self.atol < 0 or self.rtol < 0 or self.max_ulps < 0:
            raise ValueError("tolerance bounds must be non-negative")
        if not (math.isfinite(self.atol) or math.isfinite(self.rtol)
                or self.mode == "ulp"):
            raise ValueError("at least one bound must be finite")

    @staticmethod
    def from_json(data: dict) -> "ToleranceSpec":
        return ToleranceSpec(
            mode=data.get("mode", "relative"),
            atol=float(data.get("atol", 1e-12)),
            rtol=float(data.get("rtol", 1e-6)),
            max_ulps=int(data.get("max_ulps", 0)),
        )


@dataclass(frozen=True)
class DiffVerdict:
    passed: bool
    per_variable: dict          # name -> worst deviation under the mode's metric
    worst_variable: str | None
    worst_deviation: float


def _ordered_bits(x: float) -> int:
    """Map binary64 to integers so that ulp distance is plain subtraction;
    sign-aware: negative values mirror below the non-negative range and
    -0.0 coincides with +0.0."""
    (bits,) = struct.unpack("<Q", struct.pack("<d", x))
    if bits & (1 << 63):
        return (1 << 63) - (bits ^ (1 << 63))
    return (1 << 63) + bits


def ulp_distance(x: float, y: float) -> int:
    return abs(_ordered_bits(x) - _ordered_bits(y))


def compare_results(actual: dict, baseline: dict, tol: ToleranceSpec) -> DiffVerdict:
    """Element-wise comparison of two program outputs under the tolerance.
    Values that compare equal, or are both NaN, deviate by 0; any other
    pair with an infinite or NaN side fails with deviation inf."""
    if set(actual) != set(baseline):
        raise ShapeMismatch(
            f"variable sets differ: {sorted(set(actual) ^ set(baseline))}")
    per_variable: dict[str, float] = {}
    passed = True
    worst_var = None
    worst_dev = 0.0
    for name, base_value in baseline.items():
        act_value = actual[name]
        base_seq = base_value if isinstance(base_value, (tuple, list)) else (base_value,)
        act_seq = act_value if isinstance(act_value, (tuple, list)) else (act_value,)
        if len(base_seq) != len(act_seq):
            raise ShapeMismatch(
                f"'{name}': length {len(act_seq)} vs {len(base_seq)}")
        var_worst = 0.0
        for x, y in zip(act_seq, base_seq):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            if not (math.isfinite(x) and math.isfinite(y)):
                dev, ok = math.inf, False
            elif tol.mode == "ulp":
                dev = float(ulp_distance(x, y))
                ok = dev <= tol.max_ulps
            else:
                dev = abs(x - y)
                limit = tol.atol if tol.mode == "absolute" else tol.atol + tol.rtol * abs(y)
                ok = dev <= limit
            var_worst = max(var_worst, dev)
            if not ok:
                passed = False
        per_variable[name] = var_worst
        if worst_var is None or var_worst > worst_dev:
            worst_var = name
            worst_dev = var_worst
    return DiffVerdict(passed, per_variable, worst_var, worst_dev)
