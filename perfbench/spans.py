"""Layer spans for the traced benchmark run.

The tracer wraps each public function at the module attribute through
which the pipeline calls it (``offload_planner.cli.plan_transfers``,
``offload_planner.verify.interpret``, ...), so nothing under ``src/``
changes. Each call made while recording yields a span: name, start, end,
parent span and operation number. Spans stay in memory and are written
out once, when the run ends. Counts that the layer metrics need (bytes
parsed, transfer ops planned, iterations interpreted, ...) are taken at
the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict

# (module, attribute, span name); the run_ga wrapper is added separately.
WRAP_POINTS = (
    ("offload_planner.cli", "stage_analyze", "cli.stage_analyze"),
    ("offload_planner.cli", "stage_search", "cli.stage_search"),
    ("offload_planner.cli", "stage_plan", "cli.stage_plan"),
    ("offload_planner.cli", "stage_verify", "cli.stage_verify"),
    ("offload_planner.cli", "parse_program", "parser.parse_program"),
    ("offload_planner.verify", "parse_program", "parser.parse_program"),
    ("offload_planner.cli", "extract_loops", "loops.extract_loops"),
    ("offload_planner.verify", "extract_loops", "loops.extract_loops"),
    ("offload_planner.cli", "plan_transfers", "offload.plan_transfers"),
    ("offload_planner.verify", "plan_transfers", "offload.plan_transfers"),
    ("offload_planner.cli", "emit_annotated", "offload.emit_annotated"),
    ("offload_planner.cli", "evaluate_sim", "evaluation.evaluate_sim"),
    ("offload_planner.cli", "evaluate_external", "evaluation.evaluate_external"),
    ("offload_planner.cli", "plan_amount", "planner.plan_amount"),
    ("offload_planner.cli", "run_verification", "verify.run_verification"),
    ("offload_planner.verify", "interpret", "interp.interpret"),
    ("offload_planner.verify", "simulate_with_plan", "offload.simulate_with_plan"),
    ("offload_planner.verify", "compare_results", "evaluation.compare_results"),
)

STAGES = ("cli.stage_analyze", "cli.stage_search", "cli.stage_plan", "cli.stage_verify")
OP_SPAN = "cli.run_all"


class Tracer:
    """Records spans of the wrapped layer functions while installed.

    ``iterations`` maps a program's source text to its loop-body
    executions, known to the corpus generator, for the per-iteration rates.
    """

    def __init__(self, iterations: dict):
        self.iterations = iterations
        self.spans: list = []            # [name, start, end, parent, op]
        self.counts: dict = defaultdict(int)
        self.op = -1
        self._stacks: dict = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._saved: list = []

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            # a worker thread's spans belong to the span open on the main
            # thread, which waits for them
            parents = stack or self._stacks.get(self._main) or [None]
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parents[-1], self.op])
            stack.append(idx)
        return idx

    def _close(self, idx: int):
        end = time.perf_counter()
        with self._lock:
            self.spans[idx][2] = end
            self._stacks[threading.get_ident()].pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def run_op(self, fn, *args):
        """Run one pipeline operation under its root span."""
        self.op += 1
        return self.call(OP_SPAN, fn, *args)

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, fn, name: str):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                with self._lock:
                    count(self, args, result)
            return result

        return wrapper

    def _wrap_run_ga(self, fn):
        @functools.wraps(fn)
        def run_ga(loops, evaluator, *args, **kwargs):
            def evaluate(pattern):
                measurement = self.call("ga.evaluate", evaluator, pattern)
                if measurement.valid:
                    with self._lock:
                        self.counts["ga.valid"] += 1
                return measurement

            result = self.call("ga.run_ga", fn, loops, evaluate, *args, **kwargs)
            self.counts["ga.evaluations"] += result.evaluations
            return result

        return run_ga

    def install(self):
        for module_name, attr, name in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        cli = importlib.import_module("offload_planner.cli")
        self._saved.append((cli, "run_ga", cli.run_ga))
        cli.run_ga = self._wrap_run_ga(cli.run_ga)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------------

    def write(self, path, meta: dict):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**meta, "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, f)
            f.write("\n")

    def metrics(self, overhead_s: float) -> dict:
        """Per-layer metrics, as (value, unit), per traced operation."""
        ops = self.op + 1
        total: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        children: dict = defaultdict(list)
        for idx, (name, start, end, parent, _op) in enumerate(self.spans):
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                children[parent].append(idx)

        def self_time(*names) -> float:
            out = 0.0
            for idx, (name, start, end, _parent, _op) in enumerate(self.spans):
                if name in names:
                    covered = _union([self.spans[c][1:3] for c in children[idx]],
                                     start, end)
                    out += end - start - covered
            return out

        c = self.counts
        per_op = (lambda v: v / ops) if ops else (lambda v: 0.0)
        s, n = "s", "count"
        m = {
            "offload.plan_transfers.s": (per_op(total["offload.plan_transfers"]), s),
            "offload.plan_transfers.calls": (per_op(calls["offload.plan_transfers"]), n),
            "offload.plan_transfers.ms_per_call": (
                _ratio(1000 * total["offload.plan_transfers"], calls["offload.plan_transfers"]), "ms"),
            "offload.transfer_ops_per_plan": (
                _ratio(c["transfer_ops"], calls["offload.plan_transfers"]), n),
            "offload.hoisted_share": (_ratio(c["hoisted_ops"], c["transfer_ops"]), "share"),
            "evaluation.evaluate_sim.s": (per_op(total["evaluation.evaluate_sim"]), s),
            "evaluation.evaluate_sim.calls": (per_op(calls["evaluation.evaluate_sim"]), n),
            "ga.run_ga.self_s": (per_op(self_time("ga.run_ga")), s),
            "ga.patterns_per_s": (_ratio(c["ga.evaluations"], total["ga.run_ga"]), "1/s"),
            "ga.evaluations": (per_op(c["ga.evaluations"]), n),
            "ga.valid_share": (_ratio(c["ga.valid"], c["ga.evaluations"]), "share"),
            "interp.interpret.s": (per_op(total["interp.interpret"]), s),
            "interp.iters_per_s": (_ratio(c["interp_iters"], total["interp.interpret"]), "1/s"),
            "offload.simulate_with_plan.s": (per_op(total["offload.simulate_with_plan"]), s),
            "offload.simulate_with_plan.iters_per_s": (
                _ratio(c["sim_iters"], total["offload.simulate_with_plan"]), "1/s"),
            "offload.transfers_fired": (per_op(c["transfers_fired"]), n),
            "evaluation.compare_results.s": (per_op(total["evaluation.compare_results"]), s),
            "verify.run_verification.self_s": (per_op(self_time("verify.run_verification")), s),
            "verify.cases": (per_op(c["verify_cases"]), n),
            "evaluation.evaluate_external.s": (per_op(total["evaluation.evaluate_external"]), s),
            "evaluation.evaluate_external.calls": (per_op(calls["evaluation.evaluate_external"]), n),
            "offload.emit_annotated.s": (per_op(total["offload.emit_annotated"]), s),
            "offload.emit_annotated.calls": (per_op(calls["offload.emit_annotated"]), n),
            "parser.parse_program.s": (per_op(total["parser.parse_program"]), s),
            "parser.parse_program.calls": (per_op(calls["parser.parse_program"]), n),
            "parser.bytes_per_s": (_ratio(c["parsed_bytes"], total["parser.parse_program"]), "B/s"),
            "loops.extract_loops.s": (per_op(total["loops.extract_loops"]), s),
            "loops.extract_loops.calls": (per_op(calls["loops.extract_loops"]), n),
            "planner.plan_amount.s": (per_op(total["planner.plan_amount"]), s),
            "planner.plan_amount.calls": (per_op(calls["planner.plan_amount"]), n),
        }
        for stage in STAGES:
            m[f"{stage}.s"] = (per_op(total[stage]), s)
        m["trace.overhead_s"] = (overhead_s, s)
        m["trace.unattributed_s"] = (per_op(self_time(*STAGES)), s)
        return m


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    covered = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def _count_parse(tracer, args, result):
    tracer.counts["parsed_bytes"] += len(args[0].encode("utf-8"))


def _count_plan(tracer, args, result):
    tracer.counts["transfer_ops"] += len(result.ops)
    tracer.counts["hoisted_ops"] += sum(op.hoisted for op in result.ops)


def _count_interpret(tracer, args, result):
    tracer.counts["interp_iters"] += tracer.iterations[args[0].source]


def _count_simulate(tracer, args, result):
    tracer.counts["sim_iters"] += tracer.iterations[args[0].source]
    tracer.counts["transfers_fired"] += result.total_transfers


def _count_cases(tracer, args, result):
    tracer.counts["verify_cases"] += len(result.performance) + len(result.regression)


_COUNTERS = {
    "parser.parse_program": _count_parse,
    "offload.plan_transfers": _count_plan,
    "interp.interpret": _count_interpret,
    "offload.simulate_with_plan": _count_simulate,
    "verify.run_verification": _count_cases,
}
